"""The benchmark's workloads: inputs made from the seed, the command chain,
and the checks on every output.

Each workload is a closed loop with one client: a chain of ``nobfext`` CLI
commands, each started after the previous one exits.  Every pass also runs
the fixed-cost ``setup`` command (``analyze bias`` on majority-3), the
start-up floor every invocation pays.

All inputs are built from the workload seed through the library's public
constructors (``NobfSourceSpec``, ``explicit_params``, ``preset_code``) and
written as documents into the run's work directory; commands refer to them
by relative path, so outputs do not depend on where the checkout lives and
their sha256 can be compared between two checkouts.

The seed reaches every sampling command as its ``--seed``.  The one
exception is ``build-code``: its cost is the number of random attempts the
search needs, a geometric variable of the search seed, so its seed is pinned
(seed 1 succeeds at attempt 544 for the full size) to keep the work per pass
the same for every workload seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WHY = {
    "extract-stream": (
        "the main user path: t-wise source sampled to a file, then scalar "
        "extract with trace encoding and schema checks; no enumeration"),
    "exact-oracles": (
        "each exact oracle kernel: 2^24 source tables, t-wise seed-space "
        "enumeration, coalition undetermination scan, minimum distance in "
        "code search"),
    "mc-estimates": (
        "the Monte-Carlo hot loop on 2 worker threads: PRNG, generators, "
        "adversary, compose, block function, block scan, bincount"),
}

# Sample counts and instance sizes; QUICK runs every workload once in a
# few seconds, for the benchmark's own tests.
FULL = {
    "extract-stream": {"samples": 8000},
    "exact-oracles": {"n": 24, "bad": [1, 4, 10, 20], "ell": 8, "twise_t": 3,
                      "influence_arity": 17, "code": (20, 48, 10)},
    "mc-estimates": {"fixedness_samples": 1_000_000, "compare_samples": 150_000,
                     "equivalence_samples": 20_000},
}
QUICK = {
    "extract-stream": {"samples": 300},
    "exact-oracles": {"n": 21, "bad": [1, 4, 10, 20], "ell": 7, "twise_t": 2,
                      "influence_arity": 9, "code": (8, 24, 7)},
    "mc-estimates": {"fixedness_samples": 20_000, "compare_samples": 10_000,
                     "equivalence_samples": 5_000},
}
CODE_SEARCH_SEED = 1
SUBSAMPLE = 256      # samples re-extracted in-process by the extract-stream check
SD_TOLERANCE = 1e-12


class CheckFailed(Exception):
    """An output does not match what the benchmark expects."""


@dataclass
class Command:
    key: str                  # name in the report, e.g. "extract" -> extract_s
    argv: list[str]           # arguments after `nobfext`
    out: str                  # output document, relative to the work dir
    samples: int = 0          # samples drawn or read, for samples_per_s
    extra_outputs: tuple[str, ...] = ()
    check: object = None      # check(workdir, doc) -> None; raises CheckFailed


@dataclass
class Workload:
    name: str
    why: str
    files: dict[str, dict]                 # relative path -> JSON document
    commands: list[Command]                # the chain, without the setup command
    descriptors: dict                      # generated specs and params, for the record
    equivalence: list[tuple[list[str], list[str], str]] = field(default_factory=list)

    @property
    def samples(self) -> int:
        return sum(c.samples for c in self.commands)


SETUP = Command("setup", ["analyze", "--config", "setup.json", "--out", "setup.out.json"],
                "setup.out.json")
SETUP_CONFIG = {"analysis": "bias", "f": {"kind": "majority", "arity": 3}}


def _source_config(spec) -> dict:
    desc = spec.to_descriptor()
    return {k: desc[k] for k in ("n", "bad_positions", "good_dist", "adversary", "t", "gamma")}


def _hex_int(s: str) -> int:
    """Integer of a hex payload written low nibble first."""
    return int(s[::-1], 16)


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _check_estimate(est: dict, samples: int | None = None) -> None:
    _expect(est["lo"] <= est["value"] <= est["hi"],
            f"estimate {est['value']} outside [{est['lo']}, {est['hi']}]")
    if samples is not None:
        _expect(est["samples"] == samples, f"estimate used {est['samples']} samples, "
                                           f"expected {samples}")


def _scatter(values: np.ndarray, positions) -> np.ndarray:
    """Bit k of each value moved to positions[k] (benchmark-side compose)."""
    out = np.zeros(values.shape, dtype=np.uint64)
    for k, pos in enumerate(positions):
        out |= ((values >> np.uint64(k)) & np.uint64(1)) << np.uint64(pos)
    return out


def _min_distance(rows: list[int]) -> int:
    """Minimum weight over all nonzero row combinations, by doubling."""
    table = np.zeros(1, dtype=np.uint64)
    for row in rows:
        table = np.concatenate([table, table ^ np.uint64(row)])
    return int(np.bitwise_count(table[1:]).min())


# ---------------------------------------------------------------------------


def extract_stream(seed: int, size: dict, nb) -> Workload:
    n_samples = size["samples"]
    spec = nb.NobfSourceSpec(63, [4, 22, 40], nb.ExactTwise(60, 4), nb.ParityOfGood())
    params = nb.explicit_params(63, 7, 9, nb.preset_code("simplex-k3"), nb.Majority(9))
    source = dict(_source_config(spec), samples_out="stream.samples")

    def check_source(workdir: Path, doc: dict) -> None:
        with open(workdir / "stream.samples") as fh:
            header = json.loads(fh.readline())
        nb.schemas.validate_document(header)
        _expect(header["count"] == n_samples and header["n"] == 63,
                f"sample file header {header} does not hold {n_samples} 63-bit samples")

    def check_extract(workdir: Path, doc: dict) -> None:
        _expect(doc["count"] == n_samples == len(doc["traces"]),
                f"{doc['count']} traces for {n_samples} samples")
        with open(workdir / "stream.samples") as fh:
            fh.readline()
            xs = [_hex_int(line.strip()) for line in fh if line.strip()]
        _expect(len(xs) == n_samples, f"sample file holds {len(xs)} samples")
        idx = range(0, n_samples, max(1, n_samples // SUBSAMPLE))
        z = nb.extract_batch(np.array([xs[i] for i in idx], dtype=np.uint64), params)
        got = [_hex_int(doc["traces"][i]["z"]) for i in idx]
        bad = [i for i, a, b in zip(idx, got, z.tolist()) if a != b]
        _expect(not bad, f"re-extracted z differs at samples {bad[:5]}")

    common = ["--seed", str(seed), "--workers", "1"]
    return Workload(
        name="extract-stream", why=WHY["extract-stream"],
        files={"source.json": source, "params.json": params.to_json(),
               "extract.json": {"params": "params.json", "samples": "stream.samples"}},
        commands=[
            Command("gen_source", ["gen-source", "--config", "source.json", "--out",
                                   "source.out.json", "--samples", str(n_samples), *common],
                    "source.out.json", n_samples, ("stream.samples",), check_source),
            Command("extract", ["extract", "--config", "extract.json", "--out",
                                "extract.out.json", *common],
                    "extract.out.json", n_samples, (), check_extract),
        ],
        descriptors={"spec": spec.to_descriptor(), "params": params.to_json()})


def exact_oracles(seed: int, size: dict, nb) -> Workload:
    n, bad, ell = size["n"], size["bad"], size["ell"]
    n_good = n - len(bad)
    params = nb.explicit_params(n, ell, 3, nb.preset_code("hamming-7-4"), nb.Majority(3))
    spec_u = nb.NobfSourceSpec(n, bad, nb.UniformBits(n_good), nb.MajorityOfGood())
    spec_t = nb.NobfSourceSpec(n, bad, nb.ExactTwise(n_good, size["twise_t"]),
                               nb.MajorityOfGood())
    f_inf = nb.Majority(size["influence_arity"])
    m, r, target_d = size["code"]

    def check_compare(workdir: Path, doc: dict) -> None:
        res = doc["result"]
        _expect(res["exact"] is True, "compare-zeroed did not take the exact path")
        # Independent recomputation: every good outcome (uniform, equal weight),
        # majority-of-good bad bits composed here, then extract_batch and half-L1.
        goods = np.arange(1 << n_good, dtype=np.uint64)
        good_pos = [i for i in range(n) if i not in bad]
        maj = (2 * np.bitwise_count(goods) > n_good).astype(np.uint64)
        base = _scatter(goods, good_pos)
        adv = base | _scatter(maj * np.uint64((1 << len(bad)) - 1), bad)
        za = nb.extract_batch(adv, params).astype(np.int64)
        zb = nb.extract_batch(base, params).astype(np.int64)
        cells = 1 << params.m
        sd = 0.5 * float(np.abs(np.bincount(za, minlength=cells)
                                - np.bincount(zb, minlength=cells)).sum()) / goods.size
        _expect(abs(sd - res["sd"]["value"]) <= SD_TOLERANCE,
                f"compare-zeroed SD {res['sd']['value']} but recomputed {sd}")
        _check_estimate(res["sd"])

    def check_fixedness(workdir: Path, doc: dict) -> None:
        res = doc["result"]
        _expect(res["exact"] is True, "fixedness did not take the exact path")
        _check_estimate(res["probability"])
        _expect(0.0 < res["probability"]["value"] < 1.0, "degenerate fixedness")

    def check_influence(workdir: Path, doc: dict) -> None:
        res = doc["result"]
        _expect(res["exact"] is True and len(res["witness"]) == 3
                and 0.0 < res["influence"] < 1.0, f"implausible influence result {res}")

    def check_code(workdir: Path, doc: dict) -> None:
        rows = [_hex_int(h) for h in doc["rows"]]
        _expect(doc["m"] == m == len(rows) and doc["r"] == r, "code has the wrong shape")
        d = _min_distance(rows)
        _expect(d == doc["verified_d"] and d >= target_d,
                f"code claims distance {doc['verified_d']}, recomputed {d}")

    analyze = ["--seed", str(seed)]
    return Workload(
        name="exact-oracles", why=WHY["exact-oracles"],
        files={
            "spec_uniform.json": spec_u.to_descriptor(),
            "spec_twise.json": spec_t.to_descriptor(),
            "params.json": params.to_json(),
            "compare.json": {"analysis": "compare-zeroed", "spec": "spec_uniform.json",
                             "params": "params.json"},
            "fixedness.json": {"analysis": "fixedness", "spec": "spec_twise.json",
                               "params": "params.json"},
            "influence.json": {"analysis": "influence", "f": f_inf.descriptor(),
                               "max_size": 3},
            "code.json": {"m": m, "r": r, "target_d": target_d},
        },
        commands=[
            Command("compare_zeroed", ["analyze", "--config", "compare.json", "--out",
                                       "compare.out.json", *analyze],
                    "compare.out.json", check=check_compare),
            Command("fixedness", ["analyze", "--config", "fixedness.json", "--out",
                                  "fixedness.out.json", *analyze],
                    "fixedness.out.json", check=check_fixedness),
            Command("influence", ["analyze", "--config", "influence.json", "--out",
                                  "influence.out.json", *analyze],
                    "influence.out.json", check=check_influence),
            Command("build_code", ["build-code", "--config", "code.json", "--out",
                                   "code.out.json", "--seed", str(CODE_SEARCH_SEED)],
                    "code.out.json", check=check_code),
        ],
        descriptors={"spec_uniform": spec_u.to_descriptor(),
                     "spec_twise": spec_t.to_descriptor(), "params": params.to_json(),
                     "influence_f": f_inf.descriptor(),
                     "code_search": {"m": m, "r": r, "target_d": target_d,
                                     "seed": CODE_SEARCH_SEED}})


def mc_estimates(seed: int, size: dict, nb) -> Workload:
    bad = [0, 3, 6, 30, 46, 50]
    params = nb.explicit_params(63, 7, 9, nb.preset_code("simplex-k3"),
                                nb.RecursiveMajority3(2))
    spec_u = nb.NobfSourceSpec(63, bad, nb.UniformBits(57), nb.MajorityOfGood())
    spec_e = nb.NobfSourceSpec(63, bad, nb.EpsBiased(57, 0.01), nb.MajorityOfGood())
    n_fix, n_cmp = size["fixedness_samples"], size["compare_samples"]

    def check_fixedness(workdir: Path, doc: dict) -> None:
        res = doc["result"]
        _expect(res["exact"] is False, "fixedness did not take the Monte-Carlo path")
        _check_estimate(res["probability"], n_fix)

    def check_compare(workdir: Path, doc: dict) -> None:
        res = doc["result"]
        _expect(res["exact"] is False, "compare-zeroed did not take the Monte-Carlo path")
        _check_estimate(res["sd"], n_cmp)
        _expect(0.0 <= res["mismatch_rate"] <= 1.0, "mismatch rate outside [0, 1]")

    def argv(config, out, count, workers):
        return ["analyze", "--config", config, "--out", out, "--samples", str(count),
                "--seed", str(seed), "--workers", str(workers)]

    n_eq = size["equivalence_samples"]
    equivalence = [
        (argv(cfg, f"equiv/{name}.w1.json", n_eq, 1),
         argv(cfg, f"equiv/{name}.w2.json", n_eq, 2), name)
        for cfg, name in (("fixedness.json", "fixedness"), ("compare.json", "compare"))
    ]
    return Workload(
        name="mc-estimates", why=WHY["mc-estimates"],
        files={
            "spec_uniform.json": spec_u.to_descriptor(),
            "spec_epsbiased.json": spec_e.to_descriptor(),
            "params.json": params.to_json(),
            "fixedness.json": {"analysis": "fixedness", "spec": "spec_uniform.json",
                               "params": "params.json", "force_mc": True},
            "compare.json": {"analysis": "compare-zeroed", "spec": "spec_epsbiased.json",
                             "params": "params.json", "force_mc": True},
        },
        commands=[
            Command("fixedness", argv("fixedness.json", "fixedness.out.json", n_fix, 2),
                    "fixedness.out.json", n_fix, check=check_fixedness),
            Command("compare_zeroed", argv("compare.json", "compare.out.json", n_cmp, 2),
                    "compare.out.json", n_cmp, check=check_compare),
        ],
        descriptors={"spec_uniform": spec_u.to_descriptor(),
                     "spec_epsbiased": spec_e.to_descriptor(), "params": params.to_json()},
        equivalence=equivalence)


_MAKERS = {"extract-stream": extract_stream, "exact-oracles": exact_oracles,
            "mc-estimates": mc_estimates}


def build(name: str, seed: int, quick: bool, nb) -> Workload:
    """The workload `name` for `seed`; `nb` is the imported nobfext package."""
    return _MAKERS[name](seed, (QUICK if quick else FULL)[name], nb)

