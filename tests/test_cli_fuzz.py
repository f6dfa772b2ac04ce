"""Fuzzed CLI invocations, run in-process through `cli.main`.

Every run must exit 0, 2, 3 or 4.  A run that exits 2 or 3 explains itself
in one stderr line without a traceback and leaves its directory as it found
it, a pre-existing `--out` file included; exit 4 (a code search that ran out
of attempts) writes its failure report and says so in one line; exit 0
writes nothing to stderr.  Either way `--out` then holds a document that
passes its schema.  The configs mix sound values with wrong types and
out-of-range ones, and reach sources wider than the 64-bit packed width,
good-bit seed spaces above 2^24 and a `samples_out` that names the `--out`
path.  Every run passes `--max-enum`, at most 18 bits when sound, so that no
admitted exact walk takes long.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nobfext.bfext import explicit_params
from nobfext.cli import canonical_json, main
from nobfext.codes import preset_code
from nobfext.resilient import Majority
from nobfext.schemas import validate_document
from nobfext.sources import NobfSourceSpec, ParityOfGood, UniformBits

OUT = "out.json"

# fixed input documents; the configs name them by relative path
FILES = {
    "params.json": explicit_params(6, 2, 3, preset_code("identity-2"),
                                   Majority(3)).to_json(),
    "wide_params.json": explicit_params(70, 2, 35, preset_code("repetition-2"),
                                        Majority(35)).to_json(),
    "spec.json": NobfSourceSpec(6, [1], UniformBits(5), ParityOfGood()).to_descriptor(),
    "wide_spec.json": NobfSourceSpec(70, [0], UniformBits(69),
                                     ParityOfGood()).to_descriptor(),
}
SAMPLE_FILES = {  # a header for n = 6 and one for n = 70, each with two lines
    "s.samples": {"count": 2, "format": "nobf-samples", "n": 6, "seed": 0, "stream": 0},
    "wide_s.samples": {"count": 2, "format": "nobf-samples", "n": 70, "seed": 0,
                       "stream": 0},
}

# values that a config field may hold instead of a sound one
JUNK = st.sampled_from([True, 2.5, "3", None, -1, [], {}, float("inf")])


def mostly(usual, rare):
    """`usual` three times in four, else `rare`."""
    return st.sampled_from([usual] * 3 + [rare]).flatmap(lambda strategy: strategy)


@st.composite
def good_dist(draw, n_good):
    kind = draw(mostly(st.sampled_from(["uniform", "exact-twise", "eps-biased"]),
                       st.just("nonsense")))
    d = {"kind": kind, "n_good": draw(mostly(st.just(n_good), st.integers(0, 80)))}
    if kind == "exact-twise":
        d["t"] = draw(st.integers(1, 4))
    if kind == "eps-biased":
        d["epsilon"] = draw(st.sampled_from([0.5, 0.1, 0.01, 1e-6, 0.0]))
    if kind != "uniform" and draw(st.booleans()):
        # seed spaces of 2^(t * field_bits) and 2^(2 * field_bits) seeds reach
        # far above the 2^24 enumeration cap
        d["field_bits"] = draw(st.integers(max(1, (n_good - 1).bit_length()), 21))
    return d


@st.composite
def gen_source(draw):
    n = draw(st.integers(1, 130))
    bad = draw(st.lists(mostly(st.integers(0, n - 1), st.just(n)), unique=True,
                        max_size=4))
    config = {
        "n": n,
        "bad_positions": bad,
        "good_dist": draw(good_dist(n - len(bad))),
        "adversary": draw(st.sampled_from([
            {"kind": "parity-of-good"}, {"kind": "majority-of-good"},
            {"kind": "constant", "pattern": 1}, {"kind": "constant", "pattern": 1 << 9},
            {"kind": "nonsense"}])),
    }
    if draw(st.booleans()):
        config["samples"] = draw(st.integers(0, 50))
    if draw(st.booleans()):
        config["samples_out"] = draw(st.sampled_from(
            [OUT, "./" + OUT, "ABS", "other.samples", "no_dir/x.samples"]))
    return "gen-source", config


def narrow_or_wide(draw):
    """The prefix of a matching params, spec and sample file: mostly both
    narrow (n = 6) or both wide (n = 70)."""
    params = draw(st.sampled_from(["", "wide_"]))
    return params, draw(mostly(st.just(params), st.sampled_from(["", "wide_"])))


@st.composite
def extract(draw):
    params, source = narrow_or_wide(draw)
    config = {"params": draw(mostly(st.just(params + "params.json"),
                                    st.just("missing.json")))}
    kind = draw(st.sampled_from(["inputs", "spec", "samples"]))
    if kind == "inputs":
        width = 70 if params else 6
        digits = -(-width // 4)
        sound = st.integers(0, (1 << width) - 1).map(  # least significant nibble first
            lambda x: format(x, f"0{digits}x")[::-1])
        config["inputs"] = draw(st.lists(mostly(sound, st.text(
            "0123456789abcdefxg +", min_size=digits - 1, max_size=digits + 1)), max_size=4))
    elif kind == "spec":
        config["spec"] = source + "spec.json"
        config["count"] = draw(st.integers(0, 40))
    else:
        config["samples"] = source + "s.samples"
    return "extract", config


@st.composite
def analyze(draw):
    analysis = draw(mostly(st.sampled_from(
        ["influence", "bias", "spectrum", "fixedness", "compare-zeroed"]),
        st.just("nonsense")))
    config = {"analysis": analysis}
    if analysis == "influence":
        # arities above 64 do not fit one packed word
        arity = draw(st.sampled_from([1, 3, 5, 9, 21, 29, 65, 71]))
        config["f"] = {"kind": "majority", "arity": arity}
        if draw(st.booleans()):
            q = config["max_size"] = draw(st.integers(0, 4))
        else:
            q = len(set(draw(st.lists(st.integers(0, arity), max_size=3))))
            config["coalition"] = draw(st.permutations(range(q))) if q < arity else [0]
            if draw(st.booleans()):
                config["mode"] = draw(mostly(st.just("mc"), st.just("nonsense")))
                config["samples"] = draw(st.integers(0, 2000))
        if draw(st.booleans()):
            config["fixing"] = draw(good_dist(arity - q))
    elif analysis in ("bias", "spectrum"):
        # tables of 2^m entries stay small
        arity = 2 * draw(st.integers(0, 5)) + 1
        config["f"] = {"kind": "majority", "arity": arity}
        config["distribution"] = {"kind": "uniform",
                                  "m": draw(mostly(st.just(arity), st.integers(0, 12)))}
    elif analysis in ("fixedness", "compare-zeroed"):
        params, source = narrow_or_wide(draw)
        config["spec"], config["params"] = source + "spec.json", params + "params.json"
        if draw(st.booleans()):
            config["force_mc"] = True
            config["samples"] = draw(st.integers(0, 2000))
    return "analyze", config


@st.composite
def build_code(draw):
    if draw(st.booleans()):
        return "build-code", {"preset": draw(st.sampled_from(
            ["hamming-7-4", "simplex-k3", "repetition-5", "identity-0", "golay-23"]))}
    m = draw(st.integers(1, 8))
    r = draw(st.integers(m, 16))
    return "build-code", {"m": m, "r": r, "target_d": draw(st.integers(1, r - m + 1)),
                          "attempts": draw(st.integers(1, 30))}


def spoil(draw, config):
    """A copy of config with one value, at any depth, replaced by junk."""
    paths = []

    def walk(value, path):
        if path:
            paths.append(path)
        items = value.items() if isinstance(value, dict) else (
            enumerate(value) if isinstance(value, list) else ())
        for key, child in items:
            walk(child, (*path, key))

    walk(config, ())
    *head, last = draw(st.sampled_from(paths))
    config = json.loads(json.dumps(config))
    target = config
    for key in head:
        target = target[key]
    target[last] = draw(JUNK)
    return config


# flags and their sound values, and one unsound value of each
FLAGS = {"--max-enum": (st.integers(1, 18), st.sampled_from([0, 64])),
         "--seed": (st.integers(0, 2 ** 64 - 1), st.sampled_from([-1, 2 ** 70])),
         "--samples": (st.integers(0, 200), st.just(-1)),
         "--workers": (st.integers(1, 3), st.just(0))}


@st.composite
def invocation(draw):
    """(argv, config, whether an earlier --out file exists): a sound
    invocation, or one with a junk config value or an unsound flag."""
    command, config = draw(st.one_of(gen_source(), extract(), analyze(), build_code()))
    flaw = draw(st.sampled_from([None] * 6 + ["config", *FLAGS]))
    if flaw == "config":
        config = spoil(draw, config)
    # --max-enum is always passed, so that no admitted exact walk takes long
    argv = [command, "--config", "cfg.json", "--out", OUT]
    for flag, (sound, unsound) in FLAGS.items():
        if flag == flaw:
            argv += [flag, str(draw(unsound))]
        elif flag == "--max-enum" or draw(st.booleans()):
            argv += [flag, str(draw(sound))]
    return argv, config, draw(st.booleans())


@contextlib.contextmanager
def _inside(path):
    """Run in path (contextlib.chdir needs Python 3.11)."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _listing(path):
    return {name: (path / name).read_bytes() if (path / name).is_file() else None
            for name in os.listdir(path)}


def _argv(command, *flags):
    return [command, "--config", "cfg.json", "--out", OUT, "--max-enum", "18", *flags]


_SOURCE = {"adversary": {"kind": "parity-of-good"}, "bad_positions": [0]}


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(invocation())
# a 100-bit source is described, a 70-bit one cannot be sampled (exit 3)
@example((_argv("gen-source"), {**_SOURCE, "n": 100, "good_dist": {
    "kind": "exact-twise", "n_good": 99, "t": 2, "field_bits": 7}}, False))
@example((_argv("gen-source", "--samples", "5"),
          {**_SOURCE, "n": 70, "good_dist": {"kind": "uniform", "n_good": 69}}, False))
# samples_out names the --out path, which already holds an earlier output
@example((_argv("gen-source", "--samples", "5"), {
    **_SOURCE, "n": 6, "good_dist": {"kind": "uniform", "n_good": 5},
    "samples_out": "./" + OUT}, True))
# seed spaces of 2^28 (uniform fixings) and 2^27 (t = 3 over GF(2^9)) seeds
@example((_argv("analyze"), {"analysis": "influence", "coalition": [0],
                             "f": {"kind": "majority", "arity": 29}}, False))
@example((_argv("analyze"), {"analysis": "influence", "max_size": 2,
                             "f": {"kind": "majority", "arity": 29}, "fixing": {
                                 "kind": "exact-twise", "n_good": 27, "t": 3,
                                 "field_bits": 9}}, False))
# 70-bit inline inputs extract; 70-bit samples do not fit one word (exit 3)
@example((_argv("extract"), {"params": "wide_params.json",
                             "inputs": ["f" * 17 + "3", "0" * 18]}, False))
@example((_argv("extract"), {"params": "wide_params.json",
                             "samples": "wide_s.samples"}, True))
# a uniform table of 2^40 entries is refused before it is allocated
@example((_argv("analyze"), {"analysis": "spectrum",
                             "distribution": {"kind": "uniform", "m": 40}}, False))
# names that must be strings
@example((_argv("build-code"), {"preset": True}, False))
@example((_argv("analyze"), {"analysis": []}, False))
def test_fuzzed_commands_exit_cleanly(case):
    argv, config, old_out = case
    with tempfile.TemporaryDirectory() as tmp, _inside(tmp):
        root = Path(tmp)
        if config.get("samples_out") == "ABS":
            config = {**config, "samples_out": str(root / OUT)}
        for name, doc in FILES.items():
            (root / name).write_text(canonical_json(doc))
        for name, header in SAMPLE_FILES.items():
            digits = -(-header["n"] // 4)
            (root / name).write_text(json.dumps(header) + "\n"
                                     + ("1" * digits + "\n") * 2)
        (root / "cfg.json").write_text(json.dumps(config))
        if old_out:
            (root / OUT).write_text("an earlier output\n")
        before = _listing(root)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        err = err.getvalue()
        after = _listing(root)
    assert code in (0, 2, 3, 4), (argv, config, err)
    assert "Traceback" not in err
    if code == 0:
        assert err == "", (argv, config, err)
    else:
        assert err.endswith("\n") and err.count("\n") == 1, (argv, config, err)
    if code in (2, 3):
        assert after == before, (argv, config, err)
    else:  # a new output document, and no temporary file, beside the sample file
        assert after[OUT] != before.get(OUT)
        validate_document(json.loads(after[OUT]))
        assert set(after) - set(before) - {OUT} <= {OUT + ".samples", "other.samples"}
