"""Acceptance gate: ten numbered criteria, one printed line each.

Every criterion prints "[criterion N] PASS/FAIL - ..." on the real stdout
(visible under pytest's capture) and then asserts.  Criteria 5 and 7
share one exactly-enumerable fixture corpus built once per module.
"""

import functools
import itertools
import json
import operator

import numpy as np
import pytest
from oracles import xor_distance_brute

from nobfext.bfext import (compare_zeroed, explicit_params,
                           fixedness_probability, output_distribution,
                           worst_case_adversary)
from nobfext.cli import main as cli_main
from nobfext.codes import preset_code
from nobfext.resilient import (Majority, Tribes, bias_under, influence_exact,
                               influence_mc)
from nobfext.sources import (ConstantAdversary, Distribution, ExactTwise,
                             ExplicitTable, NobfSourceSpec, ParityOfGood,
                             UniformBits, verify_twise)
from nobfext.stats import (sd_to_uniform_empirical, statistical_distance,
                           vazirani_check, xor_bias_product)

TOL = 1e-12


def _report(capsys, num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared fixture corpus: every exactly-enumerable spec the coupling
# criterion ranges over, with both sides of the bound and the exact
# output distribution


GRID = [(2, 3), (2, 5), (4, 3), (4, 5)]  # (ell, block_len); n = ell * block_len
WORST_SEARCH_N_CAP = 12                  # ascent search stays cheap below this


def _fixture_specs():
    for ell, bl in GRID:
        n = ell * bl
        for fname, f in [("majority", Majority(bl)), ("tribes", Tribes(1, bl))]:
            for code_name in [f"identity-{ell}", f"repetition-{ell}"]:
                params = explicit_params(n, ell, bl, preset_code(code_name), f)
                for q, bad in [(0, []), (1, [1]), (2, [1, bl + 2])]:
                    advs = [("constant", ConstantAdversary((1 << q) - 1))]
                    if q >= 1:
                        advs.append(("parity-of-good", ParityOfGood()))
                        if n <= WORST_SEARCH_N_CAP:
                            advs.append(("brute-force-worst", None))
                    for adv_name, adv in advs:
                        yield (f"n={n} ell={ell} f={fname} code={code_name} "
                               f"q={q} adv={adv_name}"), n, bad, params, adv


@pytest.fixture(scope="module")
def coupling_corpus():
    records = []
    for label, n, bad, params, adv in _fixture_specs():
        if adv is None:
            probe = NobfSourceSpec(n, bad, UniformBits(n - len(bad)))
            adv = worst_case_adversary(probe, params).adversary
        spec = NobfSourceSpec(n, bad, UniformBits(n - len(bad)), adv)
        rep = compare_zeroed(spec, params)
        fx = fixedness_probability(spec, params)
        assert rep.exact and fx.is_exact
        records.append({
            "label": label,
            "sd": rep.sd.value,
            "undetermined": 1.0 - fx.value,
            "dist": output_distribution(spec, params),
        })
    return records


# ---------------------------------------------------------------------------


def test_criterion_01_preset_codes(capsys):
    expected = {"identity-3": 1, "repetition-5": 5, "hamming-7-4": 3,
                "simplex-k3": 4}
    ok = True
    for name, d in expected.items():
        code = preset_code(name)
        ok &= code.verified_d == d
        for size in range(1, code.m + 1):
            for members in itertools.combinations(range(code.m), size):
                cw = functools.reduce(operator.xor, (code.rows[i] for i in members))
                w = cw.bit_count()
                ok &= d <= w <= code.r
    _report(capsys, 1, ok, "preset distances 1/5/3/4; all row-combination weights in [d, r]")


def test_criterion_02_twise_verification(capsys):
    ok = True
    for n, t in [(8, 2), (8, 3), (12, 2), (16, 2)]:
        ok &= verify_twise(ExactTwise(n, t), n, t).ok
    even = ExplicitTable([0.25 if bin(i).count("1") % 2 == 0 else 0.0
                          for i in range(8)])
    ok &= verify_twise(even, 3, 2).ok
    rep3 = verify_twise(even, 3, 3)
    ok &= (not rep3.ok) and abs(rep3.worst_distance - 0.5) <= TOL
    _report(capsys, 2, ok, "exact generator passes (8,2)(8,3)(12,2)(16,2); "
                   "even-parity table: t=2 ok, t=3 fails at distance 1/2")


def test_criterion_03_influence_oracle(capsys):
    ok = abs(influence_exact(Majority(3), [1], UniformBits(2)) - 0.5) <= TOL
    checked = 0
    for f in [Majority(3), Majority(5), Tribes(2, 2)]:
        n = f.arity
        for size in range(n):
            for base in itertools.combinations(range(n), size):
                v0 = influence_exact(f, base, UniformBits(n - size))
                for extra in set(range(n)) - set(base):
                    grown = sorted(base + (extra,))
                    v1 = influence_exact(f, grown, UniformBits(n - size - 1))
                    ok &= v1 >= v0 - TOL
                    checked += 1
    _report(capsys, 3, ok, f"I(majority-3, {{x1}}) = 1/2; monotone in Q over "
                   f"{checked} exhaustive coalition extensions")


def test_criterion_04_bias_values(capsys):
    b_maj = bias_under(Majority(3), Distribution.uniform(3))
    b_tribes = bias_under(Tribes(2, 2), Distribution.uniform(4))
    ok = abs(b_maj) <= TOL and abs(b_tribes - 1 / 16) <= TOL
    _report(capsys, 4, ok, f"bias(majority-3) = {b_maj}; bias(tribes(2,2)) = {b_tribes}")


def test_criterion_05_vazirani_bound(capsys, coupling_corpus):
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(10 ** 4):
        m = int(rng.integers(1, 9))
        w = rng.exponential(size=1 << m)
        ok &= vazirani_check(Distribution.exact(m, w / w.sum()), tol=TOL).holds
    for rec in coupling_corpus:
        ok &= vazirani_check(rec["dist"], tol=TOL).holds
    _report(capsys, 5, ok, f"holds on 10^4 random tables (m <= 8) and "
                   f"{len(coupling_corpus)} pipeline output distributions")


def test_criterion_06_xor_product_identity(capsys):
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10 ** 3):
        t = int(rng.integers(1, 7))
        ds = rng.uniform(0.0, 0.5, size=t).tolist()
        got = xor_bias_product(ds).distance
        want = xor_distance_brute(ds)
        worst = max(worst, abs(got - want))
    ok = worst <= TOL
    _report(capsys, 6, ok, f"10^3 random bias vectors (t <= 6); worst gap {worst:.2e}")


def test_criterion_07_coupling_bound(capsys, coupling_corpus):
    ok = True
    worst_slack = -1.0
    for rec in coupling_corpus:
        gap = rec["undetermined"] - rec["sd"]
        ok &= gap >= -TOL
        worst_slack = max(worst_slack, -gap)
        assert gap >= -TOL, f"bound violated on {rec['label']}: {rec}"
    _report(capsys, 7, ok, f"SD(Z, Z') <= Pr[some block undetermined] on "
                   f"{len(coupling_corpus)} exact specs")


def test_criterion_08_distance_improves_extraction(capsys):
    cases = []
    for ell, bl in GRID:
        for f in [Majority(bl), Tribes(1, bl)]:
            cases.append((ell * bl, ell, bl, preset_code(f"repetition-{ell}"), f))
    for f in [Majority(3), Tribes(1, 3)]:
        cases.append((21, 7, 3, preset_code("simplex-k3"), f))
    ok = True
    details = []
    for n, ell, bl, code, f in cases:
        params = explicit_params(n, ell, bl, code, f)
        spec = NobfSourceSpec(n, [], UniformBits(n))
        sd = statistical_distance(output_distribution(spec, params),
                                  Distribution.uniform(params.m))
        per_bit = 2.0 * bias_under(f, Distribution.uniform(bl))
        bound = per_bit ** code.verified_d * 2 ** (params.m - 1)
        ok &= sd <= bound + TOL
        details.append(sd <= bound + TOL)
    _report(capsys, 8, ok, f"SD(Z, U_m) <= (2 bias)^d 2^(m-1) on {len(cases)} "
                   f"repetition/simplex instances")


def test_criterion_09_mc_interval_coverage(capsys):
    hits_inf = 0
    hits_sd = 0
    table = [0.4, 0.3, 0.2, 0.1]
    exact_sd = 0.5 * sum(abs(p - 0.25) for p in table)
    sampler = ExplicitTable(table)
    for seed in range(100):
        est = influence_mc(Majority(3), [0], UniformBits(2),
                           samples=10 ** 4, seed=seed)
        hits_inf += est.contains(0.5)
        draws = sampler.sample_batch(seed, 0, 0, 2000)
        est2 = sd_to_uniform_empirical(draws, 2)
        hits_sd += est2.contains(exact_sd)
    ok = hits_inf >= 99 and hits_sd >= 99
    _report(capsys, 9, ok, f"coverage over 100 frozen seeds: influence {hits_inf}/100, "
                   f"empirical SD {hits_sd}/100")


def test_criterion_10_cli_reproducibility(capsys, tmp_path):
    src_cfg = tmp_path / "src.json"
    src_cfg.write_text(json.dumps({
        "n": 6, "bad_positions": [1],
        "good_dist": {"kind": "uniform", "n_good": 5},
        "adversary": {"kind": "parity-of-good"},
        "samples": 200,
    }))
    spec_path = tmp_path / "spec.json"
    assert cli_main(["gen-source", "--config", str(src_cfg), "--out",
                     str(spec_path), "--seed", "3"]) == 0
    params = explicit_params(6, 2, 3, preset_code("identity-2"), Majority(3))
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params.to_json()))

    ext_cfg = tmp_path / "ext.json"
    ext_cfg.write_text(json.dumps({"params": str(params_path),
                                   "spec": str(spec_path), "count": 100}))
    inf_cfg = tmp_path / "inf.json"
    inf_cfg.write_text(json.dumps({
        "analysis": "influence", "f": {"kind": "majority", "arity": 3},
        "coalition": [0], "mode": "mc", "samples": 10007,
    }))
    cz_cfg = tmp_path / "cz.json"
    cz_cfg.write_text(json.dumps({
        "analysis": "compare-zeroed", "spec": str(spec_path),
        "params": str(params_path), "force_mc": True, "samples": 4000,
    }))
    code_cfg = tmp_path / "code.json"
    code_cfg.write_text(json.dumps({"m": 3, "r": 8, "target_d": 3}))

    jobs = [
        ("gen-source", src_cfg, True),
        ("extract", ext_cfg, False),
        ("analyze", inf_cfg, False),
        ("analyze", cz_cfg, False),
        ("build-code", code_cfg, False),
    ]
    ok = True
    for i, (command, cfg, has_samples) in enumerate(jobs):
        blobs = []
        for run, workers in [(0, "1"), (1, "1"), (2, "4")]:
            out = tmp_path / f"job{i}-run{run}.json"
            rc = cli_main([command, "--config", str(cfg), "--out", str(out),
                           "--seed", "11", "--workers", workers])
            ok &= rc == 0
            blob = out.read_bytes()
            if has_samples:
                blob += (tmp_path / f"job{i}-run{run}.json.samples").read_bytes()
            blobs.append(blob)
        ok &= blobs[0] == blobs[1] == blobs[2]
    _report(capsys, 10, ok, "all four commands byte-identical across 2 runs "
                    "and workers {1, 4}")
