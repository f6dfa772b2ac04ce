"""Self-tests of the benchmark: quick mode end to end, the tracer, and the
agreement between BENCHMARK.json and the code.  No timing bounds.

Run from the root of the checkout:  python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _quick(trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--quick",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    return proc, lines


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in tracing.LAYER_METRICS.items()}


def test_quick_end_to_end_runs_clean():
    proc, lines = _quick(0)
    assert proc.returncode == 0, proc.stderr
    per_workload, final = lines[:-1], lines[-1]
    assert len(per_workload) == len(run.WORKLOADS)
    for res in per_workload:
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert set(res["metrics"]) == set(run.END_TO_END)
        assert all(m["value"] > 0 for m in res["metrics"].values())
    assert final["correct"]


def test_quick_traced_run_has_every_layer_metric_and_exact_counts():
    proc, lines = _quick(1)
    assert proc.returncode == 0, proc.stderr
    by_name = dict(zip(run.WORKLOADS, lines[:-1]))
    for res in by_name.values():
        assert res["correct"], res
        assert set(res["metrics"]) == set(tracing.LAYER_METRICS)
    exact = by_name["exact-oracles"]["metrics"]
    assert exact["bfext.scan.evals_per_good"]["value"] == 8      # 4 blocks x 2^1
    assert exact["resilient.scan.evals_per_fixing"]["value"] == 8  # 2^3 per fixing
    assert exact["bfext.enum.support_frac"]["value"] == 1 / 16   # 2^n_good of 2^n
    mc = by_name["mc-estimates"]["metrics"]
    assert mc["bfext.scan.evals_per_good"]["value"] == 14         # 2^3 + 2^1 + 2^2
    stream = by_name["extract-stream"]["metrics"]
    samples = workloads.QUICK["extract-stream"]["samples"]
    assert stream["bfext.extract.calls"]["value"] == samples
    assert stream["resilient.eval.calls"]["value"] == 7 * samples


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "extract-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not any(l.startswith("{") for l in proc.stdout.splitlines())


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.02)

    wrapped = tracer._wrap(leaf, "leaf", False, None)
    with tracer.span("outer"):
        time.sleep(0.02)
        wrapped()
        wrapped()
    self_s, calls, _ = tracer.totals()
    assert calls == {"outer": 1, "leaf": 2}
    assert 0.015 < self_s["outer"] < 0.035
    assert self_s["leaf"] >= 0.04
    assert [s["name"] for s in tracer.spans()] == ["outer"]


def test_union_length_merges_overlaps():
    assert tracing._union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert tracing._union_length([]) == 0
