#!/usr/bin/env python3
"""Benchmark for the nobfext CLI: end-to-end command chains and a traced
per-layer run.

Run from the root of a checkout:

    python3 bench/run.py --workload extract-stream --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --quick          # every workload once, tiny

Workloads (see ``workloads.py``): ``extract-stream``, ``exact-oracles`` and
``mc-estimates``.  Each pass runs the fixed-cost ``setup`` command and then
the workload's command chain, one ``python -m nobfext.cli`` subprocess after
another, with ``PYTHONPATH=<checkout>/src`` and ``NOBF_WORK_CAP`` unset.
Passes repeat until ``--seconds`` is used up (at least three); every metric
is a median over passes.  Peak RSS is each child's own ``ru_maxrss`` from
``os.wait4``.

Times are scaled to a reference host speed: a fixed CPU kernel (``SpeedProbe``)
runs between commands, and each pass's times are multiplied by
``REFERENCE_PROBE_S`` over the pass's median probe time.  On a shared host
whose speed drifts, this keeps the same work reading the same seconds; raw
wall times and probe times are kept in the record and the report.

With ``--trace 1`` the same commands run in-process through
``nobfext.cli.main``, alternating an untraced pass with a traced one (see
``tracing.py``); the per-layer metrics are medians over the traced passes,
and ``trace.overhead_frac`` compares the two kinds of pass.

Before timing, an untraced warm-up pass runs the workload in-process at the
quick size, so ``.pyc`` compilation and page-cache fill do not land in the
first timed pass.  Every output is checked: exit code, schema, a
workload-specific check on the first pass and, on later passes, a sha256
equal to the first pass.  The run directory ``bench/out/<workload>/`` keeps
the outputs, a ``record.json`` with the environment, inputs, per-pass
timings and output hashes, and, for traced runs, ``spans.jsonl``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("extract-stream", "exact-oracles", "mc-estimates")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
MIN_PASSES = 3
MIN_TRACE_PAIRS = 2
IMPORTTIME_RUNS = 3
DEADLINE_S = 170.0      # a run must end well inside 180 s
REFERENCE_PROBE_S = 0.05  # timings are scaled to a host where the probe takes this


class SpeedProbe:
    """Seconds a fixed CPU kernel takes right now: a pure-Python loop, like
    the bulk of CLI start-up, and a numpy pass over an 8 MiB array, like the
    bulk of the kernels.  About 50 ms on one 2.1 GHz core."""

    def __init__(self):
        self._data = np.arange(1 << 20, dtype=np.uint64)

    def __call__(self) -> float:
        data = self._data
        t0 = time.perf_counter()
        acc = 0
        for i in range(250_000):
            acc += i * i & 7
        for _ in range(8):
            acc += int(np.bitwise_count(data ^ (data >> np.uint64(3)))[-1])
        return time.perf_counter() - t0


def _median(values):
    return statistics.median(values) if values else 0.0


def tail(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}, too few for a tail percentile"
    k = n - 11
    return f"p{100 * (k + 1) // n}={sorted(values)[k]:.4f} (n={n})"


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


@contextlib.contextmanager
def cwd(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


class Run:
    """One benchmark run of one workload: commands, checks and records."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, quick: bool,
                 nb):
        self.started = time.perf_counter()
        self.name, self.seed, self.seconds = name, seed, seconds
        self.trace, self.quick = trace, quick
        self.nb = nb
        self.workdir = BENCH_DIR / "out" / ("quick-" + name if quick else name)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items() if k != "NOBF_WORK_CAP"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.attempted = 0
        self.failures: list[str] = []
        self.first_sha: dict[str, str] = {}
        self.probe = SpeedProbe()
        self.workload = workloads.build(name, seed, quick, nb)
        self._write_inputs(self.workload, self.workdir)

    # -- bookkeeping ------------------------------------------------------

    def _outcome(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{what}: {error}")

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    @staticmethod
    def _write_inputs(wl, workdir: Path) -> None:
        (workdir / "equiv").mkdir(exist_ok=True)
        files = dict(wl.files, **{"setup.json": workloads.SETUP_CONFIG})
        for rel, doc in files.items():
            (workdir / rel).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")

    # -- running commands -------------------------------------------------

    def run_subprocess(self, cmd) -> dict:
        """One CLI invocation in a child process: wall time, own peak RSS."""
        argv = [sys.executable, "-m", "nobfext.cli", *cmd.argv]
        with open(self.workdir / f"{cmd.key}.log", "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(max(1.0, self.remaining()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "rc": proc.returncode}

    def run_inprocess(self, argv, workdir: Path) -> int:
        with cwd(workdir):
            try:
                return self.nb.cli.main(list(argv))
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed command, not a failed benchmark
                traceback.print_exc(file=sys.stderr)
                return 1

    def verify(self, cmd, rc: int, first: bool) -> dict:
        """Exit code and output hash of every run; schema and content checks
        on the first pass, which later passes must reproduce byte for byte."""
        workdir = self.workdir
        label = f"{cmd.key} ({' '.join(cmd.argv[:1])})"
        hashes = {}
        error = None
        if rc != 0:
            error = f"exit code {rc}"
        else:
            for rel in (cmd.out, *cmd.extra_outputs):
                path = workdir / rel
                hashes[rel] = sha256(path) if path.is_file() else "missing"
                if hashes[rel] == "missing":
                    error = f"{rel} was not written"
                elif not first and hashes[rel] != self.first_sha.get(rel):
                    error = f"{rel} differs from the first pass"
        self._outcome(label, error)
        if first and error is None:
            self.first_sha.update(hashes)
            doc = json.loads((workdir / cmd.out).read_text())
            self._check(f"{cmd.key} schema", self.nb.schemas.validate_document, doc)
            if cmd.check is not None:
                self._check(f"{cmd.key} output", cmd.check, workdir, doc)
        return hashes

    def _check(self, what, fn, *args) -> None:
        try:
            fn(*args)
        except workloads.CheckFailed as exc:
            self._outcome(what, str(exc))
        except Exception as exc:  # a check that crashes counts as a failed check
            self._outcome(what, f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        else:
            self._outcome(what, None)

    # -- untimed preparation ----------------------------------------------

    def warm_up(self) -> None:
        """Untimed pass at the quick size, in-process, in its own directory."""
        warm = workloads.build(self.name, self.seed, True, self.nb)
        workdir = self.workdir / "warmup"
        workdir.mkdir()
        self._write_inputs(warm, workdir)
        for cmd in [workloads.SETUP, *warm.commands]:
            rc = self.run_inprocess(cmd.argv, workdir)
            self._outcome(f"warm-up {cmd.key}", None if rc == 0 else f"exit code {rc}")

    def check_equivalence(self) -> None:
        """Outputs must not depend on --workers (in-process, reduced count)."""
        for argv_a, argv_b, label in self.workload.equivalence:
            rcs = [self.run_inprocess(a, self.workdir) for a in (argv_a, argv_b)]
            out_a = self.workdir / argv_a[argv_a.index("--out") + 1]
            out_b = self.workdir / argv_b[argv_b.index("--out") + 1]
            same = rcs == [0, 0] and out_a.read_bytes() == out_b.read_bytes()
            self._outcome(f"{label} --workers 1 vs 2",
                          None if same else f"exit codes {rcs} or outputs differ")

    # -- timed passes -----------------------------------------------------

    def _keep_going(self, passes: int, minimum: int, t0: float, last: float) -> bool:
        if self.quick:
            return False
        if self.remaining() < 2 * last + 5:
            return False
        elapsed = time.perf_counter() - t0
        return passes < minimum or elapsed + last / 2 < self.seconds

    def measure(self) -> tuple[dict, list]:
        """Subprocess passes until --seconds is used up.

        A speed probe runs before the first command of a pass and after each
        command; the pass's times are scaled by REFERENCE_PROBE_S over the
        median probe time, so that a host whose speed drifts during a run
        (a shared 2-core VM was seen to drift by 60% within a minute)
        reports the same seconds for the same work.  The raw times stay in
        the record.
        """
        passes = []
        t0 = time.perf_counter()
        while True:
            first = not passes
            record = {}
            probes = [self.probe()]
            pass_t0 = time.perf_counter()
            for cmd in [workloads.SETUP, *self.workload.commands]:
                res = self.run_subprocess(cmd)
                probes.append(self.probe())
                res["sha256"] = self.verify(cmd, res["rc"], first)
                record[cmd.key] = res
            scale = REFERENCE_PROBE_S / statistics.median(probes)
            for res in record.values():
                res["scaled_s"] = res["wall_s"] * scale
            passes.append({"commands": record, "probes_s": probes})
            if not self._keep_going(len(passes), MIN_PASSES, t0,
                                    time.perf_counter() - pass_t0):
                break
        return self.summarise(passes), passes

    def summarise(self, passes) -> dict:
        chain = [c.key for c in self.workload.commands]
        sampled = [c.key for c in self.workload.commands if c.samples]
        cmds = [p["commands"] for p in passes]
        series = {
            "setup_s": [p["setup"]["scaled_s"] for p in cmds],
            "wall_s": [sum(p[k]["scaled_s"] for k in chain) for p in cmds],
            "peak_rss_mb": [max(p[k]["peak_rss_mb"] for k in chain) for p in cmds],
        }
        for key in chain:
            series[f"{key}_s"] = [p[key]["scaled_s"] for p in cmds]
        if sampled:
            series["samples_per_s"] = [
                self.workload.samples / sum(p[k]["scaled_s"] for k in sampled)
                for p in cmds]
        series["raw_setup_s"] = [p["setup"]["wall_s"] for p in cmds]
        series["raw_wall_s"] = [sum(p[k]["wall_s"] for k in chain) for p in cmds]
        series["probe_s"] = [statistics.median(p["probes_s"]) for p in passes]
        return series

    def measure_traced(self) -> tuple[dict, list]:
        """In-process pass pairs, untraced then traced, until --seconds is used
        up.  Times are scaled by the speed probe, as in `measure`."""
        untraced, traced, layer_runs, spans = [], [], [], []
        tables = []
        t0 = time.perf_counter()
        while True:
            first = not traced
            for traced_pass in (False, True):
                tracer = tracing.Tracer() if traced_pass else None
                if tracer is not None:
                    tracer.install()
                rcs = {}
                before = self.probe()
                pass_t0 = time.perf_counter()
                try:
                    for cmd in [workloads.SETUP, *self.workload.commands]:
                        if tracer is None:
                            rcs[cmd.key] = self.run_inprocess(cmd.argv, self.workdir)
                        else:
                            with tracer.span("cli.command"):
                                rcs[cmd.key] = self.run_inprocess(cmd.argv, self.workdir)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                wall = time.perf_counter() - pass_t0
                scale = REFERENCE_PROBE_S / statistics.median([before, self.probe()])
                for cmd in [workloads.SETUP, *self.workload.commands]:
                    self.verify(cmd, rcs[cmd.key], first and not traced_pass)
                if tracer is None:
                    untraced.append(wall * scale)
                    continue
                traced.append(wall * scale)
                layer_runs.append({
                    k: v * scale if tracing.LAYER_METRICS[k][0] == "s" else v
                    for k, v in tracing.layer_metrics(tracer).items()})
                tables.append(tracing.layer_table(tracer))
                spans.extend(dict(s, trace_pass=len(traced)) for s in tracer.spans())
            if not self._keep_going(len(traced), MIN_TRACE_PAIRS, t0,
                                    untraced[-1] + traced[-1]):
                break
        with open(self.workdir / "spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
        metrics = {}
        for key in layer_runs[0]:
            values = [run[key] for run in layer_runs]
            if key in tracing.TIMED:
                metrics[key] = _median(values)
            else:
                metrics[key] = values[0]
                self._outcome(f"trace count {key} repeats",
                              None if len(set(values)) == 1 else f"values {values}")
        metrics["trace.overhead_frac"] = _median(traced) / _median(untraced) - 1.0
        metrics.update(self.import_times())
        return metrics, {"untraced_s": untraced, "traced_s": traced,
                         "layer_table": tables[-1]}

    def import_times(self) -> dict:
        """cli.import_s and cli.import_scipy_stats_s from -X importtime,
        scaled like every other time."""
        totals, scipy_stats = [], []
        for _ in range(1 if self.quick else IMPORTTIME_RUNS):
            before = self.probe()
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import nobfext.cli"],
                cwd=self.workdir, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.remaining()))
            self._outcome("import nobfext.cli", None if proc.returncode == 0
                          else f"exit code {proc.returncode}")
            scale = REFERENCE_PROBE_S / statistics.median([before, self.probe()])
            cumulative = {}
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[1].strip().isdigit():
                    cumulative[parts[2].strip()] = int(parts[1]) * 1e-6 * scale
            totals.append(cumulative.get("nobfext.cli", 0.0))
            scipy_stats.append(cumulative.get("scipy.stats", 0.0))
        return {"cli.import_s": _median(totals),
                "cli.import_scipy_stats_s": _median(scipy_stats)}

    # -- the run ----------------------------------------------------------

    def environment(self) -> dict:
        probe = subprocess.run(
            [sys.executable, "-c",
             "import importlib.util; print(importlib.util.find_spec('nobfext').origin)"],
            cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=60)
        child_file = probe.stdout.strip()
        under_test = str(ROOT / "src" / "nobfext")
        for label, path in (("child", child_file), ("harness", self.nb.__file__)):
            ok = os.path.realpath(path).startswith(os.path.realpath(under_test))
            self._outcome(f"{label} imports nobfext from src/",
                          None if ok else f"imported from {path!r}")
        versions = {}
        for dist in ("numpy", "scipy", "jsonschema"):
            try:
                versions[dist] = importlib.metadata.version(dist)
            except importlib.metadata.PackageNotFoundError:
                versions[dist] = None
        return {
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "versions": versions,
            "git_commit": git_commit(ROOT),
            "nobfext_file_child": child_file,
            "nobfext_file_harness": self.nb.__file__,
        }

    def execute(self) -> dict:
        env_record = self.environment()
        self.warm_up()
        self.check_equivalence()
        if self.trace:
            metrics, detail = self.measure_traced()
            series = {}
        else:
            series, detail = self.measure()
            metrics = {k: _median(v) for k, v in series.items()}
        units = ({k: tracing.LAYER_METRICS[k][0] for k in metrics} if self.trace
                 else {k: END_TO_END.get(k, "1/s" if k == "samples_per_s" else "s")
                       for k in metrics})
        record = {
            "workload": self.name, "why": self.workload.why, "seed": self.seed,
            "seconds": self.seconds, "trace": self.trace, "quick": self.quick,
            "environment": env_record, "inputs": self.workload.descriptors,
            "metrics": metrics, "units": units, "series": series, "detail": detail,
            "attempted": self.attempted, "failures": self.failures,
            "output_sha256": self.first_sha,
        }
        (self.workdir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
        return record


def report(record: dict) -> dict:
    """Print the human-readable report and return the final JSON result."""
    name, trace = record["workload"], record["trace"]
    metrics, units, series = record["metrics"], record["units"], record["series"]
    failed = len(record["failures"])
    print(f"== {name}  seed {record['seed']}  trace {int(trace)}  "
          f"({record['why']})")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if trace:
        for key, value in metrics.items():
            print(f"  {key:34s} {value:14.6g} {units[key]:6s} "
                  f"-> {tracing.LAYER_METRICS[key][2]}")
        print("  layer self time, last traced pass:")
        for row in record["detail"]["layer_table"]:
            print(f"    {row['layer']:28s} {row['self_s']:10.4f} s  {row['calls']:9d} calls")
        wanted = tracing.LAYER_METRICS
    else:
        for key, value in metrics.items():
            print(f"  {key:18s} {value:12.4f} {units[key]:4s} median; {tail(series[key])}")
        print(f"  {'failed_frac':18s} {failed / max(1, record['attempted']):12.4f}"
              f"      ({failed} of {record['attempted']} commands and checks)")
        wanted = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one pass at tiny size; no timing is meaningful")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "nobfext" / "cli.py").is_file():
        print(f"error: {src / 'nobfext'} not found; run from a nobfext checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("NOBF_WORK_CAP", None)
    sys.path.insert(0, str(src))
    import nobfext
    import nobfext.cli  # noqa: F401  (the package attributes the runs use)
    import nobfext.schemas  # noqa: F401

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace), args.quick, nobfext)
        results.append(report(run.execute()))
        if len(names) > 1:
            print(json.dumps(results[-1], sort_keys=True))
    if len(names) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}/{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
