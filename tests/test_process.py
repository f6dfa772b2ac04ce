"""The CLI process: what running `nobfext.cli` as a program sets up, what
importing it leaves alone, and the garbage a command leaves with the
cyclic collector off."""

import gc
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

from nobfext.bfext import explicit_params
from nobfext.cli import canonical_json, main
from nobfext.codes import preset_code
from nobfext.prng import CHUNK
from nobfext.resilient import Majority
from nobfext.sources import NobfSourceSpec, ParityOfGood, UniformBits

ROOT = Path(__file__).resolve().parents[1]
BIG = CHUNK + 1000  # draws that span many sampled pieces (of prng.DRAW_CHUNK), two exact chunks


def _python(code, cwd, env_update=None, drop=("OPENBLAS_NUM_THREADS",)):
    """Run `code` in a fresh interpreter on the checkout's src/; its last
    line of output, parsed as JSON."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(env_update or {})
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_bias_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a 2^15-entry dot product is where OpenBLAS splits its sum across
    # threads; the CLI pins one thread, so the default must read as "1"
    probs = np.random.default_rng(25).random(1 << 15)
    cfg = _write(tmp_path / "bias.json", {
        "analysis": "bias", "f": {"kind": "majority", "arity": 15},
        "distribution": {"kind": "table", "probs": (probs / probs.sum()).tolist()}})
    blobs = []
    for tag, threads in [("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})]:
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env.update(threads, PYTHONPATH=str(ROOT / "src"))
        out = tmp_path / f"{tag}.json"
        subprocess.run([sys.executable, "-m", "nobfext.cli", "analyze", "--config", cfg,
                        "--out", str(out)], env=env, check=True)
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


_STATE = """
import gc, json, os
state = lambda: {"gc": gc.isenabled(), "frozen": gc.get_freeze_count() > 0,
                 "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
                 "tasks": len(os.listdir("/proc/self/task"))
                          if os.path.isdir("/proc/self/task") else None}
"""
_ARGV = ["analyze", "--config", "bias.json", "--out", "out.json"]


def test_process_setup_only_when_run_as_main(tmp_path):
    _write(tmp_path / "bias.json", {"analysis": "bias",
                                    "f": {"kind": "majority", "arity": 3}})
    imported = _python(_STATE + f"""
import nobfext.cli
before = state()
rc = nobfext.cli.main({_ARGV!r})
print(json.dumps({{"rc": rc, "before": before, "after": state()}}))
""", tmp_path)
    assert imported["rc"] == 0
    for seen in imported["before"], imported["after"]:
        assert seen["gc"] and not seen["frozen"] and seen["blas"] is None

    run_as_main = _python(_STATE + f"""
import runpy, sys
sys.argv = ["nobfext", *{_ARGV!r}]
try:
    runpy.run_module("nobfext.cli", run_name="__main__")
except SystemExit as exc:
    print(json.dumps({{"rc": exc.code, **state()}}))
""", tmp_path)
    assert run_as_main["rc"] == 0
    assert not run_as_main["gc"] and run_as_main["frozen"]
    assert run_as_main["blas"] == "1"
    assert run_as_main["tasks"] in (1, None)  # no OpenBLAS worker thread

    # the installed script runs the same module; a user's thread count is kept
    script = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert script["nobfext"] == "nobfext:run_cli"
    preset = _python(_STATE + f"""
import sys, nobfext
sys.argv = ["nobfext", *{_ARGV!r}]
try:
    nobfext.run_cli()
except SystemExit as exc:
    print(json.dumps({{"rc": exc.code, **state()}}))
""", tmp_path, {"OPENBLAS_NUM_THREADS": "2"})
    assert preset["rc"] == 0 and not preset["gc"] and preset["blas"] == "2"


def _garbage_after(argv):
    """The unreachable objects gc.collect() finds after cli.main(argv) ran
    with the collector off, as the CLI process runs it."""
    gc.collect()
    gc.disable()
    try:
        assert main([str(a) for a in argv]) == 0
        return gc.collect()
    finally:
        gc.enable()


def _files(tmp_path, good_bits):
    spec = NobfSourceSpec(good_bits + 1, [1], UniformBits(good_bits), ParityOfGood())
    params = explicit_params(good_bits + 1, 2, 3, preset_code("identity-2"), Majority(3))
    (tmp_path / f"spec{good_bits}.json").write_text(canonical_json(spec.to_descriptor()))
    (tmp_path / f"params{good_bits}.json").write_text(canonical_json(params.to_json()))
    return str(tmp_path / f"spec{good_bits}.json"), str(tmp_path / f"params{good_bits}.json")


def _family(name, tmp_path, size):
    """argv of one command of family `name` whose work grows with `size`."""
    spec, params = _files(tmp_path, 5)
    out = ["--out", tmp_path / f"{name}-{size}.json", "--workers", 2]
    if name == "gen-source":
        cfg = _write(tmp_path / "gen.json", json.loads(Path(spec).read_text()))
        return ["gen-source", "--config", cfg, "--samples", size, *out]
    if name == "extract":
        cfg = _write(tmp_path / f"extract-{size}.json",
                     {"params": params, "spec": spec, "count": size})
        return ["extract", "--config", cfg, *out]
    if name.startswith("exact "):  # seed spaces of one and of two walk chunks
        spec, params = _files(tmp_path, 5 if size < CHUNK else 19)
        cfg = _write(tmp_path / f"{name[6:]}-{size}.json",
                     {"analysis": name[6:], "spec": spec, "params": params})
        return ["analyze", "--config", cfg, *out]
    if name.startswith("mc "):
        cfg = _write(tmp_path / f"{name[3:]}.json",
                     {"analysis": name[3:], "spec": spec, "params": params,
                      "force_mc": True})
        return ["analyze", "--config", cfg, "--samples", size, *out]
    if name == "influence":
        cfg = _write(tmp_path / "influence.json",
                     {"analysis": "influence", "f": {"kind": "majority", "arity": 5},
                      "coalition": [0, 1], "mode": "mc"})
        return ["analyze", "--config", cfg, "--samples", size, *out]
    # a search of one attempt, and one of 52 (seed 1)
    target = {"m": 3, "r": 8, "target_d": 3} if size < CHUNK else \
        {"m": 8, "r": 24, "target_d": 7}
    cfg = _write(tmp_path / f"code-{size}.json", target)
    return ["build-code", "--config", cfg, "--seed", 1, *out]


@pytest.mark.parametrize("name", ["gen-source", "extract", "exact fixedness",
                                  "exact compare-zeroed", "mc fixedness",
                                  "mc compare-zeroed", "influence", "build-code"])
def test_no_garbage_grows_with_the_work(tmp_path, name):
    # the CLI process runs without the cyclic collector: a command's
    # unreachable cycles must not grow with its sample count or chunks
    _garbage_after(_family(name, tmp_path, 100))  # first-use imports and caches
    assert _garbage_after(_family(name, tmp_path, 1000)) == \
        _garbage_after(_family(name, tmp_path, BIG))
