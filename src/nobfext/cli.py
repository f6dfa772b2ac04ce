"""Batch command-line front end.

Four subcommands, all driven by a JSON config file and a master seed:

  gen-source   build a source spec file, optionally with a sample batch
  extract      run the pipeline over inputs, emit per-sample traces
  analyze      bias / influence / spectrum / vazirani / fixedness /
               compare-zeroed reports
  build-code   preset or searched generator matrices

Every output document embeds the config and effective seed and is
formatted canonically (sorted keys, two-space indent, trailing newline).
`report_chunks` writes an extraction report's traces, which differ only in
fixed-width hex fields, as one byte matrix with `canonical_json`'s bytes.
Input documents are checked against `schemas` where they are read; outputs
are checked by the tests and the benchmark.  Outputs are byte-identical for
a fixed seed regardless of --workers: all sampling is addressed by (seed,
stream, counter), so splitting a counter range across threads cannot
change what is drawn.

Exit codes: 0 success, 2 validation error (a seed outside 0..2^64-1 is
one), 3 work-cap exceeded, 4 search budget exhausted.

Run as a program (`python -m nobfext.cli`, or the `nobfext` script, which
runs this module as `__main__`), the module sets up its process before
numpy loads: OpenBLAS gets one thread unless OPENBLAS_NUM_THREADS is set
already, the cyclic garbage collector is off, and the heap is frozen
before exit.  Importing the module or calling `main` changes neither.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import TYPE_CHECKING

if __name__ == "__main__":  # the CLI is the whole process: set it up before numpy loads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # no kernel calls BLAS
    gc.disable()  # no command makes cyclic garbage that grows with its work

import numpy as np

from .bitops import words_from_hex
from .errors import (DEFAULT_WORK_CAP, NobfError, SearchBudgetExceeded, ValidationError,
                     WorkCapExceeded, parse_errors)
from .prng import check_word, run_chunked
from .schemas import integer, parse_json, read_text, staged_outputs, validate_document

if TYPE_CHECKING:  # the kernels load in the commands that run them
    from .bfext import BfextParams
    from .sources import Distribution, NobfSourceSpec

DEFAULT_SEED = 0


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


_TRACES = '\n  "traces": []'  # the one line at indent 2 that holds this key


def report_chunks(doc: dict, params: BfextParams,
                  columns: list[np.ndarray]) -> tuple:
    """The bytes of `canonical_json` of the extraction report doc, whose
    empty traces list stands for the traces whose hex fields are `columns`
    (`trace_columns`), as a head, a body and a tail to be written in turn.

    The traces differ only in their fixed-width hex fields, so one
    placeholder trace rendered by `canonical_json` and indented to the
    list's depth is the template row of an (N, row_len) byte matrix, and
    each column is copied into it at its field's offset.  The body is that
    matrix's own buffer, so the report is never held twice.  It goes in at
    the top-level traces line: run.config, which sorts before it, is user
    content and may hold a traces key of its own, but only at a deeper
    indent."""
    from .bfext import trace_document
    text = canonical_json(doc)
    count = len(columns[-1])
    if not count:
        return (text.encode("ascii"),)
    head, _, tail = text.partition(_TRACES)
    trace = canonical_json(trace_document(params.block_len, params.ell, params.r,
                                          params.m, ["#" * c.shape[1] for c in columns]))
    row = ("    " + trace[:-1].replace("\n", "\n    ") + ",\n").encode("ascii")
    rows = np.tile(np.frombuffer(row, dtype=np.uint8), (count, 1))
    start = 0
    for chars in columns:
        digits = chars.shape[1]
        start = row.index(b'"' + b"#" * digits + b'"', start) + 1
        rows[:, start:start + digits] = chars
        start += digits
    return (f'{head}\n  "traces": [\n'.encode("ascii"),
            rows.reshape(-1)[:-2].data,  # no comma after the last trace
            f"\n  ]{tail}".encode("ascii"))


def _canonical_bytes(obj: dict) -> tuple:
    return (canonical_json(obj).encode("ascii"),)


def write_document(path: str, obj: dict, render=_canonical_bytes) -> None:
    """Write the byte chunks of render(obj), `canonical_json` unless an
    extraction report brings its own (`report_chunks`), to a binary file
    under a temporary name that is renamed onto path (see
    `staged_outputs`)."""
    with staged_outputs() as stage, open(stage(path), "wb") as fh:
        for chunk in render(obj):
            fh.write(chunk)


def load_json(path: str) -> dict:
    obj = parse_json(read_text(path), f"JSON in {path}")
    if not isinstance(obj, dict):
        raise ValidationError(f"{path} does not hold a JSON object")
    return obj


def _cfg(config: dict, key: str, default=None, required: bool = False,
         cast=None):
    """config[key], converted by `cast` when given; a value the conversion
    rejects is a ValidationError."""
    if key not in config:
        if required:
            raise ValidationError(f"config is missing required key {key!r}")
        return default
    if cast is None:
        return config[key]
    try:
        return cast(config[key])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"config key {key!r}: {exc}") from exc


def _sample_count(config: dict, samples: int | None, default=None):
    """The --samples flag (checked in `main`), else the config's `samples`
    key (null counts as absent)."""
    if samples is not None:
        return samples
    if config.get("samples") is None:
        return default
    count = _cfg(config, "samples", cast=integer)
    if count < 0:
        raise ValidationError(f"config key 'samples' must be >= 0, got {count}")
    return count


def _draw(spec: NobfSourceSpec, seed: int, count: int,
          workers: int) -> np.ndarray:
    """count packed samples of spec (stream 0, counters 0..count-1)."""
    from .sources import sample_nobf_batch
    if count < 0:
        raise ValidationError("sample count must be nonnegative")
    return np.concatenate(list(run_chunked(
        lambda s, c: sample_nobf_batch(spec, seed, c, stream=0, start=s),
        count, workers)))


def _run_block(command: str, seed: int, config: dict,
               samples: int | None = None) -> dict:
    block = {"command": command, "seed": int(seed), "config": config}
    if samples is not None:
        block["samples"] = int(samples)
    return block


def _load_document(config: dict, key: str) -> dict:
    """The document at the path config[key], schema-checked."""
    obj = load_json(_cfg(config, key, required=True))
    validate_document(obj)
    return obj


@parse_errors("distribution")
def _distribution_from_config(d: dict, default_m: int | None = None) -> Distribution:
    from .sources import Distribution
    kind = d.get("kind", "uniform")
    if kind == "uniform":
        m = d.get("m", default_m)
        if m is None:
            raise ValidationError("uniform distribution needs a width m")
        return Distribution.uniform(integer(m))
    if kind == "table":
        return Distribution.from_table(d["probs"])
    raise ValidationError(f"unknown distribution kind {kind!r}")


def cmd_gen_source(config: dict, out: str, seed: int, samples: int | None,
                   workers: int, cap: int = DEFAULT_WORK_CAP) -> int:
    from .sources import NobfSourceSpec, write_sample_batch
    spec = NobfSourceSpec.from_descriptor(config)
    n_samples = _sample_count(config, samples, 0)
    samples_out = _cfg(config, "samples_out", out + ".samples", cast=os.fspath)
    if n_samples > 0 and os.path.realpath(samples_out) == os.path.realpath(out):
        raise ValidationError(f"samples_out {samples_out!r} names the --out path")
    drawn = _draw(spec, seed, n_samples, workers) if n_samples > 0 else None
    doc = spec.to_descriptor()
    doc["run"] = _run_block("gen-source", seed, config, n_samples)
    # the descriptor and the samples appear together or not at all
    with staged_outputs() as stage:
        write_document(stage(out), doc)
        if drawn is not None:
            write_sample_batch(stage(samples_out), spec, drawn, seed, stream=0)
    return 0


def cmd_extract(config: dict, out: str, seed: int, samples: int | None,
                workers: int, cap: int = DEFAULT_WORK_CAP) -> int:
    from .bfext import BfextParams, trace_columns
    from .sources import NobfSourceSpec, read_sample_batch
    params = BfextParams.from_json(_load_document(config, "params"))
    if "samples" in config and isinstance(config["samples"], str):
        header, xs = read_sample_batch(config["samples"])
        if int(header["n"]) != params.n:
            raise ValidationError(
                f"sample width {header['n']} does not match params n={params.n}")
    elif "inputs" in config:
        hexes = config["inputs"]
        if not (isinstance(hexes, list) and all(isinstance(h, str) for h in hexes)):
            raise ValidationError("config key 'inputs' must be a list of hex strings")
        xs = words_from_hex(hexes, params.n)
    elif "spec" in config:
        spec = NobfSourceSpec.from_descriptor(_load_document(config, "spec"))
        if spec.n != params.n:
            raise ValidationError("spec and params disagree on n")
        count = samples if samples is not None else _cfg(config, "count", 1, cast=integer)
        xs = _draw(spec, seed, count, workers)
    else:
        raise ValidationError(
            "config needs one of: samples (path), inputs (hex list), spec (path)")
    columns = trace_columns(xs, params)
    count = len(columns[-1])
    doc = {
        "format": "extraction-report",
        "version": 1,
        "n": params.n,
        "count": count,
        "traces": [],
        "run": _run_block("extract", seed, config, count),
    }
    write_document(out, doc, lambda d: report_chunks(d, params, columns))
    return 0


def _analysis_bias(config: dict, seed: int, samples: int | None,
                   workers: int, cap: int) -> dict:
    from .resilient import bias_under, function_from_descriptor
    f = function_from_descriptor(_cfg(config, "f", required=True))
    dist = _distribution_from_config(_cfg(config, "distribution",
                                          default={"kind": "uniform"}),
                                     default_m=f.arity)
    return {"bias": bias_under(f, dist), "exact": True}


def _analysis_influence(config: dict, seed: int, samples: int | None,
                        workers: int, cap: int) -> dict:
    from .resilient import (function_from_descriptor, influence_exact, influence_max_exact,
                            influence_mc)
    from .sources import UniformBits, good_dist_from_descriptor
    f = function_from_descriptor(_cfg(config, "f", required=True))
    mode = _cfg(config, "mode", "exact")
    if mode not in ("exact", "mc"):
        raise ValidationError("influence mode must be 'exact' or 'mc'")
    if "max_size" in config:
        if "coalition" in config or mode == "mc":
            raise ValidationError("max_size asks for the exact maximum over coalitions; "
                                  "it takes neither coalition nor mode 'mc'")
        coalition, q = None, _cfg(config, "max_size", cast=integer)
    else:
        coalition = _cfg(config, "coalition", required=True,
                         cast=lambda v: [integer(i) for i in v])
        q = len(set(coalition))
    fixing = (good_dist_from_descriptor(config["fixing"])
              if "fixing" in config else UniformBits(f.arity - q))
    if coalition is None:
        value, witness = influence_max_exact(f, q, fixing, cap)
        return {"influence": value, "witness": list(witness), "exact": True}
    if mode == "exact":
        return {"influence": influence_exact(f, coalition, fixing, cap),
                "exact": True}
    est = influence_mc(f, coalition, fixing, _sample_count(config, samples, 0),
                       seed, workers=workers)
    return {"influence": est.to_json(), "exact": est.is_exact}


def _on_distribution(stat: str):
    """The analysis reporting `stats.<stat>` of the config's distribution."""
    def analysis(config: dict, *_) -> dict:
        from . import stats
        return getattr(stats, stat)(_distribution_from_config(
            _cfg(config, "distribution", required=True))).to_json()
    return analysis


def _on_source(oracle: str, config: dict, seed: int, samples: int | None,
               workers: int, cap: int):
    """`bfext.<oracle>` run on the config's spec and params documents."""
    from . import bfext, sources
    return getattr(bfext, oracle)(
        sources.NobfSourceSpec.from_descriptor(_load_document(config, "spec")),
        bfext.BfextParams.from_json(_load_document(config, "params")),
        seed=seed, samples=_sample_count(config, samples),
        force_mc=bool(_cfg(config, "force_mc", False)), workers=workers, cap=cap)


def _analysis_fixedness(config: dict, seed: int, samples: int | None,
                        workers: int, cap: int) -> dict:
    est = _on_source("fixedness_probability", config, seed, samples, workers, cap)
    return {"probability": est.to_json(), "exact": est.is_exact}


def _analysis_compare_zeroed(config: dict, seed: int, samples: int | None,
                             workers: int, cap: int) -> dict:
    return _on_source("compare_zeroed", config, seed, samples, workers, cap).to_json()


_ANALYSES = {
    "bias": _analysis_bias,
    "influence": _analysis_influence,
    "spectrum": _on_distribution("linear_test_bias"),
    "vazirani": _on_distribution("vazirani_check"),
    "fixedness": _analysis_fixedness,
    "compare-zeroed": _analysis_compare_zeroed,
}


def cmd_analyze(config: dict, out: str, seed: int, samples: int | None,
                workers: int, cap: int = DEFAULT_WORK_CAP) -> int:
    name = _cfg(config, "analysis", required=True)
    handler = _ANALYSES.get(name) if isinstance(name, str) else None
    if handler is None:
        raise ValidationError(
            f"unknown analysis {name!r}; choose from {sorted(_ANALYSES)}")
    result = handler(config, seed, samples, workers, cap)
    doc = {
        "format": "analysis-report",
        "version": 2,
        "analysis": name,
        "result": result,
        "run": _run_block("analyze", seed, config, samples),
    }
    write_document(out, doc)
    return 0


def cmd_build_code(config: dict, out: str, seed: int, samples: int | None,
                   workers: int, cap: int = DEFAULT_WORK_CAP) -> int:
    from .codes import build_good_code, preset_code
    if "preset" in config:
        code = preset_code(config["preset"])
    else:
        m = _cfg(config, "m", required=True, cast=integer)
        r = _cfg(config, "r", required=True, cast=integer)
        target_d = _cfg(config, "target_d", required=True, cast=integer)
        attempts = _cfg(config, "attempts", 4096, cast=integer)
        try:
            code = build_good_code(m, r, target_d, seed=seed, attempts=attempts)
        except SearchBudgetExceeded as exc:
            doc = {
                "format": "code-search-failure",
                "version": 1,
                "m": m,
                "r": r,
                "target_d": target_d,
                "attempts": attempts,
                "best_distance": int(exc.best_distance or 0),
                "best": exc.best.to_json() if exc.best is not None else None,
                "run": _run_block("build-code", seed, config),
            }
            write_document(out, doc)
            print(f"search exhausted: best distance {exc.best_distance}",
                  file=sys.stderr)
            return 4
    doc = code.to_json()
    doc["run"] = _run_block("build-code", seed, config)
    write_document(out, doc)
    return 0


_COMMANDS = {
    "gen-source": cmd_gen_source,
    "extract": cmd_extract,
    "analyze": cmd_analyze,
    "build-code": cmd_build_code,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nobfext",
        description="Bit-fixing source extractor toolbox (batch front end).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output path")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides config)")
        p.add_argument("--samples", type=int, default=None,
                       help="sample count (overrides config)")
        p.add_argument("--workers", type=int, default=1,
                       help="worker threads; outputs do not depend on this")
        p.add_argument("--max-enum", type=int, default=None, metavar="BITS",
                       help="override the work cap to 2^BITS units")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ValidationError("--workers must be >= 1")
        if args.samples is not None and args.samples < 0:
            raise ValidationError("--samples must be >= 0")
        cap = DEFAULT_WORK_CAP
        if args.max_enum is not None:
            if not 0 < args.max_enum <= 63:
                raise ValidationError("--max-enum must be in 1..63")
            cap = 1 << args.max_enum
        config = load_json(args.config)
        seed = args.seed if args.seed is not None else _cfg(
            config, "seed", DEFAULT_SEED, cast=integer)
        check_word(seed, "seed")
        return _COMMANDS[args.command](config, args.out, seed, args.samples,
                                       args.workers, cap)
    except WorkCapExceeded as exc:
        print(f"work cap exceeded: {exc}", file=sys.stderr)
        return 3
    except SearchBudgetExceeded as exc:
        print(f"search budget exhausted: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except NobfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    status = main()
    gc.freeze()  # the collections at interpreter exit then skip the live heap
    sys.exit(status)
