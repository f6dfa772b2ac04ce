"""In-process tracer for the traced benchmark run.

The traced run executes the workload's commands through
``nobfext.cli.main(argv)`` after ``Tracer.install`` has replaced the public
entry points of each layer with timing wrappers.  Nothing under ``src/`` is
edited: the wrappers are swapped into the imported modules (every module
global bound to the original function, and every class that defines the
method itself) and swapped back by ``Tracer.uninstall``.

Each wrapper opens a frame on a per-thread stack.  A frame's self time is
its duration minus the time its children took: children on the same thread
add their duration to the parent, and ``run_chunked`` worker chunks, which
run on pool threads, register their interval with the pool span so that the
pool's self time excludes the union of those intervals.  Coarse entry
points are also kept as spans (name, start, end, parent, thread); hot scalar
calls (``BitVector.to_hex``/``from_hex``, ``f.eval``, ``gf2_matvec``,
``prng.bits`` and the batch kernels) only add to per-layer call counts and
time.

Counts are also kept per *scope*: the nearest enclosing span among
``SCOPES``.  That is how ratios such as evaluations per scanned good outcome
are measured where the scan happens.

A target that a later version of the library no longer has is skipped, so
its metrics read 0 instead of breaking the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Spans whose descendants' counts are also kept under the span's name.
SCOPES = ("bfext.fixedness", "resilient.influence", "codes.search",
          "bfext.output_distribution")


def _size(result, *_):
    return {"items": int(np.size(result))}


def _support(result, *_):
    # exact_table returns the probability table; the scan runs over its support.
    return {"items": int(np.count_nonzero(result))}


def _enumerated(result, *_):
    probs = np.asarray(result.probs)
    return {"table_bytes": int(probs.nbytes), "support": int(np.count_nonzero(probs)),
            "cells": int(probs.size)}


def _written_bytes(result, args, kwargs):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)} if path and os.path.exists(path) else {}


def _search_attempts(result, *_):
    attempt = getattr(result, "construction", {}).get("attempt")
    return {"hits": 1, "attempts": int(attempt) + 1} if attempt is not None else {}


# (module, function, layer, keep span, counter).  Functions are replaced in
# every nobfext module that bound them by name.
FUNCTIONS = (
    ("nobfext.cli", "load_json", "cli.load", True, None),
    ("nobfext.cli", "write_document", "cli.write", True, _written_bytes),
    ("nobfext.schemas", "validate_document", "schemas.validate", True, None),
    ("nobfext.prng", "words", "prng.words", False, _size),
    ("nobfext.prng", "bits", "prng.bits", False, None),
    ("nobfext.sources", "enumerate_nobf", "sources.enumerate", True, _enumerated),
    ("nobfext.sources", "write_sample_batch", "sources.samples_write", True,
     _written_bytes),
    ("nobfext.sources", "read_sample_batch", "sources.samples_read", True, None),
    ("nobfext.gf2", "gf2_matvec", "gf2.matvec", False, None),
    ("nobfext.gf2", "gf2_rank", "gf2.rank", False, None),
    ("nobfext.resilient", "influence_exact", "resilient.influence", True, None),
    ("nobfext.resilient", "influence_max_exact", "resilient.influence", True, None),
    ("nobfext.resilient", "undetermined_count", "resilient.influence", True, None),
    ("nobfext.codes", "min_distance_exact", "codes.min_distance", False, None),
    ("nobfext.codes", "build_good_code", "codes.search", True, _search_attempts),
    ("nobfext.stats", "clopper_pearson", "stats.interval", True, None),
    ("nobfext.bfext", "extract", "bfext.extract", False, None),
    ("nobfext.bfext", "extract_batch", "bfext.extract_batch", False, _size),
    ("nobfext.bfext", "output_distribution", "bfext.output_distribution", True, None),
    ("nobfext.bfext", "fixedness_probability", "bfext.fixedness", True, None),
    ("nobfext.bfext", "undetermined_block_count", "bfext.fixedness", True, None),
    ("nobfext.bfext", "compare_zeroed", "bfext.compare_zeroed", True, None),
    ("nobfext.bfext", "zeroed_pair_counts", "bfext.pair_counts", True, None),
)

# (module, base class, method, layer, keep span, counter).  Wrapped on the
# base class and on every subclass that defines the method itself.
METHODS = (
    ("nobfext.sources", "GoodBitDistribution", "outcomes_for_seeds",
     "sources.generate", False, _size),
    ("nobfext.sources", "GoodBitDistribution", "sample_batch", "sources.draw",
     False, _size),
    ("nobfext.sources", "GoodBitDistribution", "exact_table", "sources.draw",
     False, _support),
    ("nobfext.sources", "AdversaryStrategy", "bad_bits_batch", "sources.adversary",
     False, None),
    ("nobfext.sources", "NobfSourceSpec", "compose_batch", "sources.compose",
     False, _size),
    ("nobfext.gf2", "BitVector", "to_hex", "gf2.hex", False, None),
    ("nobfext.gf2", "BitVector", "from_hex", "gf2.hex", False, None),
    ("nobfext.resilient", "ResilientFunction", "eval", "resilient.eval", False, None),
    ("nobfext.resilient", "ResilientFunction", "eval_batch", "resilient.eval_batch",
     False, _size),
)


# Per-layer metrics: name -> (unit, better, the end-to-end metric and
# workload it should move).  cli.import_* come from `python -X importtime`
# and trace.overhead_frac from the untraced/traced pass pair; the rest from
# `layer_metrics`.  Counts and ratios of counts repeat exactly between runs
# of one seed; `*_s` values and busy_frac are times.
LAYER_METRICS = {
    "cli.import_s": ("s", "lower", "setup_s, all workloads"),
    "cli.import_scipy_stats_s": ("s", "lower", "setup_s, all workloads"),
    "cli.load_s": ("s", "lower", "setup_s and wall_s, exact-oracles"),
    "cli.write_s": ("s", "lower", "extract_s, extract-stream"),
    "cli.out_bytes": ("bytes", "lower", "extract_s, extract-stream"),
    "cli.chunks.busy_frac": ("ratio", "higher", "samples_per_s, mc-estimates"),
    "schemas.validate.calls": ("count", "lower", "extract_s, extract-stream"),
    "schemas.validate_s": ("s", "lower", "extract_s, extract-stream"),
    "prng.words.items": ("count", "lower",
                         "gen_source_s, extract-stream; samples_per_s, mc-estimates"),
    "prng.words_s": ("s", "lower",
                     "gen_source_s, extract-stream; samples_per_s, mc-estimates"),
    "prng.bits.calls": ("count", "lower", "build_code_s, exact-oracles"),
    "prng.bits_s": ("s", "lower", "build_code_s, exact-oracles"),
    "sources.generate.items": ("count", "lower",
                               "gen_source_s, extract-stream; fixedness_s, exact-oracles; "
                               "compare_zeroed_s, mc-estimates"),
    "sources.generate_s": ("s", "lower",
                           "gen_source_s, extract-stream; fixedness_s, exact-oracles; "
                           "compare_zeroed_s, mc-estimates"),
    "sources.adversary_s": ("s", "lower", "compare_zeroed_s, mc-estimates"),
    "sources.compose.items": ("count", "lower",
                              "gen_source_s, extract-stream; compare_zeroed_s, "
                              "exact-oracles and mc-estimates"),
    "sources.compose_s": ("s", "lower",
                          "gen_source_s, extract-stream; compare_zeroed_s, "
                          "exact-oracles and mc-estimates"),
    "sources.enumerate_s": ("s", "lower", "compare_zeroed_s, exact-oracles"),
    "sources.enumerate.table_bytes": ("bytes", "lower",
                                      "compare_zeroed_s and peak_rss_mb, exact-oracles"),
    "sources.samples_write_s": ("s", "lower", "gen_source_s, extract-stream"),
    "sources.samples_write.bytes": ("bytes", "lower", "gen_source_s, extract-stream"),
    "sources.samples_read_s": ("s", "lower", "extract_s, extract-stream"),
    "gf2.hex.calls": ("count", "lower", "extract_s, extract-stream"),
    "gf2.hex_s": ("s", "lower", "extract_s, extract-stream"),
    "gf2.matvec.calls": ("count", "lower", "extract_s, extract-stream"),
    "gf2.matvec_s": ("s", "lower", "extract_s, extract-stream"),
    "gf2.rank.calls": ("count", "lower", "build_code_s, exact-oracles"),
    "gf2.rank_s": ("s", "lower", "build_code_s, exact-oracles"),
    "resilient.eval.calls": ("count", "lower", "extract_s, extract-stream"),
    "resilient.eval_s": ("s", "lower", "extract_s, extract-stream"),
    "resilient.eval_batch.items": ("count", "lower",
                                   "fixedness_s, exact-oracles and mc-estimates; "
                                   "influence_s, exact-oracles"),
    "resilient.eval_batch_s": ("s", "lower",
                               "fixedness_s, exact-oracles and mc-estimates; "
                               "influence_s, exact-oracles"),
    "resilient.influence_s": ("s", "lower", "influence_s, exact-oracles"),
    "resilient.scan.evals_per_fixing": ("ratio", "lower", "influence_s, exact-oracles"),
    "codes.min_distance.calls": ("count", "lower", "build_code_s, exact-oracles"),
    "codes.min_distance_s": ("s", "lower", "build_code_s, exact-oracles"),
    "codes.search.hit_frac": ("ratio", "higher", "build_code_s, exact-oracles"),
    "stats.interval_s": ("s", "lower", "fixedness_s and compare_zeroed_s, mc-estimates"),
    "bfext.extract.calls": ("count", "lower", "extract_s, extract-stream"),
    "bfext.extract_s": ("s", "lower", "extract_s, extract-stream"),
    "bfext.extract_batch.items": ("count", "lower",
                                  "compare_zeroed_s, exact-oracles and mc-estimates"),
    "bfext.extract_batch_s": ("s", "lower",
                              "compare_zeroed_s, exact-oracles and mc-estimates"),
    "bfext.output_distribution_s": ("s", "lower", "compare_zeroed_s, exact-oracles"),
    "bfext.enum.support_frac": ("ratio", "higher", "compare_zeroed_s, exact-oracles"),
    "bfext.fixedness_s": ("s", "lower", "fixedness_s, exact-oracles and mc-estimates"),
    "bfext.scan.evals_per_good": ("ratio", "lower",
                                  "fixedness_s, exact-oracles and mc-estimates"),
    "bfext.pair_counts_s": ("s", "lower", "compare_zeroed_s, mc-estimates"),
    "trace.overhead_frac": ("ratio", "lower", "none: traced wall / untraced wall - 1"),
}
TIMED = {name for name, (unit, _, _) in LAYER_METRICS.items() if unit == "s"} | {
    "cli.chunks.busy_frac", "trace.overhead_frac"}


class _Frame:
    __slots__ = ("layer", "span_id", "parent", "start", "child", "remote", "scope")

    def __init__(self, layer, span_id, parent, scope):
        self.layer = layer
        self.span_id = span_id
        self.parent = parent
        self.scope = scope
        self.child = 0.0
        self.remote = []
        self.start = time.perf_counter()


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)   # (scope or None, "layer.key") -> n
        self.spans = []


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


class Tracer:
    """Per-layer self time, call counts and spans for one traced pass."""

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches = []

    # -- frames -----------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _enter(self, layer, keep, parent=None):
        st = self._state()
        if parent is None and st.stack:
            parent = st.stack[-1]
        scope = layer if layer in SCOPES else (parent.scope if parent else None)
        frame = _Frame(layer, next(self._ids) if keep else 0, parent, scope)
        st.stack.append(frame)
        return frame

    def _exit(self, frame, same_thread_parent=True):
        end = time.perf_counter()
        st = self._state()
        st.stack.pop()
        dur = end - frame.start
        busy = frame.child + _union_length(frame.remote)
        st.self_s[frame.layer] += dur - busy
        st.calls[frame.layer] += 1
        parent = frame.parent
        if parent is not None:
            if same_thread_parent:
                parent.child += dur
            else:
                with self._lock:
                    parent.remote.append((frame.start, end))
        if frame.span_id:
            st.spans.append({
                "id": frame.span_id, "name": frame.layer,
                "parent": parent.span_id if parent is not None else None,
                "thread": threading.get_ident(), "start": frame.start, "end": end,
            })
        return dur

    def count(self, layer, key, n, scope):
        """Add n to `layer.key`, overall and under `scope` when there is one."""
        st = self._state()
        st.counts[(None, f"{layer}.{key}")] += n
        if scope is not None:
            st.counts[(scope, f"{layer}.{key}")] += n

    @contextlib.contextmanager
    def span(self, layer):
        """A span the benchmark opens itself."""
        frame = self._enter(layer, True)
        try:
            yield frame
        finally:
            self._exit(frame)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, layer, keep, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(layer, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if counter is not None:
                for key, n in counter(result, args, kwargs).items():
                    tracer.count(layer, key, n, scope=frame.scope)
            return result

        return wrapper

    def _wrap_run_chunked(self, fn):
        tracer = self

        @functools.wraps(fn)
        def run_chunked(work, total, workers):
            pool = tracer._enter("cli.run_chunked", True)
            home = threading.get_ident()

            def chunk(start, count):
                local = threading.get_ident() == home
                frame = tracer._enter("cli.chunk", True, parent=pool)
                try:
                    return work(start, count)
                finally:
                    dur = tracer._exit(frame, same_thread_parent=local)
                    tracer.count("cli.chunks", "busy_us", int(dur * 1e6), scope=pool.scope)

            try:
                return fn(chunk, total, workers)
            finally:
                wall = tracer._exit(pool)
                tracer.count("cli.chunks", "capacity_us", int(wall * 1e6 * max(1, workers)),
                             scope=pool.scope)

        return run_chunked

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, owner.__dict__[name]
                              if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, new)

    def install(self) -> None:
        """Swap the wrappers into every imported nobfext module."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "nobfext" or name.startswith("nobfext."))]

        def rebind(orig, new):
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, new)

        for mod_name, attr, layer, keep, counter in FUNCTIONS:
            orig = getattr(sys.modules.get(mod_name), attr, None)
            if callable(orig):
                rebind(orig, self._wrap(orig, layer, keep, counter))
        orig = getattr(sys.modules.get("nobfext.cli"), "run_chunked", None)
        if callable(orig):
            rebind(orig, self._wrap_run_chunked(orig))
        for mod_name, cls_name, meth, layer, keep, counter in METHODS:
            base = getattr(sys.modules.get(mod_name), cls_name, None)
            if not isinstance(base, type):
                continue
            for cls in _subclasses(base):
                raw = cls.__dict__.get(meth)
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, layer, keep, counter))
                elif callable(raw):
                    new = self._wrap(raw, layer, keep, counter)
                else:
                    continue
                self._patch(cls, meth, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, old = self._patches.pop()
            setattr(owner, name, old)

    # -- results ----------------------------------------------------------

    def totals(self):
        """(self seconds by layer, calls by layer, counts by (scope, key))."""
        self_s, calls, counts = defaultdict(float), defaultdict(int), defaultdict(int)
        for st in self._states:
            for k, v in st.self_s.items():
                self_s[k] += v
            for k, v in st.calls.items():
                calls[k] += v
            for k, v in st.counts.items():
                counts[k] += v
        return self_s, calls, counts

    def spans(self):
        out = [s for st in self._states for s in st.spans]
        out.sort(key=lambda s: s["start"])
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metric values of one traced pass, by metric name."""
    self_s, calls, counts = tracer.totals()

    def c(key, scope=None):
        return counts.get((scope, key), 0)

    return {
        "cli.load_s": self_s["cli.load"],
        "cli.write_s": self_s["cli.write"],
        "cli.out_bytes": c("cli.write.bytes"),
        "cli.chunks.busy_frac": _ratio(c("cli.chunks.busy_us"), c("cli.chunks.capacity_us")),
        "schemas.validate.calls": calls["schemas.validate"],
        "schemas.validate_s": self_s["schemas.validate"],
        "prng.words.items": c("prng.words.items"),
        "prng.words_s": self_s["prng.words"],
        "prng.bits.calls": calls["prng.bits"],
        "prng.bits_s": self_s["prng.bits"],
        "sources.generate.items": c("sources.generate.items"),
        "sources.generate_s": self_s["sources.generate"],
        "sources.adversary_s": self_s["sources.adversary"],
        "sources.compose.items": c("sources.compose.items"),
        "sources.compose_s": self_s["sources.compose"],
        "sources.enumerate_s": self_s["sources.enumerate"],
        "sources.enumerate.table_bytes": c("sources.enumerate.table_bytes"),
        "sources.samples_write_s": self_s["sources.samples_write"],
        "sources.samples_write.bytes": c("sources.samples_write.bytes"),
        "sources.samples_read_s": self_s["sources.samples_read"],
        "gf2.hex.calls": calls["gf2.hex"],
        "gf2.hex_s": self_s["gf2.hex"],
        "gf2.matvec.calls": calls["gf2.matvec"],
        "gf2.matvec_s": self_s["gf2.matvec"],
        "gf2.rank.calls": calls["gf2.rank"],
        "gf2.rank_s": self_s["gf2.rank"],
        "resilient.eval.calls": calls["resilient.eval"],
        "resilient.eval_s": self_s["resilient.eval"],
        "resilient.eval_batch.items": c("resilient.eval_batch.items"),
        "resilient.eval_batch_s": self_s["resilient.eval_batch"],
        "resilient.influence_s": self_s["resilient.influence"],
        "resilient.scan.evals_per_fixing": _ratio(
            c("resilient.eval_batch.items", "resilient.influence"),
            c("sources.draw.items", "resilient.influence")),
        "codes.min_distance.calls": calls["codes.min_distance"],
        "codes.min_distance_s": self_s["codes.min_distance"],
        "codes.search.hit_frac": _ratio(c("codes.search.hits"), c("codes.search.attempts")),
        "stats.interval_s": self_s["stats.interval"],
        "bfext.extract.calls": calls["bfext.extract"],
        "bfext.extract_s": self_s["bfext.extract"],
        "bfext.extract_batch.items": c("bfext.extract_batch.items"),
        "bfext.extract_batch_s": self_s["bfext.extract_batch"],
        "bfext.output_distribution_s": self_s["bfext.output_distribution"],
        "bfext.enum.support_frac": _ratio(
            c("sources.enumerate.support", "bfext.output_distribution"),
            c("sources.enumerate.cells", "bfext.output_distribution")),
        "bfext.fixedness_s": self_s["bfext.fixedness"],
        "bfext.scan.evals_per_good": _ratio(
            c("resilient.eval_batch.items", "bfext.fixedness"),
            c("sources.draw.items", "bfext.fixedness")),
        "bfext.pair_counts_s": self_s["bfext.pair_counts"],
    }


def layer_table(tracer: Tracer) -> list[dict]:
    """Every traced layer with its self time and call count, busiest first."""
    self_s, calls, _ = tracer.totals()
    rows = [{"layer": k, "self_s": self_s[k], "calls": calls[k]} for k in self_s]
    rows.sort(key=lambda r: -r["self_s"])
    return rows
