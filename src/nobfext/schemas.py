"""JSON schemas for every file format the command line reads or writes,
and the file handling those formats share.

Each document carries a `format` tag; `validate_document` dispatches on
it.  The schemas pin structure, not semantics: loaded objects are still
re-validated by the constructors they feed.  The schemas are JSON Schema
(Draft 2020-12) of 11 keywords, checked by a small recursive checker of
those keywords alone (`_failure`); the tests hold its decisions to
jsonschema's.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import numbers
import operator
import os
import re
import reprlib

import numpy as np

from .errors import ValidationError

_HEX = {"type": "string", "pattern": "^[0-9a-fA-F]+$"}
_NONNEG = {"type": "integer", "minimum": 0}
_POS = {"type": "integer", "minimum": 1}

_RUN_BLOCK = {
    "type": "object",
    "properties": {
        "command": {"type": "string"},
        "seed": {"type": "integer"},
        "config": {"type": "object"},
        "samples": _NONNEG,
    },
    "required": ["command", "seed", "config"],
}

_DESCRIPTOR = {  # a generator, adversary or block function: kind decides the rest
    "type": "object",
    "properties": {"kind": {"type": "string"}},
    "required": ["kind"],
}

SOURCE_SPEC_SCHEMA = {
    "type": "object",
    "properties": {
        "format": {"const": "nobf-source-spec"},
        "version": _POS,
        "n": _POS,
        "bad_positions": {"type": "array", "items": _NONNEG},
        "good_dist": _DESCRIPTOR,
        "adversary": _DESCRIPTOR,
        "t": _NONNEG,
        "gamma": {"type": "number", "minimum": 0},
        "run": _RUN_BLOCK,
    },
    "required": ["format", "version", "n", "bad_positions", "good_dist",
                 "adversary", "t", "gamma"],
}

LINEAR_CODE_SCHEMA = {
    "type": "object",
    "properties": {
        "format": {"const": "linear-code"},
        "version": _POS,
        "m": _POS,
        "r": _POS,
        "rows": {"type": "array", "items": _HEX, "minItems": 1},
        "verified_d": _NONNEG,
        "construction": {"type": "object"},
        "run": _RUN_BLOCK,
    },
    "required": ["format", "version", "m", "r", "rows", "verified_d"],
}

CODE_SEARCH_FAILURE_SCHEMA = {
    "type": "object",
    "properties": {
        "format": {"const": "code-search-failure"},
        "version": _POS,
        "m": _POS,
        "r": _POS,
        "target_d": _POS,
        "attempts": _POS,
        "best_distance": _NONNEG,
        "best": {"type": ["object", "null"]},
        "run": _RUN_BLOCK,
    },
    "required": ["format", "version", "m", "r", "target_d", "attempts",
                 "best_distance"],
}

BFEXT_PARAMS_SCHEMA = {
    "type": "object",
    "properties": {
        "format": {"const": "bfext-params"},
        "version": _POS,
        "mode": {"enum": ["derived", "explicit"]},
        "n": _POS,
        "ell": _POS,
        "block_len": _POS,
        "delta": {"type": ["number", "null"]},
        "alpha": {"type": ["number", "null"]},
        "beta": {"type": ["number", "null"]},
        "t": {"type": ["integer", "null"]},
        "code": LINEAR_CODE_SCHEMA,
        "f": _DESCRIPTOR,
        "run": _RUN_BLOCK,
    },
    "required": ["format", "version", "mode", "n", "ell", "block_len",
                 "code", "f"],
}

EXTRACTION_TRACE_SCHEMA = {
    "type": "object",
    "properties": {
        "format": {"const": "extraction-trace"},
        "version": _POS,
        "block_len": _NONNEG,
        "ell": _POS,
        "r": _POS,
        "m": _POS,
        "blocks": {"type": "array", "items": _HEX},
        "y": _HEX,
        "y_used": _HEX,
        "z": _HEX,
    },
    "required": ["format", "version", "block_len", "ell", "r", "m",
                 "blocks", "y", "y_used", "z"],
}

EXTRACTION_REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "format": {"const": "extraction-report"},
        "version": _POS,
        "n": _POS,
        "count": _NONNEG,
        "traces": {"type": "array", "items": EXTRACTION_TRACE_SCHEMA},
        "run": _RUN_BLOCK,
    },
    "required": ["format", "version", "n", "count", "traces"],
}

_ESTIMATE = {
    "type": "object",
    "properties": {
        "value": {"type": "number"},
        "lo": {"type": "number"},
        "hi": {"type": "number"},
        "samples": _NONNEG,
        "confidence": {"type": "number"},
        "method": {"type": "string"},
    },
    "required": ["value", "lo", "hi", "method"],
}

_RESULTS = {  # analysis -> the shape of its result, where it has a fixed one
    "fixedness": {
        "type": "object",
        "properties": {"probability": _ESTIMATE, "exact": {"type": "boolean"}},
        "required": ["probability", "exact"],
    },
    "compare-zeroed": {
        "type": "object",
        "properties": {
            "sd": _ESTIMATE,
            "exact": {"type": "boolean"},
            "m": _POS,
            "mismatch_rate": {"type": ["number", "null"]},
        },
        "required": ["sd", "exact", "m", "mismatch_rate"],
    },
}

ANALYSIS_REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "format": {"const": "analysis-report"},
        "version": _POS,
        "analysis": {"enum": ["bias", "influence", "spectrum", "vazirani",
                              "fixedness", "compare-zeroed"]},
        "result": {"type": "object"},
        "run": _RUN_BLOCK,
    },
    "required": ["format", "version", "analysis", "result", "run"],
    "allOf": [
        {"if": {"properties": {"analysis": {"const": analysis}}},
         "then": {"properties": {"result": result}}}
        for analysis, result in _RESULTS.items()
    ],
}

SAMPLE_HEADER_SCHEMA = {
    "type": "object",
    "properties": {
        "format": {"const": "nobf-samples"},
        "count": _NONNEG,
        "n": _POS,
        "seed": {"type": "integer"},
        "stream": _NONNEG,
    },
    "required": ["format", "count", "n", "seed", "stream"],
}

SCHEMAS_BY_FORMAT = {
    "nobf-source-spec": SOURCE_SPEC_SCHEMA,
    "linear-code": LINEAR_CODE_SCHEMA,
    "code-search-failure": CODE_SEARCH_FAILURE_SCHEMA,
    "bfext-params": BFEXT_PARAMS_SCHEMA,
    "extraction-trace": EXTRACTION_TRACE_SCHEMA,
    "extraction-report": EXTRACTION_REPORT_SCHEMA,
    "analysis-report": ANALYSIS_REPORT_SCHEMA,
    "nobf-samples": SAMPLE_HEADER_SCHEMA,
}


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None), "number": (int, float), "integer": (int, float)}


def _is_type(value, name: str) -> bool:
    """Draft 2020-12 types: a bool is no number, and 1.0 is an integer."""
    if isinstance(value, bool):
        return name == "boolean"
    return isinstance(value, _TYPES[name]) and (
        name != "integer" or isinstance(value, int) or value.is_integer())


def integer(value) -> int:
    """value as an int when the schemas call it an integer (3 or 3.0, not
    True, 3.5 or "3") or when it is a numpy integer; a ValidationError
    otherwise, so that no reader or constructor truncates."""
    if not (_is_type(value, "integer") or isinstance(value, np.integer)):
        raise ValidationError(f"{reprlib.repr(value)} is not an integer")
    return int(value)


def integers(values) -> np.ndarray:
    """A sequence or array of values as int64 by `integer`'s rules, checked
    on the whole array: integral floats pass; bools, fractions, strings and
    values outside int64 raise ValidationError."""
    if not isinstance(values, np.ndarray) or values.dtype == object:
        values = list(values)
        for t in set(map(type, values)):
            if t is bool or not issubclass(t, (int, float, np.integer, np.floating)):
                integer(next(v for v in values if type(v) is t))  # raises
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind == "f":
        whole = np.isfinite(arr) & (arr == np.trunc(arr))
        if not whole.all():
            raise ValidationError(f"{arr[~whole][0].item()!r} is not an integer")
    elif kind not in "iuO" and arr.size:
        raise ValidationError(f"{arr.dtype} values are not integers")
    if arr.size and (arr.max() >= 2 ** 63 or arr.min() < -2 ** 63):
        raise ValidationError("integers outside the int64 range")
    return arr.astype(np.int64)


def check_count(value, name: str) -> int:
    """value as an int: numpy integers pass, bools and floats do not."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def real(value, name: str) -> float:
    """value as a float when it is a finite real number, numpy's included;
    a bool, a string, nan, an infinity or an int beyond floats is a
    ValidationError."""
    if not isinstance(value, (bool, np.bool_)) and isinstance(value, numbers.Real):
        with contextlib.suppress(OverflowError):
            if math.isfinite(value := float(value)):
                return value
    raise ValidationError(f"{name} must be a finite number, got {reprlib.repr(value)}")


def _equal(a, b) -> bool:
    """JSON equality: a bool equals only a bool, and 1 equals 1.0."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _failure(schema: dict, value, path: str) -> str | None:
    """The first keyword of schema that value fails, as "at PATH: why", or
    None; each keyword applies only to values of its own type."""
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    missing = [key for key in schema.get("required", ())
               if isinstance(value, dict) and key not in value]
    if types and not any(_is_type(value, name) for name in types):
        return f"at {path}: {reprlib.repr(value)} is not of type {', '.join(map(repr, types))}"
    if "const" in schema and not _equal(value, schema["const"]):
        return f"at {path}: {schema['const']!r} was expected"
    if "enum" in schema and not any(_equal(value, opt) for opt in schema["enum"]):
        return f"at {path}: {reprlib.repr(value)} is not one of {schema['enum']!r}"
    if "minimum" in schema and _is_type(value, "number") and value < schema["minimum"]:
        return f"at {path}: {value!r} is less than the minimum of {schema['minimum']!r}"
    if "pattern" in schema and isinstance(value, str) and not re.search(
            schema["pattern"], value):
        return f"at {path}: {reprlib.repr(value)} does not match {schema['pattern']!r}"
    if missing:
        return f"at {path}: {missing[0]!r} is a required property"
    if isinstance(value, list) and len(value) < schema.get("minItems", 0):
        return f"at {path}: has {len(value)} items, fewer than {schema['minItems']}"
    parts = [(sub, value[key], f"{path}.{key}") for key, sub in
             schema.get("properties", {}).items() if isinstance(value, dict) and key in value]
    if isinstance(value, list) and "items" in schema:
        parts += [(schema["items"], item, f"{path}[{i}]") for i, item in enumerate(value)]
    parts += [(sub, value, path) for sub in schema.get("allOf", ())]
    if "if" in schema and "then" in schema and _failure(schema["if"], value, path) is None:
        parts.append((schema["then"], value, path))
    return next(filter(None, (_failure(*part) for part in parts)), None)


def validate_document(obj: dict) -> None:
    """Schema-check a document by its `format` tag; an error names the path."""
    if not isinstance(obj, dict):
        raise ValidationError("document must be a JSON object")
    fmt = obj.get("format")
    if not isinstance(fmt, str) or fmt not in SCHEMAS_BY_FORMAT:
        raise ValidationError(f"unknown document format {fmt!r}")
    failure = _failure(SCHEMAS_BY_FORMAT[fmt], obj, "$")
    if failure is not None:
        raise ValidationError(f"document failed schema check {failure}")


# ---------------------------------------------------------------------------
# Files: inputs are UTF-8 JSON with finite numbers; outputs are staged


def read_text(path) -> str:
    """The UTF-8 text of an input file; any failure is a ValidationError."""
    try:
        with open(os.fspath(path), encoding="utf-8") as fh:
            return fh.read()
    except TypeError as exc:
        raise ValidationError(f"input path must be a string, got {path!r}") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def parse_json(text: str, what: str):
    """Parse JSON, refusing NaN, Infinity and 1e999 (inf): not JSON numbers."""
    try:
        return json.loads(text, parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc


_STAGED: dict[str, str] = {}  # temporary path -> final path, for open blocks
_STAGE_IDS = itertools.count()


@contextlib.contextmanager
def staged_outputs():
    """Publish output files all together or not at all.

    `stage(path)` returns a temporary path in path's directory to write
    instead of path.  When the block ends normally every staged file is
    renamed onto its path with `os.replace`; when the block or a rename
    fails, the staged and already renamed files are removed, so no final
    or temporary file remains.  A path that an enclosing block staged is
    returned as is: the enclosing block publishes it.  An OSError becomes
    a ValidationError naming the output.
    """
    mine: list[str] = []

    def stage(path) -> str:
        path = os.fspath(path)
        if path in _STAGED:
            return path
        head, tail = os.path.split(path)
        tmp = os.path.join(head, f".{tail}.{os.getpid()}.{next(_STAGE_IDS)}.tmp")
        _STAGED[tmp] = path
        mine.append(tmp)
        return tmp

    published: list[str] = []
    try:
        yield stage
        for tmp in mine:
            os.replace(tmp, _STAGED[tmp])
            published.append(_STAGED[tmp])
    except BaseException as exc:
        for path in mine + published:
            with contextlib.suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError) and mine:
            name = _STAGED.get(exc.filename) or ", ".join(_STAGED[t] for t in mine)
            raise ValidationError(f"cannot write {name}: {exc.strerror or exc}") from exc
        raise
    finally:
        for tmp in mine:
            del _STAGED[tmp]
