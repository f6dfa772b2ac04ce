"""JSON schemas for every file format the command line reads or writes.

Each document carries a `format` tag; `validate_document` dispatches on
it.  The schemas pin structure, not semantics: loaded objects are still
re-validated by the constructors they feed.  jsonschema is imported by the
first call, so a command that reads no document never loads it, and each
format's validator is built once per process.
"""

from __future__ import annotations

from functools import lru_cache

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


@lru_cache(maxsize=None)
def _validator(fmt: str):
    """The jsonschema validator of one format's schema, built once: the
    schemas are constants, so they are not re-checked against the
    metaschema per document (`check_schema` runs on them in the tests)."""
    from jsonschema.validators import validator_for

    schema = SCHEMAS_BY_FORMAT[fmt]
    return validator_for(schema)(schema)


def validate_document(obj: dict) -> None:
    """Schema-check a document by its `format` tag; the error reported is
    jsonschema's `best_match`, as `jsonschema.validate` would raise."""
    from jsonschema.exceptions import best_match

    if not isinstance(obj, dict):
        raise ValidationError("document must be a JSON object")
    fmt = obj.get("format")
    if not isinstance(fmt, str) or fmt not in SCHEMAS_BY_FORMAT:
        raise ValidationError(f"unknown document format {fmt!r}")
    error = best_match(_validator(fmt).iter_errors(obj))
    if error is not None:
        raise ValidationError(f"document failed schema check: {error.message}")
