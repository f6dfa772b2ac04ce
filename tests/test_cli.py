"""Command-line front end: documents, determinism, exit codes."""

import copy
import errno
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import extract_trace

from nobfext.bfext import (derive_params, explicit_params, fixedness_probability,
                           trace_columns)
from nobfext.bitops import hex_from_words, words_from_ints
from nobfext.cli import _run_block, canonical_json, main, report_chunks
from nobfext.codes import LinearCode, min_distance_exact, preset_code
from nobfext.errors import ValidationError, WorkCapExceeded
from nobfext.prng import CHUNK, DRAW_CHUNK, chunk_ranges
from nobfext.resilient import (Majority, RecursiveMajority3, TableFunction, Tribes,
                               default_block_function)
from nobfext.schemas import SCHEMAS_BY_FORMAT, _failure, validate_document
from nobfext.sources import (EpsBiased, MajorityOfGood, NobfSourceSpec, ParityOfGood,
                             UniformBits, read_sample_batch)


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _check_outputs(out, rc):
    """Check every document a command wrote against `schemas`: the CLI
    checks the documents it reads, not the ones it writes."""
    if rc not in (0, 4):  # 4: a failed code search still writes its report
        return
    validate_document(json.loads(Path(out).read_text()))
    samples = Path(f"{out}.samples")
    if samples.exists():  # gen-source's sample file, by default name
        validate_document(json.loads(samples.read_text().partition("\n")[0]))


def _run(*argv):
    rc = main(list(argv))
    _check_outputs(argv[argv.index("--out") + 1], rc)
    return rc


def _params_file(tmp_path, params=None):
    params = params or explicit_params(6, 2, 3, preset_code("identity-2"),
                                       Majority(3))
    p = tmp_path / "params.json"
    p.write_text(canonical_json(params.to_json()))
    return str(p), params


def _spec_file(tmp_path, spec, name="spec.json"):
    p = tmp_path / name
    p.write_text(canonical_json(spec.to_descriptor()))
    return str(p)


def _source_config():
    return {
        "n": 6,
        "bad_positions": [1],
        "good_dist": {"kind": "uniform", "n_good": 5},
        "adversary": {"kind": "parity-of-good"},
    }


# ---------------------------------------------------------------------------
# plumbing


def test_chunk_ranges_cover_in_order():
    for total in [0, 1, 7, 100, CHUNK + 1, 3 * CHUNK + 5]:
        for workers in [1, 3, 8, 200]:
            chunks = chunk_ranges(total, workers)
            pos = 0
            for start, count in chunks:
                assert start == pos and count >= 0
                pos += count
            assert pos == total
            assert max(count for _, count in chunks) <= CHUNK
            assert len(chunks) >= min(workers, total)


def test_canonical_json_shape():
    s = canonical_json({"b": 1, "a": [1, 2]})
    assert s == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_schema_validation_accepts_and_rejects():
    code_doc = preset_code("hamming-7-4").to_json()
    validate_document(code_doc)
    broken = dict(code_doc)
    del broken["rows"]
    with pytest.raises(ValidationError):
        validate_document(broken)
    with pytest.raises(ValidationError):
        validate_document({"format": "no-such-format"})
    with pytest.raises(ValidationError):
        validate_document({"m": 1})  # no format at all
    with pytest.raises(ValidationError):
        validate_document({"format": ["linear-code"]})  # an unhashable tag
    assert set(SCHEMAS_BY_FORMAT) >= {
        "nobf-source-spec", "linear-code", "bfext-params",
        "extraction-trace", "extraction-report", "analysis-report",
        "code-search-failure", "nobf-samples",
    }


@pytest.mark.parametrize("fmt", sorted(SCHEMAS_BY_FORMAT))
def test_every_schema_is_valid_against_its_metaschema(fmt):
    # validate_document builds each validator once and skips this check
    schema = SCHEMAS_BY_FORMAT[fmt]
    jsonschema.validators.validator_for(schema).check_schema(schema)


def _documents_of_every_format(tmp_path):
    """One valid document of each format, written by the commands that
    write them (extraction-trace: a report's first trace)."""
    ppath, _ = _params_file(tmp_path)
    spath = _spec_file(tmp_path, NobfSourceSpec(6, [1], UniformBits(5), ParityOfGood()))
    derived = tmp_path / "derived.json"
    derived.write_text(canonical_json(derive_params(n=64, delta=0.8, t=4).to_json()))
    commands = [
        ("gen-source", {**_source_config(), "samples": 5}),
        ("build-code", {"preset": "hamming-7-4"}),
        ("build-code", {"m": 4, "r": 7, "target_d": 4, "attempts": 3}),
        ("extract", {"params": ppath, "samples": str(tmp_path / "out0.json.samples")}),
        ("analyze", {"analysis": "bias", "f": {"kind": "majority", "arity": 3}}),
        ("analyze", {"analysis": "fixedness", "spec": spath, "params": ppath}),
        ("analyze", {"analysis": "compare-zeroed", "spec": spath, "params": ppath,
                     "force_mc": True, "samples": 200}),
    ]
    docs = [json.loads(Path(path).read_text()) for path in (ppath, spath, derived)]
    for k, (command, config) in enumerate(commands):
        cfg = _write(tmp_path / f"cfg{k}.json", config)
        out = tmp_path / f"out{k}.json"
        assert main([command, "--config", cfg, "--out", str(out)]) in (0, 4)
        docs.append(json.loads(out.read_text()))
    docs.append(json.loads((tmp_path / "out0.json.samples").read_text().partition("\n")[0]))
    docs += [doc["traces"][0] for doc in docs if doc["format"] == "extraction-report"]
    return docs


_POOL = [True, False, 0, 1, -1, 1.0, 2.5, -0.5, None, "", "zz", "0f", "a1B", "derived",
         "bias", "fixedness", "compare-zeroed", "exact", "linear-code", "nobf-samples",
         [], [1], ["0f"], [True], {}, {"kind": "majority"}, {"value": 0.5}]
_KEYS = ["format", "version", "analysis", "result", "probability", "exact", "sd", "m",
         "rows", "kind", "value", "lo", "hi", "method", "run", "traces", "count"]


def _nodes(value, path=()):
    yield path
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _nodes(child, (*path, key))


def _mutate(doc: dict, rng) -> dict:
    """doc with one to three random edits: a value replaced, an entry
    removed, a key added or a list item appended."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_nodes(doc)))
        node = doc
        for key in path:
            node = node[key]
        op = rng.randrange(4) if path else 2
        if op < 2:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if op == 0:
                parent[path[-1]] = copy.deepcopy(rng.choice(_POOL))
            else:
                del parent[path[-1]]
        elif op == 2 and isinstance(node, dict):
            node[rng.choice(_KEYS)] = copy.deepcopy(rng.choice(_POOL))
        elif op == 3 and isinstance(node, list):
            node.append(copy.deepcopy(rng.choice(_POOL)))
    return doc


def test_schema_checker_agrees_with_jsonschema(tmp_path):
    # seeded mutations of one valid document of every format, the
    # analysis-report's if/then result shapes included: the same accept or
    # reject decision as jsonschema on the schema the format tag selects
    docs = _documents_of_every_format(tmp_path)
    assert {doc["format"] for doc in docs} == set(SCHEMAS_BY_FORMAT)
    assert {doc.get("analysis") for doc in docs} >= {"bias", "fixedness", "compare-zeroed"}
    validators = {fmt: jsonschema.validators.validator_for(schema)(schema)
                  for fmt, schema in SCHEMAS_BY_FORMAT.items()}
    rng = random.Random(16)
    disagreements, decisions = [], {}
    for doc in docs:
        validate_document(doc)
        for _ in range(300):
            broken = _mutate(doc, rng)
            fmt = broken.get("format")
            want = isinstance(fmt, str) and fmt in validators and validators[fmt].is_valid(broken)
            try:
                validate_document(broken)
                got = True
            except ValidationError as exc:
                got = False
                if isinstance(fmt, str) and fmt in validators:
                    assert str(exc).startswith("document failed schema check at $"), exc
            if got != want:
                disagreements.append(broken)
            decisions.setdefault(doc["format"], set()).add(got)
    assert disagreements == []
    assert all(seen == {True, False} for seen in decisions.values()), decisions


@pytest.mark.parametrize("schema,value", [
    ({"type": "integer"}, True),
    ({"type": "integer"}, 1.0),
    ({"type": "integer"}, 1.5),
    ({"type": "number"}, False),
    ({"type": ["number", "null"]}, None),
    ({"const": 1}, True),
    ({"const": True}, 1),
    ({"const": 1}, 1.0),
    ({"enum": [1, "a"]}, True),
    ({"enum": [[1], {"a": True}]}, {"a": 1}),
    ({"minimum": 1}, "0"),
    ({"minimum": 1}, False),
    ({"minimum": 1}, 0.5),
    ({"pattern": "^[0-9]+$"}, 5),
    ({"pattern": "b"}, "abc"),
    ({"items": {"type": "string"}, "minItems": 2}, "xy"),
    ({"items": {"type": "string"}, "minItems": 2}, ["x"]),
    ({"properties": {"a": {"type": "string"}}, "required": ["a"]}, ["a"]),
    ({"properties": {"a": {"type": "string"}}, "required": ["b"]}, {"a": "x"}),
    ({"if": {"properties": {"k": {"const": 1}}}, "then": {"required": ["v"]}}, {}),
    ({"if": {"properties": {"k": {"const": 1}}}, "then": {"required": ["v"]}}, {"k": 2}),
    ({"allOf": [{"type": "number"}, {"minimum": 3}]}, 2),
])
def test_schema_checker_keeps_draft_2020_12_semantics(schema, value):
    # a bool is no integer or number, 1.0 is an integer, const and enum
    # tell True from 1, pattern searches, keywords apply to their own types
    want = jsonschema.validators.validator_for(schema)(schema).is_valid(value)
    assert (_failure(schema, value, "$") is None) == want


def test_schema_error_names_the_path_and_keyword():
    doc = explicit_params(6, 2, 3, preset_code("identity-2"), Majority(3)).to_json()
    doc["code"]["rows"][1] = "zz"
    with pytest.raises(ValidationError) as err:
        validate_document(doc)
    assert str(err.value) == ("document failed schema check at $.code.rows[1]: "
                              "'zz' does not match '^[0-9a-fA-F]+$'")


# ---------------------------------------------------------------------------
# gen-source


def test_gen_source_writes_valid_documents(tmp_path):
    cfg = _write(tmp_path / "cfg.json", _source_config())
    out = tmp_path / "spec.json"
    assert _run("gen-source", "--config", cfg, "--out", str(out),
                "--seed", "5", "--samples", "50") == 0
    doc = json.loads(out.read_text())
    validate_document(doc)
    assert doc["format"] == "nobf-source-spec"
    assert doc["n"] == 6 and doc["bad_positions"] == [1]
    assert doc["run"]["command"] == "gen-source"
    assert doc["run"]["seed"] == 5
    assert doc["run"]["config"] == _source_config()
    assert "workers" not in doc["run"] and "out" not in doc["run"]
    header, xs = read_sample_batch(str(out) + ".samples")
    assert header["count"] == 50 and xs.size == 50
    # parity constraint holds in every sample
    for x in xs.tolist():
        assert x >> 1 & 1 == sum(x >> i & 1 for i in (0, 2, 3, 4, 5)) & 1


def test_gen_source_deterministic_and_worker_independent(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {**_source_config(), "samples": 64})
    outs = []
    for tag, workers in [("a", "1"), ("b", "4"), ("c", "1")]:
        out = tmp_path / f"{tag}.json"
        assert _run("gen-source", "--config", cfg, "--out", str(out),
                    "--seed", "9", "--workers", workers) == 0
        outs.append((out.read_bytes(),
                     (tmp_path / f"{tag}.json.samples").read_bytes()))
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("spelling", ["out.json", "./out.json"])
def test_gen_source_refuses_samples_over_its_spec(tmp_path, capsys, monkeypatch, spelling):
    # the sample file would be renamed onto the spec document
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path / "cfg.json", {**_source_config(), "samples_out": spelling})
    before = sorted(os.listdir(tmp_path))
    assert _run("gen-source", "--config", cfg, "--out", "out.json", "--samples", "5") == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "invalid input" in err
    assert sorted(os.listdir(tmp_path)) == before


def test_gen_source_seed_from_config(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {**_source_config(), "seed": 77})
    out = tmp_path / "spec.json"
    assert _run("gen-source", "--config", cfg, "--out", str(out)) == 0
    assert json.loads(out.read_text())["run"]["seed"] == 77


# ---------------------------------------------------------------------------
# extract


def test_extract_inline_inputs(tmp_path):
    ppath, params = _params_file(tmp_path)
    x = 0b001011  # coordinates 0, 1 and 3
    cfg = _write(tmp_path / "cfg.json", {"params": ppath,
                                         "inputs": hex_from_words(words_from_ints([x], 6), 6)})
    out = tmp_path / "traces.json"
    assert _run("extract", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    validate_document(doc)
    assert doc["count"] == 1
    assert doc["traces"][0] == extract_trace(x, params)


def test_extract_inline_inputs_wider_than_a_word(tmp_path):
    # 250-bit inputs in 125 two-bit blocks; y, y_used and x span several words
    rng = np.random.default_rng(7)
    rows = tuple(int.from_bytes(rng.bytes(13), "little") >> 4 for _ in range(3))
    code = LinearCode(100, rows)
    min_distance_exact(code)
    ppath, params = _params_file(tmp_path, explicit_params(250, 125, 2, code,
                                                           Tribes(2, 1)))
    xs = [int.from_bytes(rng.bytes(32), "little") >> 6 for _ in range(30)]
    cfg = _write(tmp_path / "cfg.json", {
        "params": ppath, "inputs": hex_from_words(words_from_ints(xs, 250), 250)})
    out = tmp_path / "traces.json"
    assert _run("extract", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    validate_document(doc)
    assert doc["traces"] == [extract_trace(x, params) for x in xs]


def test_extract_from_sample_file(tmp_path):
    cfg = _write(tmp_path / "gen.json", _source_config())
    spec_out = tmp_path / "spec.json"
    assert _run("gen-source", "--config", cfg, "--out", str(spec_out),
                "--seed", "3", "--samples", "20") == 0
    ppath, params = _params_file(tmp_path)
    ecfg = _write(tmp_path / "ext.json",
                  {"params": ppath, "samples": str(spec_out) + ".samples"})
    out = tmp_path / "traces.json"
    assert _run("extract", "--config", ecfg, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == 20
    _, xs = read_sample_batch(str(spec_out) + ".samples")
    assert doc["traces"][7] == extract_trace(int(xs[7]), params)


def test_extract_from_spec_worker_independent(tmp_path):
    cfg = _write(tmp_path / "gen.json", _source_config())
    spec_out = tmp_path / "spec.json"
    assert _run("gen-source", "--config", cfg, "--out", str(spec_out)) == 0
    ppath, _ = _params_file(tmp_path)
    ecfg = _write(tmp_path / "ext.json",
                  {"params": ppath, "spec": str(spec_out), "count": 40})
    blobs = []
    for tag, workers in [("1", "1"), ("2", "5")]:
        out = tmp_path / f"t{tag}.json"
        assert _run("extract", "--config", ecfg, "--out", str(out),
                    "--seed", "4", "--workers", workers) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_extract_width_mismatch(tmp_path, capsys):
    cfg = _write(tmp_path / "gen.json", {**_source_config(), "n": 8,
                                         "good_dist": {"kind": "uniform",
                                                       "n_good": 7}})
    spec_out = tmp_path / "spec.json"
    assert _run("gen-source", "--config", cfg, "--out", str(spec_out),
                "--samples", "5") == 0
    ppath, _ = _params_file(tmp_path)  # expects n = 6
    ecfg = _write(tmp_path / "ext.json",
                  {"params": ppath, "samples": str(spec_out) + ".samples"})
    assert _run("extract", "--config", ecfg, "--out",
                str(tmp_path / "t.json")) == 2


# ---------------------------------------------------------------------------
# analyze


def test_analyze_bias_exact(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {
        "analysis": "bias",
        "f": {"kind": "tribes", "w": 2, "s": 2},
    })
    out = tmp_path / "r.json"
    assert _run("analyze", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    validate_document(doc)
    assert doc["analysis"] == "bias"
    assert doc["result"]["exact"] is True
    assert doc["result"]["bias"] == pytest.approx(1 / 16)


def test_analyze_influence_exact_and_max(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {
        "analysis": "influence",
        "f": {"kind": "majority", "arity": 3},
        "coalition": [0],
    })
    out = tmp_path / "r.json"
    assert _run("analyze", "--config", cfg, "--out", str(out)) == 0
    assert json.loads(out.read_text())["result"]["influence"] == pytest.approx(0.5)

    cfg2 = _write(tmp_path / "cfg2.json", {
        "analysis": "influence",
        "f": {"kind": "majority", "arity": 3},
        "max_size": 2,
    })
    out2 = tmp_path / "r2.json"
    assert _run("analyze", "--config", cfg2, "--out", str(out2)) == 0
    res = json.loads(out2.read_text())["result"]
    assert res["influence"] == 1.0 and len(res["witness"]) == 2


def test_analyze_influence_mc_worker_independent(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {
        "analysis": "influence",
        "f": {"kind": "majority", "arity": 3},
        "coalition": [0],
        "mode": "mc",
        "samples": 5000,
    })
    blobs = []
    for tag, workers in [("1", "1"), ("2", "7"), ("3", "2")]:
        out = tmp_path / f"r{tag}.json"
        assert _run("analyze", "--config", cfg, "--out", str(out),
                    "--seed", "6", "--workers", workers) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    res = json.loads(blobs[0])["result"]["influence"]
    assert res["lo"] <= 0.5 <= res["hi"]
    assert res["samples"] == 5000


def test_analyze_spectrum_and_vazirani(tmp_path):
    dist = {"kind": "table", "probs": [0.5, 0.0, 0.0, 0.5]}
    cfg = _write(tmp_path / "s.json", {"analysis": "spectrum",
                                       "distribution": dist})
    out = tmp_path / "spec.json"
    assert _run("analyze", "--config", cfg, "--out", str(out)) == 0
    res = json.loads(out.read_text())["result"]
    assert res["max_bias"] == pytest.approx(1.0)
    assert res["argmax_subset"] == 3

    cfg2 = _write(tmp_path / "v.json", {"analysis": "vazirani",
                                        "distribution": dist})
    out2 = tmp_path / "vz.json"
    assert _run("analyze", "--config", cfg2, "--out", str(out2)) == 0
    res2 = json.loads(out2.read_text())["result"]
    assert res2["holds"] is True
    assert res2["sd"] == pytest.approx(0.5)


def test_analyze_fixedness_and_compare_zeroed(tmp_path):
    cfg = _write(tmp_path / "gen.json", _source_config())
    spec_out = tmp_path / "spec.json"
    assert _run("gen-source", "--config", cfg, "--out", str(spec_out)) == 0
    ppath, _ = _params_file(tmp_path)

    fcfg = _write(tmp_path / "f.json", {"analysis": "fixedness",
                                        "spec": str(spec_out),
                                        "params": ppath})
    fout = tmp_path / "fix.json"
    assert _run("analyze", "--config", fcfg, "--out", str(fout)) == 0
    fres = json.loads(fout.read_text())["result"]
    assert fres["exact"] is True
    assert fres["probability"]["value"] == pytest.approx(0.5)

    zcfg = _write(tmp_path / "z.json", {"analysis": "compare-zeroed",
                                        "spec": str(spec_out),
                                        "params": ppath})
    zout = tmp_path / "cz.json"
    assert _run("analyze", "--config", zcfg, "--out", str(zout)) == 0
    zres = json.loads(zout.read_text())["result"]
    assert zres["exact"] is True
    assert zres["sd"]["value"] <= 0.5 + 1e-12


@pytest.mark.parametrize("analysis,field,bad", [
    ("fixedness", "probability", 0.5),
    ("fixedness", "probability", {"value": 0.5, "lo": 0.5, "hi": 0.5}),
    ("fixedness", "exact", "yes"),
    ("compare-zeroed", "sd", {"value": "0", "lo": 0, "hi": 0, "method": "exact"}),
    ("compare-zeroed", "exact", 1),
    ("compare-zeroed", "m", 0),
    ("compare-zeroed", "mismatch_rate", "none"),
    ("compare-zeroed", "sd", None),
])
def test_analysis_result_schema_pins_fixedness_and_compare_zeroed(analysis, field, bad):
    estimate = {"value": 0.25, "lo": 0.25, "hi": 0.25, "samples": 0,
                "confidence": 1.0, "method": "exact"}
    result = ({"probability": estimate, "exact": True} if analysis == "fixedness"
              else {"sd": estimate, "exact": True, "m": 2, "mismatch_rate": None})
    doc = {"format": "analysis-report", "version": 1, "analysis": analysis,
           "result": result, "run": {"command": "analyze", "seed": 0, "config": {}}}
    validate_document(doc)
    doc["result"] = {**result, field: bad}
    with pytest.raises(ValidationError):
        validate_document(doc)
    doc["result"] = {k: v for k, v in result.items() if k != field}
    with pytest.raises(ValidationError):
        validate_document(doc)
    # the other analyses keep a free-form result
    validate_document({**doc, "analysis": "bias", "result": {"bias": 0.0, "exact": True}})


def test_analyze_forced_mc_paths_worker_independent(tmp_path):
    cfg = _write(tmp_path / "gen.json", _source_config())
    spec_out = tmp_path / "spec.json"
    assert _run("gen-source", "--config", cfg, "--out", str(spec_out)) == 0
    ppath, _ = _params_file(tmp_path)
    for analysis in ["fixedness", "compare-zeroed"]:
        acfg = _write(tmp_path / f"{analysis}.json",
                      {"analysis": analysis, "spec": str(spec_out),
                       "params": ppath, "force_mc": True, "samples": 3000})
        blobs = []
        for tag, workers in [("1", "1"), ("2", "4")]:
            out = tmp_path / f"{analysis}-{tag}.json"
            assert _run("analyze", "--config", acfg, "--out", str(out),
                        "--seed", "8", "--workers", workers) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        res = json.loads(blobs[0])["result"]
        assert res["exact"] is False


def test_analyze_automatic_mc_fallback_worker_independent(tmp_path):
    # 61 good bits are too many to enumerate, so both analyses sample
    # without force_mc, and --workers must not change a byte
    spath = _spec_file(tmp_path, NobfSourceSpec(63, [1, 5], UniformBits(61),
                                                ParityOfGood()))
    ppath, _ = _params_file(tmp_path, explicit_params(
        63, 21, 3, preset_code("identity-2"), Majority(3)))
    for analysis in ["fixedness", "compare-zeroed"]:
        acfg = _write(tmp_path / f"{analysis}.json",
                      {"analysis": analysis, "spec": spath,
                       "params": ppath, "samples": 3000})
        blobs = []
        for workers in ["1", "2"]:
            out = tmp_path / f"{analysis}-{workers}.json"
            assert _run("analyze", "--config", acfg, "--out", str(out),
                        "--seed", "8", "--workers", workers) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        assert json.loads(blobs[0])["result"]["exact"] is False


def test_eps_biased_compare_is_byte_identical_over_workers(tmp_path):
    # 20,000 draws of a 2^13-element field: one piece reads the whole
    # field's columns, four pieces of 5,000 build those of their own x
    spath = _spec_file(tmp_path, NobfSourceSpec(63, [0, 3, 6, 30, 46, 50],
                                                EpsBiased(57, 0.01), MajorityOfGood()))
    ppath, _ = _params_file(tmp_path, explicit_params(
        63, 7, 9, preset_code("simplex-k3"), RecursiveMajority3(2)))
    acfg = _write(tmp_path / "compare.json",
                  {"analysis": "compare-zeroed", "spec": spath, "params": ppath,
                   "force_mc": True, "samples": 20000})
    blobs = []
    for workers in ["1", "2", "4"]:
        out = tmp_path / f"compare-{workers}.json"
        assert _run("analyze", "--config", acfg, "--out", str(out),
                    "--seed", "3", "--workers", workers) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    assert json.loads(blobs[0])["result"]["exact"] is False


@pytest.mark.parametrize("analysis", ["fixedness", "compare-uniform", "compare-eps",
                                      "influence"])
def test_sampled_outputs_do_not_depend_on_the_piece_plan(tmp_path, monkeypatch, analysis):
    # 70,000 draws in pieces of 2^10, of the default size and of 2^18, on
    # 1, 2 and 3 workers: the tallies are integers, so every plan writes
    # the same bytes
    good = EpsBiased(57, 0.01) if analysis == "compare-eps" else UniformBits(57)
    spath = _spec_file(tmp_path, NobfSourceSpec(63, [0, 3, 6, 30, 46, 50], good,
                                                MajorityOfGood()))
    ppath, _ = _params_file(tmp_path, explicit_params(
        63, 7, 9, preset_code("simplex-k3"), RecursiveMajority3(2)))
    config = {"spec": spath, "params": ppath, "force_mc": True,
              "analysis": "fixedness" if analysis == "fixedness" else "compare-zeroed"}
    if analysis == "influence":
        config = {"analysis": "influence", "f": {"kind": "majority", "arity": 9},
                  "coalition": [0, 4], "mode": "mc"}
    cfg = _write(tmp_path / "analysis.json", config)
    blobs = set()
    for size in [1 << 10, DRAW_CHUNK, 1 << 18]:
        monkeypatch.setattr("nobfext.prng.DRAW_CHUNK", size)
        for workers in ["1", "2", "3"]:
            out = tmp_path / f"{size}-{workers}.json"
            assert _run("analyze", "--config", cfg, "--out", str(out), "--samples", "70000",
                        "--seed", "5", "--workers", workers) == 0
            blobs.add(out.read_bytes())
    assert len(blobs) == 1
    assert json.loads(blobs.pop())["result"]["exact"] is False


def test_analyze_sampled_analyses_exact_when_nothing_can_vary(tmp_path):
    # no block holds a bad bit: fixedness is exactly 1, even under force_mc
    spath = _spec_file(tmp_path, NobfSourceSpec(6, [], UniformBits(6)))
    ppath, _ = _params_file(tmp_path)
    fcfg = _write(tmp_path / "f.json",
                  {"analysis": "fixedness", "spec": spath, "params": ppath,
                   "force_mc": True, "samples": 100})
    out = tmp_path / "f-out.json"
    assert _run("analyze", "--config", fcfg, "--out", str(out)) == 0
    res = json.loads(out.read_text())["result"]
    assert res["exact"] is True
    assert res["probability"]["value"] == 1.0
    assert res["probability"]["method"] == "exact"
    # the empty coalition never influences: MC influence is exactly 0
    icfg = _write(tmp_path / "i.json",
                  {"analysis": "influence", "f": {"kind": "majority", "arity": 3},
                   "coalition": [], "mode": "mc", "samples": 100})
    out = tmp_path / "i-out.json"
    assert _run("analyze", "--config", icfg, "--out", str(out)) == 0
    res = json.loads(out.read_text())["result"]
    assert res["exact"] is True
    assert res["influence"]["value"] == 0.0
    assert res["influence"]["method"] == "exact"


def test_analyze_mc_fixedness_covers_exact(tmp_path):
    cfg = _write(tmp_path / "gen.json", _source_config())
    spec_out = tmp_path / "spec.json"
    assert _run("gen-source", "--config", cfg, "--out", str(spec_out)) == 0
    ppath, _ = _params_file(tmp_path)
    acfg = _write(tmp_path / "a.json",
                  {"analysis": "fixedness", "spec": str(spec_out),
                   "params": ppath, "force_mc": True, "samples": 4000})
    out = tmp_path / "r.json"
    assert _run("analyze", "--config", acfg, "--out", str(out),
                "--seed", "2") == 0
    res = json.loads(out.read_text())["result"]["probability"]
    assert res["lo"] <= 0.5 <= res["hi"]


# ---------------------------------------------------------------------------
# build-code


def test_build_code_preset(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {"preset": "hamming-7-4"})
    out = tmp_path / "code.json"
    assert _run("build-code", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    validate_document(doc)
    assert (doc["m"], doc["r"], doc["verified_d"]) == (4, 7, 3)


def test_build_code_search_deterministic(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {"m": 3, "r": 8, "target_d": 3})
    blobs = []
    for tag in ["a", "b"]:
        out = tmp_path / f"{tag}.json"
        assert _run("build-code", "--config", cfg, "--out", str(out),
                    "--seed", "1") == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    doc = json.loads(blobs[0])
    assert doc["verified_d"] >= 3
    assert doc["construction"]["kind"] == "random-search"


def test_build_code_impossible_target_exits_4(tmp_path):
    # [7,4,4] passes Singleton but does not exist over GF(2)
    cfg = _write(tmp_path / "cfg.json",
                 {"m": 4, "r": 7, "target_d": 4, "attempts": 2000})
    out = tmp_path / "fail.json"
    assert _run("build-code", "--config", cfg, "--out", str(out),
                "--seed", "2") == 4
    doc = json.loads(out.read_text())
    validate_document(doc)
    assert doc["format"] == "code-search-failure"
    assert doc["best_distance"] == 3
    assert doc["best"]["verified_d"] == 3


# ---------------------------------------------------------------------------
# exit codes and argument handling


def test_exit_2_on_broken_inputs(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert _run("gen-source", "--config", missing,
                "--out", str(tmp_path / "o.json")) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run("gen-source", "--config", str(bad),
                "--out", str(tmp_path / "o.json")) == 2
    # t exceeding n - q is a validation error
    cfg = _write(tmp_path / "cfg.json", {**_source_config(), "t": 6})
    assert _run("gen-source", "--config", cfg,
                "--out", str(tmp_path / "o.json")) == 2
    unknown = _write(tmp_path / "u.json", {"analysis": "entropy"})
    assert _run("analyze", "--config", unknown,
                "--out", str(tmp_path / "o.json")) == 2


_MAJ3 = {"kind": "majority", "arity": 3}


@pytest.mark.parametrize("command,config", [
    ("analyze", {"analysis": "influence", "f": {"kind": "majority", "arity": 5.9},
                 "coalition": [0]}),
    ("analyze", {"analysis": "influence", "f": {"kind": "majority", "arity": 5},
                 "coalition": [0], "fixing": {"kind": "uniform", "n_good": 3.7}}),
    ("analyze", {"analysis": "influence", "f": _MAJ3, "coalition": [0.9, 1]}),
    ("analyze", {"analysis": "bias", "f": _MAJ3, "seed": 2.5}),
    ("analyze", {"analysis": "influence", "f": _MAJ3, "max_size": True}),
    ("analyze", {"analysis": "influence", "f": _MAJ3, "coalition": [0], "mode": "mc",
                 "samples": 100.5}),
    ("analyze", {"analysis": "bias", "f": {"kind": "tribes", "w": "2", "s": 2}}),
    ("analyze", {"analysis": "spectrum", "distribution": {"kind": "uniform", "m": 2.5}}),
    ("gen-source", {**_source_config(), "n": 6.5}),
    ("gen-source", {**_source_config(),
                    "good_dist": {"kind": "exact-twise", "n_good": 5, "t": 2.2}}),
    ("extract", {"params": "params.json", "spec": "spec.json", "count": 1.5}),
    ("build-code", {"m": 4.5, "r": 8, "target_d": 3}),
    ("build-code", {"m": 4, "r": 8, "target_d": 3, "attempts": False}),
    ("gen-source", {**_source_config(), "adversary": {
        "kind": "explicit-function-table", "n_good": 5, "table": [0] * 31 + [1.5]}}),
], ids=["f-arity", "fixing-n_good", "coalition-entry", "seed", "max_size-bool",
        "samples", "tribes-w-string", "distribution-m", "spec-n", "exact-twise-t",
        "extract-count", "code-m", "code-attempts-bool", "adversary-table-entry"])
def test_non_integer_config_values_exit_2(tmp_path, capsys, monkeypatch, command, config):
    # each used to be truncated by int() and run with exit 0
    _params_file(tmp_path)
    _spec_file(tmp_path, NobfSourceSpec(6, [1], UniformBits(5), ParityOfGood()))
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "cfg.json", config)
    assert main([command, "--config", "cfg.json", "--out", "out.json"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "is not an integer" in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70])
@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("command,config", [
    ("gen-source", _source_config()),
    ("analyze", {"analysis": "bias", "f": _MAJ3}),
    ("build-code", {"m": 4, "r": 7, "target_d": 3}),
], ids=["gen-source", "analyze", "build-code"])
def test_seed_outside_one_word_exits_2(tmp_path, capsys, monkeypatch, command, config,
                                      where, seed):
    # such a seed used to be reduced mod 2^64: -1 drew the stream of 2^64 - 1
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "cfg.json", {**config, "seed": seed} if where == "config" else config)
    argv = [command, "--config", "cfg.json", "--out", "out.json"]
    assert main(argv + (["--seed", str(seed)] if where == "flag" else [])) == 2
    err = capsys.readouterr().err
    assert err == f"invalid input: seed must be in 0..2^64-1, got {seed}\n"
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_seed_range_ends_run(tmp_path):
    for seed in [0, 2 ** 64 - 1]:
        out = tmp_path / f"s{seed}.json"
        cfg = _write(tmp_path / "cfg.json", {**_source_config(), "seed": seed})
        assert _run("gen-source", "--config", cfg, "--out", str(out), "--samples", "3") == 0
        assert json.loads(out.read_text())["run"]["seed"] == seed


def test_integral_floats_are_integers(tmp_path):
    # 5.0 is an integer to the schemas, so it reads as 5, as before
    outs = []
    for arity, coalition, seed in [(5, [0, 2], 2), (5.0, [0.0, 2], 2.0)]:
        cfg = _write(tmp_path / "cfg.json", {"analysis": "influence", "coalition": coalition,
                                             "f": {"kind": "majority", "arity": arity},
                                             "seed": seed})
        out = tmp_path / f"r{len(outs)}.json"
        assert _run("analyze", "--config", cfg, "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        outs.append((doc["result"], doc["run"]["seed"]))
    assert outs[0] == outs[1] == ({"influence": 0.75, "exact": True}, 2)


@pytest.mark.parametrize("extra", [{"coalition": [0, 1]}, {"mode": "mc", "samples": 10}],
                         ids=["coalition", "mode-mc"])
def test_influence_max_size_refuses_conflicting_keys(tmp_path, capsys, extra):
    # max_size is the exact maximum over all coalitions; it used to drop these
    cfg = _write(tmp_path / "cfg.json", {"analysis": "influence", "f": _MAJ3,
                                         "max_size": 2, **extra})
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "max_size" in err
    assert not (tmp_path / "o.json").exists()


def test_schema_failure_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    spec = {**NobfSourceSpec(6, [1], UniformBits(5), ParityOfGood()).to_descriptor(),
            "n": True}
    ppath, _ = _params_file(tmp_path)
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "spec.json", spec)
    cfg = _write(tmp_path / "cfg.json", {"analysis": "fixedness", "spec": "spec.json",
                                         "params": ppath})
    before = sorted(os.listdir(tmp_path))
    assert main(["analyze", "--config", cfg, "--out", "out.json"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err == ("invalid input: document failed schema check at $.n: "
                   "True is not of type 'integer'\n")
    assert sorted(os.listdir(tmp_path)) == before


_WIDE_GOOD = {"kind": "uniform", "n_good": 70}


@pytest.mark.parametrize("command,config,argv,code", [
    # packed sampling stops at n = 64; the check runs before any write
    ("gen-source", {"n": 70, "bad_positions": [], "good_dist": _WIDE_GOOD},
     ["--samples", "5"], 3),
    ("gen-source", {"n": "x", "bad_positions": [], "good_dist": _WIDE_GOOD},
     [], 2),
    ("gen-source", {"n": 6, "bad_positions": [], "good_dist": {"kind": "uniform"}},
     [], 2),
    ("analyze", {"analysis": "fixedness", "samples": "abc"}, [], 2),
    ("analyze", {"analysis": "influence", "f": {"kind": "majority"},
                 "coalition": [0]}, [], 2),
    ("build-code", {"m": "two", "r": 8, "target_d": 3}, [], 2),
    # the sampled SD needs a 2^m table; m = 17 is over EMPIRICAL_M_CAP
    ("analyze", {"analysis": "compare-zeroed", "force_mc": True,
                 "samples": 100}, [], 3),
    ("gen-source", {"n": 6, "bad_positions": [], "good_dist": 5}, [], 2),
    # values wider than one packed uint64 are refused, never truncated
    ("analyze", {"analysis": "fixedness", "spec": "wide_spec.json",
                 "params": "wide_params.json", "samples": 100}, [], 3),
    ("analyze", {"analysis": "influence", "f": {"kind": "majority", "arity": 65},
                 "coalition": [64], "mode": "mc", "samples": 100}, [], 3),
    ("extract", {"samples": "wide.samples"}, [], 3),
    ("extract", {"samples": "missing.samples"}, [], 2),
    # an output that cannot be written is an input error, not a traceback
    ("analyze", {"analysis": "bias", "f": {"kind": "majority", "arity": 3}},
     ["--out", "no-such-dir/out.json"], 2),
    ("gen-source", {**_source_config(), "samples_out": "no-such-dir/s.samples"},
     ["--samples", "5"], 2),
    # so is an input path that names a directory
    ("analyze", {}, ["--config", "."], 2),
    ("extract", {"samples": "."}, [], 2),
    # rules that only the schema check of the output used to enforce
    ("gen-source", _source_config(), ["--samples", "-5"], 2),
    ("analyze", {"analysis": "bias", "f": {"kind": "majority", "arity": 3}},
     ["--samples", "-5"], 2),
    ("gen-source", {**_source_config(), "samples": -5}, [], 2),
    ("gen-source", {"n": 0, "bad_positions": [],
                    "good_dist": {"kind": "uniform", "n_good": 0}}, [], 2),
    ("build-code", {"m": -1, "r": 8, "target_d": 3}, [], 2),
    # input files that are not UTF-8 text
    ("analyze", {}, ["--config", "bin.json"], 2),
    ("extract", {"samples": "bin.samples"}, [], 2),
    # numbers that JSON has not: NaN, Infinity and 1e999 (read as inf)
    ("gen-source", {**_source_config(), "gamma": float("nan")}, [], 2),
    ("gen-source", {}, ["--config", "inf.json"], 2),
    ("analyze", {"analysis": "fixedness", "spec": "inf_spec.json"}, [], 2),
    ("extract", {"samples": "inf.samples"}, [], 2),
    # inline inputs must be a list of hex strings; paths must be strings
    ("extract", {"inputs": 5}, [], 2),
    ("extract", {"inputs": [5]}, [], 2),
    ("extract", {"params": 0}, [], 2),
    # a code whose claimed distance is not its minimum distance
    ("analyze", {"analysis": "fixedness", "params": "bad_d_params.json"}, [], 2),
], ids=["n70-samples", "n-not-int", "good-dist-no-n_good", "samples-not-int",
        "f-no-arity", "m-not-int", "force-mc-m17", "good-dist-not-object",
        "fixedness-n70", "influence-mc-arity65", "extract-samples-n70",
        "extract-samples-missing", "out-dir-missing", "samples-out-dir-missing",
        "config-is-dir", "extract-samples-is-dir", "samples-flag-negative",
        "analyze-samples-flag-negative", "config-samples-negative", "spec-n-zero",
        "code-m-negative", "config-not-utf8", "extract-samples-not-utf8",
        "config-nan", "config-1e999", "spec-infinity", "samples-header-1e999",
        "extract-inputs-not-list", "extract-inputs-not-hex-strings",
        "extract-params-not-path", "params-code-verified-d-wrong"])
def test_failed_command_exits_cleanly_without_output(tmp_path, capsys,
                                                     monkeypatch, command,
                                                     config, argv, code):
    # 17 one-bit blocks under the identity code give m = 17
    ppath, _ = _params_file(tmp_path, explicit_params(
        17, 17, 1, preset_code("identity-17"), Majority(1)))
    spath = _spec_file(tmp_path, NobfSourceSpec(17, [0], UniformBits(16),
                                                ParityOfGood()))
    # relative paths in the configs name these files
    monkeypatch.chdir(tmp_path)
    _spec_file(tmp_path, NobfSourceSpec(70, [0], UniformBits(69), ParityOfGood()),
               name="wide_spec.json")
    (tmp_path / "wide_params.json").write_text(canonical_json(explicit_params(
        70, 7, 9, preset_code("simplex-k3"), Majority(9)).to_json()))
    header = {"count": 1, "format": "nobf-samples", "n": 70, "seed": 0, "stream": 0}
    (tmp_path / "wide.samples").write_text(json.dumps(header) + "\n" + "0" * 17 + "2\n")
    bad_d = explicit_params(17, 17, 1, preset_code("identity-17"), Majority(1)).to_json()
    bad_d["code"]["verified_d"] = 2  # identity codes have distance 1
    (tmp_path / "bad_d_params.json").write_text(canonical_json(bad_d))
    (tmp_path / "bin.json").write_bytes(b"\xff\xfe\x00{")
    narrow = json.dumps({**header, "n": 17})
    (tmp_path / "bin.samples").write_bytes(narrow.encode() + b"\n\xff\xfe000\n")
    (tmp_path / "inf.samples").write_text(
        narrow.replace('"seed": 0', '"seed": 1e999') + "\n00000\n")
    (tmp_path / "inf.json").write_text(
        json.dumps({**_source_config(), "gamma": 0.5}).replace("0.5", "1e999"))
    _write(tmp_path / "inf_spec.json",  # json.dumps writes inf as Infinity
           {**json.loads(Path(spath).read_text()), "gamma": float("inf")})
    cfg = _write(tmp_path / "cfg.json",
                 {"spec": spath, "params": ppath, **config})
    before = sorted(os.listdir(tmp_path))
    out = tmp_path / "out.json"
    assert _run(command, "--config", cfg, "--out", str(out), *argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("invalid input" if code == 2 else "work cap exceeded") in err
    assert "document failed schema check" not in err
    # no output, no half-written output and no temporary file
    assert sorted(os.listdir(tmp_path)) == before


def test_gen_source_failed_samples_write_leaves_no_file(tmp_path, capsys,
                                                         monkeypatch):
    def write_then_fail(path, *args, **kwargs):
        with open(path, "w") as fh:
            fh.write("partial")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr("nobfext.sources.write_sample_batch", write_then_fail)
    cfg = _write(tmp_path / "cfg.json", _source_config())
    assert _run("gen-source", "--config", cfg, "--out", str(tmp_path / "OUT.json"),
                "--samples", "5") == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "cannot write" in err and "No space left" in err
    assert os.listdir(tmp_path) == ["cfg.json"]


class _FullDisk:
    """A file that takes half of the first text written to it, then fails
    with ENOSPC."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_extract_failed_report_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    ppath, params = _params_file(tmp_path)
    cfg = _write(tmp_path / "cfg.json",
                 {"params": ppath, "inputs": hex_from_words(np.arange(40, dtype=np.uint64),
                                                           params.n)})
    before = sorted(os.listdir(tmp_path))
    monkeypatch.setattr("nobfext.cli.open", lambda path, mode="r": _FullDisk(open(path, mode)),
                        raising=False)
    assert _run("extract", "--config", cfg, "--out", str(tmp_path / "OUT.json")) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert "cannot write" in err and "No space left" in err
    assert sorted(os.listdir(tmp_path)) == before


def test_gen_source_wide_spec_without_samples(tmp_path):
    # the packed width limits drawing, not describing a source
    cfg = _write(tmp_path / "cfg.json",
                 {"n": 70, "bad_positions": [], "good_dist": _WIDE_GOOD})
    out = tmp_path / "spec.json"
    assert _run("gen-source", "--config", cfg, "--out", str(out)) == 0
    assert json.loads(out.read_text())["n"] == 70
    assert not (tmp_path / "spec.json.samples").exists()


def test_exit_3_on_work_cap(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {
        "analysis": "spectrum",
        "distribution": {"kind": "uniform", "m": 22},
    })
    assert _run("analyze", "--config", cfg,
                "--out", str(tmp_path / "o.json")) == 3


def test_max_enum_tightens_cap_without_leaking(tmp_path, monkeypatch):
    cfg = _write(tmp_path / "cfg.json", {
        "analysis": "influence",
        "f": {"kind": "majority", "arity": 7},
        "coalition": [0],
    })
    out = tmp_path / "r.json"
    # the cap is an argument: a cap variable in the environment is not read
    monkeypatch.setenv("NOBF_WORK_CAP", "1")
    environ = dict(os.environ)
    assert _run("analyze", "--config", cfg, "--out", str(out)) == 0
    assert _run("analyze", "--config", cfg, "--out", str(out),
                "--max-enum", "5") == 3
    assert dict(os.environ) == environ
    assert _run("analyze", "--config", cfg, "--out", str(out)) == 0


@pytest.mark.parametrize("analysis", [
    {"analysis": "fixedness", "spec": "spec.json", "params": "params.json"},
    {"analysis": "compare-zeroed", "spec": "spec.json", "params": "params.json"},
    {"analysis": "influence", "f": {"kind": "majority", "arity": 7}, "coalition": [0]},
    {"analysis": "influence", "f": {"kind": "majority", "arity": 7}, "max_size": 2},
], ids=["fixedness", "compare-zeroed", "influence", "influence-max"])
def test_max_enum_bounds_every_exact_walk(tmp_path, capsys, monkeypatch, analysis):
    monkeypatch.chdir(tmp_path)
    _params_file(tmp_path)
    _spec_file(tmp_path, NobfSourceSpec(6, [1], UniformBits(5), ParityOfGood()))
    cfg = _write(tmp_path / "cfg.json", analysis)
    before = sorted(os.listdir(tmp_path))
    assert _run("analyze", "--config", cfg, "--out", "out.json", "--max-enum", "1") == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "work cap exceeded" in err
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("f,bits", [(Majority(3), 10),
                                    (TableFunction(3, [0, 1, 1, 0, 1, 1, 0, 1]), 11)],
                         ids=["monotone", "non-monotone"])
def test_max_enum_refusal_counts_direct_scan_evaluations(tmp_path, monkeypatch, f, bits):
    # 2^8 good outcomes and two blocks with two bad bits each: 2 (monotone)
    # or 2^2 evaluations per block and outcome, as the direct scan makes,
    # although each block's scan runs once over its 2 distinct fixings
    monkeypatch.chdir(tmp_path)
    _, params = _params_file(tmp_path, explicit_params(12, 4, 3, preset_code("identity-2"), f))
    spec = NobfSourceSpec(12, [0, 1, 3, 4], UniformBits(8), ParityOfGood())
    _spec_file(tmp_path, spec)
    cfg = _write(tmp_path / "cfg.json", {"analysis": "fixedness", "spec": "spec.json",
                                         "params": "params.json"})
    assert _run("analyze", "--config", cfg, "--out", "out.json",
                "--max-enum", str(bits)) == 0
    assert _run("analyze", "--config", cfg, "--out", "out.json",
                "--max-enum", str(bits - 1)) == 3
    assert fixedness_probability(spec, params, cap=1 << bits).is_exact
    with pytest.raises(WorkCapExceeded) as exc:
        fixedness_probability(spec, params, cap=(1 << bits) - 1)
    assert exc.value.required == 1 << bits


def test_workers_must_be_positive(tmp_path):
    cfg = _write(tmp_path / "cfg.json", _source_config())
    assert _run("gen-source", "--config", cfg,
                "--out", str(tmp_path / "o.json"), "--workers", "0") == 2


def test_written_documents_are_canonical(tmp_path):
    cfg = _write(tmp_path / "cfg.json", dict(_source_config(), samples=50))
    out = tmp_path / "spec.json"
    assert _run("gen-source", "--config", cfg, "--out", str(out)) == 0
    ppath, _ = _params_file(tmp_path)
    wide = _write(tmp_path / "wide.json", explicit_params(
        250, 3, 81, preset_code("identity-3"), RecursiveMajority3(4)).to_json())
    wide_inputs = hex_from_words(words_from_ints(
        [3 ** k % (1 << 250) for k in range(0, 300, 7)], 250), 250)
    reports = {"from-file": {"params": ppath, "samples": f"{out}.samples"},
               "wide-inputs": {"params": wide, "inputs": wide_inputs},
               "no-inputs": {"params": ppath, "inputs": []}}
    outs = [out]
    for name, config in reports.items():
        outs.append(tmp_path / f"{name}.json")
        assert _run("extract", "--config", _write(tmp_path / "cfg.json", config),
                    "--out", str(outs[-1])) == 0
    for path in outs:
        text = path.read_text()
        assert text == canonical_json(json.loads(text))
    counts = [json.loads(path.read_text())["count"] for path in outs[1:]]
    assert counts == [50, len(wide_inputs), 0]


@st.composite
def _report_batches(draw):
    """Params whose block_len, ell, r and m may each cross a 64-bit word
    boundary, a batch of 0, 1 or many inputs of their width (1-D words
    when n fits one word, sometimes), and a user config that may hold a
    traces key and characters JSON escapes."""
    ell = draw(st.integers(1, 70))
    block_len = draw(st.integers(1, 280 // ell))
    n = ell * block_len + draw(st.integers(0, 70))
    r = draw(st.integers(1, ell))
    m = draw(st.integers(1, r))
    extra = draw(st.lists(st.integers(0, (1 << (r - m)) - 1), min_size=m, max_size=m))
    # full rank: the low m columns are the identity
    code = LinearCode(r, [(1 << i) | (e << m) for i, e in enumerate(extra)], verified_d=1)
    params = explicit_params(n, ell, block_len, code, default_block_function(block_len))
    count = draw(st.sampled_from([0, 1, draw(st.integers(2, 30))]))
    xs = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=count, max_size=count))
    words = words_from_ints(xs, n)
    if n <= 64 and draw(st.booleans()):
        words = words[:, 0]
    config = draw(st.dictionaries(
        st.text(max_size=6),
        st.one_of(st.text(max_size=8), st.integers(), st.lists(st.text(max_size=4))),
        max_size=4))
    if draw(st.booleans()):
        config["traces"] = draw(st.sampled_from([[], "[]", {"traces": []}]))
    return params, words, config


@settings(max_examples=150, deadline=None)
@given(_report_batches())
@example((explicit_params(150, 70, 2, LinearCode(70, [1 << i for i in range(70)], 1),
                          Tribes(2, 1)),
          words_from_ints([(1 << 150) - 1, 5 << 64, 1 << 139], 150), {}))  # y, y_used, z: 2 words
@example((explicit_params(250, 2, 125, preset_code("repetition-2"), Majority(125)),
          words_from_ints([(1 << 250) - 1, 0, 1 << 130], 250),
          {"traces": [], "%s": "%(z)s @ \"q\" \\ \u0663 \u00e9", "@": ["\n  \"traces\": []"]}))
def test_report_writer_matches_dict_traces_byte_for_byte(batch):
    params, words, config = batch
    count = len(words)
    doc = {"format": "extraction-report", "version": 1, "n": params.n, "count": count,
           "traces": [], "run": _run_block("extract", 1, config, count)}
    chunks = report_chunks(doc, params, trace_columns(words, params))
    assert b"".join(chunks).decode("ascii") == oracles.report_json(doc, words, params)


# ---------------------------------------------------------------------------
# start-up: a command loads only the modules and dependencies it needs


_LOADED_AFTER_MAIN = """
import json, sys
from nobfext import cli
rc = cli.main(sys.argv[2:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] in sys.argv[1].split(","))
print(json.dumps({"rc": rc, "loaded": loaded}))
"""


def _modules_loaded_by(cwd, *argv, packages=("scipy", "mpmath", "jsonschema")):
    """Run cli.main in a fresh interpreter on the checkout's src/; return its
    exit code and the modules of `packages` it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _LOADED_AFTER_MAIN, ",".join(packages),
                           *argv], cwd=cwd, env=env, capture_output=True, text=True,
                          check=True)
    res = json.loads(proc.stdout.splitlines()[-1])
    _check_outputs(Path(cwd) / argv[argv.index("--out") + 1], res["rc"])
    return res["rc"], set(res["loaded"])


def test_exact_command_loads_neither_scipy_nor_mpmath(tmp_path):
    cfg = _write(tmp_path / "bias.json",
                 {"analysis": "bias", "f": {"kind": "majority", "arity": 3}})
    rc, heavy = _modules_loaded_by(tmp_path, "analyze", "--config", cfg,
                                   "--out", "bias-out.json")
    assert rc == 0
    assert heavy == set()


def test_no_command_loads_jsonschema_or_mpmath(tmp_path):
    # documents are checked by schemas' own checker and derived parameters
    # are evaluated with decimal: both libraries are test oracles only
    ppath, _ = _params_file(tmp_path)
    spath = _spec_file(tmp_path, NobfSourceSpec(6, [1], UniformBits(5), ParityOfGood()))
    derived = tmp_path / "derived-params.json"
    derived.write_text(canonical_json(derive_params(n=64, delta=0.8, t=4).to_json()))
    commands = {
        "bias": ("analyze", {"analysis": "bias", "f": {"kind": "majority", "arity": 3}}),
        "source": ("gen-source", {**_source_config(), "samples": 5}),
        "code": ("build-code", {"preset": "hamming-7-4"}),
        "ext": ("extract", {"params": ppath, "samples": "source-out.json.samples"}),
        "fix": ("analyze", {"analysis": "fixedness", "spec": spath, "params": ppath}),
        "derived": ("extract", {"params": str(derived), "inputs": ["0f" * 8]}),
    }
    for name, (command, config) in commands.items():
        cfg = _write(tmp_path / f"{name}.json", config)
        rc, heavy = _modules_loaded_by(tmp_path, command, "--config", cfg,
                                       "--out", f"{name}-out.json")
        assert rc == 0, name
        assert heavy == set(), name


def test_each_command_loads_only_its_modules(tmp_path):
    # `import nobfext` resolves its public names on first use and each
    # command imports the kernels it runs, so no command compiles the rest
    ppath, _ = _params_file(tmp_path)
    commands = {
        "source": ("gen-source", {**_source_config(), "samples": 5},
                   {"bfext", "codes", "resilient", "stats"}),
        "preset": ("build-code", {"preset": "hamming-7-4"},
                   {"sources", "resilient", "stats", "bfext"}),
        "search": ("build-code", {"m": 3, "r": 9, "target_d": 4},
                   {"sources", "resilient", "stats", "bfext"}),
        "bias": ("analyze", {"analysis": "bias", "f": {"kind": "majority", "arity": 3}},
                 {"bfext", "codes"}),
        "influence": ("analyze", {"analysis": "influence", "max_size": 2,
                                  "f": {"kind": "majority", "arity": 5}}, {"bfext", "codes"}),
        "extract": ("extract", {"params": ppath, "inputs": ["f3"]}, {"stats"}),
    }
    for name, (command, config, skipped) in commands.items():
        cfg = _write(tmp_path / f"{name}.json", config)
        rc, loaded = _modules_loaded_by(tmp_path, command, "--config", cfg, "--out",
                                        f"{name}-out.json", packages=("nobfext", "concurrent"))
        assert rc == 0, name
        assert "nobfext.cli" in loaded and not loaded & {f"nobfext.{m}" for m in skipped}, name
        assert "concurrent.futures" not in loaded, name  # --workers 1 starts no pool
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", "import sys, nobfext; print(*sys.modules)"],
                          env=env, capture_output=True, text=True, check=True)
    assert {m for m in proc.stdout.split() if m.split(".")[0] == "nobfext"} == {"nobfext"}


def test_threaded_walk_loads_neither_concurrent_futures_nor_logging(tmp_path):
    # --workers 2 over several pieces runs on plain threads
    spath = _spec_file(tmp_path, NobfSourceSpec(63, [1, 5], UniformBits(61), ParityOfGood()))
    ppath, _ = _params_file(tmp_path, explicit_params(
        63, 21, 3, preset_code("identity-2"), Majority(3)))
    cfg = _write(tmp_path / "fixedness.json", {"analysis": "fixedness", "spec": spath,
                                               "params": ppath, "samples": 100_000})
    rc, loaded = _modules_loaded_by(tmp_path, "analyze", "--config", cfg, "--out", "out.json",
                                    "--workers", "2", packages=("concurrent", "logging"))
    assert rc == 0 and loaded == set()


def test_public_names_resolve_to_their_home_modules():
    import nobfext
    for name in nobfext.__all__:
        obj = getattr(nobfext, name)
        assert obj.__module__.startswith("nobfext.") and name in dir(nobfext), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert nobfext.UniformBits is sys.modules["nobfext.sources"].UniformBits
    star = {}
    exec("from nobfext import *", star)
    assert star.keys() - {"__builtins__"} == set(nobfext.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        nobfext.no_such_name
    with pytest.raises(ImportError):
        exec("from nobfext import no_such_name", {})


def test_runtime_dependencies_are_numpy_only():
    # scipy, jsonschema and mpmath are test-only oracles
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
             for dep in project["dependencies"]}
    assert names == {"numpy"}


_EMPIRICAL_BIAS = """
import json, sys
import numpy as np
from nobfext import Distribution, Majority, bias_under
est = bias_under(Majority(3), Distribution.empirical(3, np.arange(4000) % 8))
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath"))
print(json.dumps({"method": est.method, "heavy": heavy}))
"""


def test_interval_commands_load_neither_scipy_nor_mpmath(tmp_path):
    ppath, _ = _params_file(tmp_path)
    spath = _spec_file(tmp_path, NobfSourceSpec(6, [1], UniformBits(5),
                                                ParityOfGood()))
    commands = {
        "fix": {"analysis": "fixedness", "spec": spath, "params": ppath,
                "force_mc": True, "samples": 1000},
        "infl": {"analysis": "influence", "f": {"kind": "majority", "arity": 3},
                 "coalition": [0], "mode": "mc", "samples": 1000},
    }
    for name, config in commands.items():
        cfg = _write(tmp_path / f"{name}.json", config)
        rc, heavy = _modules_loaded_by(tmp_path, "analyze", "--config", cfg,
                                       "--out", f"{name}-out.json")
        assert rc == 0
        result = json.loads((tmp_path / f"{name}-out.json").read_text())["result"]
        assert not result["exact"], name
        assert not any(m.split(".")[0] in ("scipy", "mpmath") for m in heavy), name
    # the CLI's distributions are exact tables, so bias on an empirical
    # distribution forms its interval through the library
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", _EMPIRICAL_BIAS], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True)
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res == {"method": "clopper-pearson", "heavy": []}
