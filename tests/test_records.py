"""The library's records: plain classes over `__slots__` (`errors.Record`).

Each keeps what a generated record gave: equality by type and fields
(identity on `Distribution`), hashing of the frozen ones, read-only
attributes, a field repr (`LinearCode` and `BiasSpectrum` keep their own),
copies and pickles, and a `to_json` whose values are those the generated
records wrote.  None
of them has a `__dict__`, and importing the library loads no `dataclasses`.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nobfext.bfext import BfextParams, CompareZeroedReport, WorstAdversaryReport
from nobfext.codes import LinearCode
from nobfext.resilient import Tribes
from nobfext.sources import Distribution, TableAdversary, TwiseReport
from nobfext.stats import BiasSpectrum, Estimate, VaziraniReport, XorBiasReport

SRC = Path(__file__).resolve().parents[1] / "src"

_EST = {"value": 0.25, "lo": 0.125, "hi": 0.5, "samples": 100, "confidence": 0.99,
        "method": "clopper-pearson"}
_EST_REPR = ("Estimate(value=0.25, lo=0.125, hi=0.5, samples=100, confidence=0.99, "
             "method='clopper-pearson')")
_CODE = {"format": "linear-code", "version": 1, "m": 3, "r": 3, "rows": ["1", "2", "4"],
         "verified_d": 1, "construction": {"kind": "explicit"}}
_ADVERSARY = TableAdversary(1, [0, 1])
_TRIBES = Tribes(1, 2)  # block functions and adversaries compare by identity

# name -> (a fresh record, its to_json, its repr, frozen); the to_json
# values are those the generated records gave (`asdict` where they had no
# to_json), so documents keep their bytes
RECORDS = {
    "Estimate": (lambda: Estimate(**_EST), _EST, _EST_REPR, True),
    "CompareZeroedReport": (
        lambda: CompareZeroedReport(sd=Estimate(**_EST), exact=False, m=2, mismatch_rate=0.0625),
        {"sd": _EST, "exact": False, "m": 2, "mismatch_rate": 0.0625},
        f"CompareZeroedReport(sd={_EST_REPR}, exact=False, m=2, mismatch_rate=0.0625)", True),
    "WorstAdversaryReport": (
        lambda: WorstAdversaryReport(adversary=_ADVERSARY, sd=0.5, method="transform"),
        {"adversary": {"kind": "explicit-function-table", "n_good": 1, "table": [0, 1]},
         "sd": 0.5, "method": "transform", "sweeps": 0},
        f"WorstAdversaryReport(adversary={_ADVERSARY!r}, sd=0.5, method='transform', "
        "sweeps=0)", True),
    "BfextParams": (
        lambda: BfextParams(6, 3, 2, LinearCode(3, (1, 2, 4), 1), _TRIBES),
        {"format": "bfext-params", "version": 1, "mode": "explicit", "n": 6, "ell": 3,
         "block_len": 2, "delta": None, "alpha": None, "beta": None, "t": None,
         "code": _CODE, "f": {"kind": "tribes", "w": 1, "s": 2}},
        "BfextParams(n=6, ell=3, block_len=2, code=LinearCode[3,3,1], f=Tribes(arity=2), "
        "mode='explicit', delta=None, alpha=None, beta=None, t=None)", False),
    "LinearCode": (lambda: LinearCode(3, (1, 2, 4), 1), _CODE, "LinearCode[3,3,1]", False),
    "Distribution": (
        lambda: Distribution.exact(1, [0.25, 0.75]),
        {"m": 1, "probs": [0.25, 0.75], "samples": None, "seed": None},
        "Distribution(m=1, probs=array([0.25, 0.75]), samples=None, seed=None)", True),
    "TwiseReport": (
        lambda: TwiseReport(ok=False, worst_subset=(0, 2), worst_distance=0.125),
        {"ok": False, "worst_subset": (0, 2), "worst_distance": 0.125},
        "TwiseReport(ok=False, worst_subset=(0, 2), worst_distance=0.125)", True),
    "BiasSpectrum": (
        lambda: BiasSpectrum(m=1, biases=np.array([1.0, 0.5])),
        {"m": 1, "max_bias": 0.5, "argmax_subset": 1, "biases": {"1": 0.5}},
        "BiasSpectrum(m=1)", True),
    "VaziraniReport": (
        lambda: VaziraniReport(max_bias=0.5, sd=0.25, bound=0.7071067811865476, holds=True),
        {"max_bias": 0.5, "sd": 0.25, "bound": 0.7071067811865476, "holds": True},
        "VaziraniReport(max_bias=0.5, sd=0.25, bound=0.7071067811865476, holds=True)", True),
    "XorBiasReport": (
        lambda: XorBiasReport(distance=0.125, factors=(0.5, 0.25), literal_bound=None,
                              literal_holds=None),
        {"distance": 0.125, "factors": [0.5, 0.25], "literal_bound": None,
         "literal_holds": None},
        "XorBiasReport(distance=0.125, factors=(0.5, 0.25), literal_bound=None, "
        "literal_holds=None)", True),
}


def _plain(doc):
    """doc with its arrays as lists, so that it compares with `==`."""
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in doc.items()}


@pytest.mark.parametrize("name", RECORDS)
def test_record_keeps_what_a_generated_record_gave(name):
    make, doc, text, frozen = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name and not hasattr(a, "__dict__")
    assert _plain(a.to_json()) == doc and repr(a) == text
    field = type(a).__slots__[0]
    for twin in copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a)):
        assert type(twin) is type(a) and _plain(twin.to_json()) == doc
    with pytest.raises(AttributeError):
        a.undeclared = 1
    if name == "Distribution":  # equal only to itself
        assert a == a and a != b and hash(a) != hash(b) and len({a, b, a}) == 2
    elif name == "BiasSpectrum":  # an array field: equal to itself, unhashable
        assert a == a
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert a == b and not a != b and a != tuple(a.to_json().values())
        if frozen:
            assert hash(a) == hash(b) and len({a, b}) == 1
        else:
            with pytest.raises(TypeError):
                hash(a)
    if frozen:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert _plain(a.to_json()) == doc
    else:  # the mutable records take new field values
        setattr(a, field, getattr(b, field))
        assert getattr(a, field) is getattr(b, field)


def test_records_differ_by_any_field_and_by_type():
    assert Estimate(**_EST) != Estimate(**{**_EST, "samples": 99})
    assert TwiseReport(True, None, 0.0) != TwiseReport(True, None, 0.5)
    assert VaziraniReport(0.5, 0.25, 1.0, True) != XorBiasReport(0.5, 0.25, 1.0, True)
    assert LinearCode(3, (1, 2, 4), 1) != LinearCode(3, (1, 2, 4), 1, {"kind": "preset"})


def test_library_import_loads_no_dataclasses():
    # a record defined by a dataclass decorator generates and execs its
    # methods' source at import, in every process
    modules = sorted(f"nobfext.{p.stem}".removesuffix(".__init__")
                     for p in (SRC / "nobfext").glob("*.py"))
    script = (f"import sys\nfor m in {modules!r}:\n    __import__(m)\n"
              "print('dataclasses' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["False"]
