"""Block functions and coalition influence."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import block_value, influence_max_brute, scatter_bits, tribes_value

from nobfext.bitops import popcount, words_from_ints
from nobfext.errors import DimensionError, ValidationError, WorkCapExceeded
from nobfext.resilient import (Majority, RecursiveMajority3, ResilientFunction,
                               TableFunction, Tribes, _scan_evals, _undetermined_mask,
                               bias_under, default_block_function,
                               function_from_descriptor, influence_exact,
                               influence_max_exact, influence_mc, is_monotone)
from nobfext.sources import Distribution, ExactTwise, ExplicitTable, UniformBits


# ---------------------------------------------------------------------------
# the functions themselves


def test_majority_values():
    maj3 = Majority(3)
    assert maj3.eval_batch(np.array([0b011, 0b001], dtype=np.uint64)).tolist() == [1, 0]
    assert maj3.truth_table().tolist() == [0, 0, 0, 1, 0, 1, 1, 1]
    with pytest.raises(ValidationError):
        Majority(4)


def test_majority_batch_matches_scalar():
    maj5 = Majority(5)
    xs = np.arange(32, dtype=np.uint64)
    assert np.array_equal(maj5.eval_batch(xs),
                          [block_value(maj5, x) for x in range(32)])


def test_tribes_values():
    f = Tribes(2, 2)  # (x0 and x1) or (x2 and x3)
    assert f.arity == 4
    xs = np.array([0b0011, 0b1100, 0b0110, 0], dtype=np.uint64)
    assert f.eval_batch(xs).tolist() == [1, 1, 0, 0]
    # exactly 7 of 16 inputs satisfy it: 1 - (3/4)^2 = 7/16
    assert int(f.truth_table().sum()) == 7
    xs = np.arange(16, dtype=np.uint64)
    assert np.array_equal(f.eval_batch(xs), [block_value(f, x) for x in range(16)])


@pytest.mark.parametrize("w,s", [(w, s) for w in range(1, 7) for s in range(1, 5)
                                 if w * s <= 14])
def test_tribes_batch_scalar_and_truth_table_agree(w, s):
    f = Tribes(w, s)
    xs = np.arange(1 << f.arity, dtype=np.uint64)
    want = [tribes_value(w, s, x) for x in range(1 << f.arity)]
    assert f.eval_batch(xs).tolist() == want
    assert f.truth_table().tolist() == want


def test_tribes_wide_inputs_match_oracle():
    rng = np.random.default_rng(3)
    for w, s in [(32, 2), (64, 1), (5, 12), (1, 64), (3, 700), (7, 300)]:
        f = Tribes(w, s)
        full = (1 << w) - 1
        cases = [0, (1 << f.arity) - 1]
        for _ in range(20):
            x = int.from_bytes(rng.bytes(-(-f.arity // 8)), "little") & ((1 << f.arity) - 1)
            x &= ~int.from_bytes(rng.bytes(-(-f.arity // 8)), "little")  # sparser
            cases += [x, x | full << (w * int(rng.integers(s)))]
        want = [tribes_value(w, s, x) for x in cases]
        assert f.eval_batch(words_from_ints(cases, f.arity)).tolist() == want
        if f.arity <= 64:
            assert f.eval_batch(np.array(cases, dtype=np.uint64)).tolist() == want


def test_tribes_degenerate_shapes():
    # w=1 is an OR, s=1 a single AND
    assert Tribes(1, 3).truth_table().tolist() == [0, 1, 1, 1, 1, 1, 1, 1]
    assert Tribes(3, 1).truth_table().tolist() == [0, 0, 0, 0, 0, 0, 0, 1]
    with pytest.raises(ValidationError):
        Tribes(0, 2)


def test_recursive_majority_values():
    r1 = RecursiveMajority3(1)
    assert np.array_equal(r1.truth_table(), Majority(3).truth_table())
    r2 = RecursiveMajority3(2)
    assert r2.arity == 9
    # top majority of the three block majorities
    maj3 = Majority(3)
    for x in [0, 0b111000000, 0b111111000, (1 << 9) - 1, 0b011110001]:
        blocks = [(x >> (3 * i)) & 7 for i in range(3)]
        expect = block_value(maj3, sum(block_value(maj3, b) << i
                                       for i, b in enumerate(blocks)))
        assert r2.eval_batch(np.array([x], dtype=np.uint64))[0] == expect
    xs = np.arange(512, dtype=np.uint64)
    assert np.array_equal(r2.eval_batch(xs), [block_value(r2, x) for x in range(512)])


# one, two and three words per input; the tribes at (5, 20) and (7, 25)
# straddle word boundaries, and (65, 2) has tribes wider than a word
_BLOCK_FUNCTIONS = [
    Majority(5), Majority(63), Tribes(3, 4), Tribes(8, 8), RecursiveMajority3(2),
    RecursiveMajority3(3), TableFunction(4, np.arange(16) * 7 % 3 == 1),
    Majority(65), Majority(127), Tribes(5, 20), Tribes(65, 1), RecursiveMajority3(4),
    Majority(129), Tribes(7, 25), Tribes(65, 2), Tribes(1, 150),
]


@st.composite
def _block_inputs(draw, f):
    """Inputs to f: uniform, sparse or dense, and for tribes often with
    one tribe filled so that both outputs occur."""
    a, b = (draw(st.integers(0, (1 << f.arity) - 1)) for _ in range(2))
    x = draw(st.sampled_from([a, a & b, a | b]))
    if isinstance(f, Tribes) and draw(st.booleans()):
        x |= ((1 << f.w) - 1) << (f.w * draw(st.integers(0, f.s - 1)))
    return x


@settings(max_examples=150, deadline=None)
@given(f=st.sampled_from(_BLOCK_FUNCTIONS), data=st.data())
def test_eval_batch_matches_oracle_on_one_to_three_words(f, data):
    xs = data.draw(st.lists(_block_inputs(f), min_size=1, max_size=16))
    want = [block_value(f, x) for x in xs]
    assert f.eval_batch(words_from_ints(xs, f.arity)).tolist() == want
    if f.arity <= 64:
        assert f.eval_batch(np.array(xs, dtype=np.uint64)).tolist() == want
    if f.arity <= 20:
        assert f.truth_table()[xs].tolist() == want


def test_eval_batch_word_layout_checks():
    # a 1-D array holds one word per input; wider inputs need (N, W) words
    with pytest.raises(WorkCapExceeded):
        Majority(65).eval_batch(np.zeros(3, dtype=np.uint64))
    with pytest.raises(DimensionError):
        Majority(65).eval_batch(np.zeros((3, 3), dtype=np.uint64))


@pytest.mark.parametrize("f", [Majority(3), Tribes(2, 2), RecursiveMajority3(1),
                               TableFunction(2, [0, 1, 1, 0])], ids=lambda f: f.kind)
def test_eval_batch_refuses_non_integer_words(f):
    # Majority(3) read [3.7, 1.2] as [3, 1] and returned [1, 0]
    for xs in (np.array([3.7, 1.2]), np.array([True, False]), np.array([-1, 2]),
               np.array([[1.0]])):
        with pytest.raises(ValidationError):
            f.eval_batch(xs)
    assert np.array_equal(f.eval_batch(np.array([3, 1])),
                          f.eval_batch(np.array([3, 1], dtype=np.uint64)))


def test_table_function_hex_round_trip_at_arity_cap():
    rng = np.random.default_rng(20)
    table = rng.integers(0, 2, size=1 << 20, dtype=np.uint8)
    f = TableFunction(20, table)
    d = f.descriptor()
    # 2^18 digits, least significant nibble first
    packed = int.from_bytes(np.packbits(table, bitorder="little").tobytes(), "little")
    assert d["table_hex"] == format(packed, "0262144x")[::-1]
    g = function_from_descriptor(d)
    assert np.array_equal(g.truth_table(), table)
    assert g.descriptor() == d


def test_table_function_and_hex():
    f = TableFunction(2, [0, 1, 1, 0])  # XOR
    assert f.eval_batch(np.arange(4, dtype=np.uint64)).tolist() == [0, 1, 1, 0]
    g = TableFunction.from_values_hex(2, f.descriptor()["table_hex"])
    assert np.array_equal(g.truth_table(), f.truth_table())
    c = TableFunction.constant(3, 1)
    assert np.all(c.truth_table() == 1)
    with pytest.raises(ValidationError):
        TableFunction(2, [0, 1, 2, 0])
    with pytest.raises(ValidationError):
        TableFunction(2, [0, 1, 1])


def test_function_descriptor_round_trip():
    for f in [Majority(5), Tribes(2, 3), RecursiveMajority3(2),
              TableFunction(3, [0, 1, 1, 0, 1, 0, 0, 1])]:
        g = function_from_descriptor(f.descriptor())
        assert g.arity == f.arity
        assert np.array_equal(g.truth_table(), f.truth_table())


def test_default_block_function():
    assert isinstance(default_block_function(5), Majority)
    f = default_block_function(6)
    assert isinstance(f, Tribes) and f.arity == 6


# ---------------------------------------------------------------------------
# monotonicity


def test_is_monotone():
    assert is_monotone(Majority(3))
    assert is_monotone(Tribes(2, 3))
    assert is_monotone(RecursiveMajority3(2))
    assert is_monotone(TableFunction.constant(3, 0))
    assert not is_monotone(TableFunction(2, [0, 1, 1, 0]))  # XOR
    assert not is_monotone(TableFunction(1, [1, 0]))        # NOT


class _Parity(ResilientFunction):
    """XOR of all inputs: not monotone, at any arity."""

    kind = "parity"

    def __init__(self, arity: int):
        self.arity = arity

    def eval_batch(self, xs):
        return (popcount(self._words(xs)) & 1).astype(np.uint8)


@pytest.mark.parametrize("f", [Majority(1), Majority(3), Majority(7), Tribes(1, 1),
                               Tribes(2, 3), Tribes(3, 2), Tribes(1, 5),
                               RecursiveMajority3(1), RecursiveMajority3(2),
                               TableFunction(2, [0, 1, 1, 0]), _Parity(5)],
                         ids=repr)
def test_monotone_flag_matches_is_monotone(f):
    assert f.monotone == is_monotone(f)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([Majority(5), Majority(9), Tribes(2, 3), Tribes(3, 3),
                        RecursiveMajority3(2)]),
       st.data())
def test_two_point_mask_equals_full_scan(f, data):
    # the monotone shortcut against the 2^|Q| scan of the same truth table
    qpos = sorted(data.draw(st.sets(st.integers(0, f.arity - 1), min_size=1)))
    rest = [i for i in range(f.arity) if i not in qpos]
    fixings = np.arange(1 << len(rest), dtype=np.uint64)
    scanned = TableFunction(f.arity, f.truth_table())
    assert f.monotone and not scanned.monotone
    assert np.array_equal(_undetermined_mask(f, qpos, rest, fixings),
                          _undetermined_mask(scanned, qpos, rest, fixings))


def _brute_mask(f, qpos, rest, fixings) -> list[bool]:
    """Per fixing: whether both outputs occur over the 2^|Q| coalition
    patterns, f evaluated one input at a time."""
    value = ((lambda x: x.bit_count() & 1) if isinstance(f, _Parity)
             else lambda x: block_value(f, x))
    patterns = scatter_bits(range(1 << len(qpos)), qpos)
    fixings = [int(v) for v in fixings]
    both = {v: len({value(base | p) for p in patterns}) == 2
            for v, base in zip(fixings, scatter_bits(fixings, rest))}
    return [both[v] for v in fixings]


_RANDOM_TABLES = st.builds(lambda bits: TableFunction(5, [(bits >> i) & 1 for i in range(32)]),
                           st.integers(0, (1 << 32) - 1))


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.sampled_from([Majority(5), Majority(7), Tribes(2, 3), Tribes(3, 2),
                                  RecursiveMajority3(2), _Parity(6)]), _RANDOM_TABLES),
       st.data())
def test_mask_over_repeated_fixings_matches_brute_force(f, data):
    # batches longer than the 2^|rest| distinct fixings, so with repeats:
    # the mask is read from one scan over every fixing
    qpos = sorted(data.draw(st.sets(st.integers(0, f.arity - 1), min_size=1)))
    rest = [i for i in range(f.arity) if i not in qpos]
    rng = np.random.default_rng(data.draw(st.integers(0, (1 << 32) - 1)))
    size = (1 << len(rest)) + data.draw(st.integers(1, 40))
    fixings = rng.integers(0, 1 << len(rest), size=size, dtype=np.uint64)
    assert _undetermined_mask(f, qpos, rest, fixings).tolist() == \
        _brute_mask(f, qpos, rest, fixings)


class _Recorded(ResilientFunction):
    """f, keeping a copy of every batch it is evaluated on."""

    def __init__(self, f: ResilientFunction):
        self.f, self.arity, self.monotone, self.batches = f, f.arity, f.monotone, []

    def eval_batch(self, xs):
        self.batches.append(np.array(xs))
        return self.f.eval_batch(xs)


@pytest.mark.parametrize("f", [Majority(5), _Parity(5)], ids=repr)
def test_mask_table_branch_edges(f):
    qpos, rest = [1, 3], [0, 2, 4]
    rec = _Recorded(f)
    assert _undetermined_mask(rec, qpos, rest, np.zeros(0, dtype=np.uint64)).size == 0
    # exactly 2^|rest| fixings: the direct scan, on the batch's own inputs
    rec.batches.clear()
    zeros = np.zeros(8, dtype=np.uint64)
    assert _undetermined_mask(rec, qpos, rest, zeros).tolist() == \
        _brute_mask(f, qpos, rest, zeros)
    assert all(np.all(batch == batch[0]) for batch in rec.batches)
    # one more: the same number of evaluations, over the 8 distinct fixings
    rec.batches.clear()
    fixings = np.array([5, 5, 0, 7, 5, 1, 2, 3, 7], dtype=np.uint64)
    assert _undetermined_mask(rec, qpos, rest, fixings).tolist() == \
        _brute_mask(f, qpos, rest, fixings)
    assert [len(np.unique(batch)) for batch in rec.batches] == [8] * (2 if f.monotone else 4)
    # rest == []: the coalition is every coordinate, one fixing repeated
    assert _undetermined_mask(f, list(range(5)), [], np.zeros(3, dtype=np.uint64)).tolist() \
        == _brute_mask(f, list(range(5)), [], [0, 0, 0]) == [True] * 3


def test_monotone_matches_brute_force_on_random_tables():
    rng = np.random.default_rng(5)
    for _ in range(40):
        table = rng.integers(0, 2, size=16).astype(np.uint8)
        f = TableFunction(4, table)
        brute = True
        for x in range(16):
            for j in range(4):
                if not (x >> j) & 1 and table[x | (1 << j)] < table[x]:
                    brute = False
        assert is_monotone(f) == brute


# ---------------------------------------------------------------------------
# bias


def test_bias_exact():
    assert bias_under(Majority(3), Distribution.uniform(3)) == 0.0
    assert bias_under(Tribes(2, 2), Distribution.uniform(4)) == pytest.approx(1 / 16)
    assert bias_under(TableFunction.constant(2, 1), Distribution.uniform(2)) == 0.5
    skew = Distribution.exact(1, [0.9, 0.1])
    assert bias_under(TableFunction(1, [0, 1]), skew) == pytest.approx(0.4)


def test_bias_empirical_interval_covers_exact():
    f = Tribes(2, 2)
    draws = UniformBits(4).sample_batch(3, 0, 0, 1 << 14)
    est = bias_under(f, Distribution.empirical(4, draws))
    assert est.lo <= 1 / 16 <= est.hi
    assert est.width < 0.03


# ---------------------------------------------------------------------------
# influence: exact, maximal, sampled


def test_influence_exact_examples():
    # a single majority-of-3 voter is pivotal iff the other two split: 1/2
    assert influence_exact(Majority(3), [0], UniformBits(2)) == pytest.approx(0.5)
    # two voters control majority-of-3 outright
    assert influence_exact(Majority(3), [0, 1], UniformBits(1)) == pytest.approx(1.0)
    # no coalition, no influence
    assert influence_exact(Majority(3), [], UniformBits(3)) == 0.0
    # a constant function cannot be influenced
    assert influence_exact(TableFunction.constant(3, 1), [0, 2], UniformBits(1)) == 0.0


def test_influence_exact_xor_always_one():
    f = TableFunction(3, [0, 1, 1, 0, 1, 0, 0, 1])
    for j in range(3):
        assert influence_exact(f, [j], UniformBits(2)) == 1.0


def test_influence_tribes_single_bit():
    # bit 0 of (x0&x1)|(x2&x3) matters iff x1=1 and the other tribe is 0:
    # (1/2)(3/4) = 3/8
    assert influence_exact(Tribes(2, 2), [0], UniformBits(3)) == pytest.approx(3 / 8)


def test_influence_monotone_in_coalition():
    # adding members never shrinks a coalition's influence
    for f in [Majority(5), Tribes(2, 2), RecursiveMajority3(1)]:
        n = f.arity
        for size in range(n):
            for base in itertools.combinations(range(n), size):
                v0 = influence_exact(f, base, UniformBits(n - size))
                for extra in range(n):
                    if extra in base:
                        continue
                    bigger = sorted(base + (extra,))
                    v1 = influence_exact(f, bigger, UniformBits(n - size - 1))
                    assert v1 >= v0 - 1e-12


def test_influence_respects_fixing_distribution():
    # pin the other two majority voters to equal values: bit 0 never pivotal
    locked = ExplicitTable([0.5, 0.0, 0.0, 0.5])
    assert influence_exact(Majority(3), [0], locked) == 0.0
    # force a split: always pivotal
    split = ExplicitTable([0.0, 0.5, 0.5, 0.0])
    assert influence_exact(Majority(3), [0], split) == 1.0


def test_influence_max_exact():
    val, witness = influence_max_exact(Majority(3), 1, UniformBits(2))
    assert val == pytest.approx(0.5) and len(witness) == 1
    val, witness = influence_max_exact(Majority(3), 2, UniformBits(1))
    assert val == 1.0 and len(witness) == 2
    assert influence_max_exact(Majority(3), 0, UniformBits(3)) == (0.0, ())
    # tribes: the most influential single bit
    val, witness = influence_max_exact(Tribes(2, 2), 1, UniformBits(3))
    assert val == pytest.approx(3 / 8)


def test_influence_work_caps():
    with pytest.raises(WorkCapExceeded):
        influence_exact(Majority(7), [0], UniformBits(6), cap=64)
    # the cap bounds all 21 coalition walks together (21 x 2^5 x 2 units),
    # not each one on its own
    with pytest.raises(WorkCapExceeded):
        influence_max_exact(Majority(7), 2, UniformBits(5), cap=1000)
    assert influence_max_exact(Majority(7), 2, UniformBits(5), cap=1344)[0] == 0.625
    # a fixing of the wrong width is a dimension error, whatever its size
    with pytest.raises(DimensionError, match="covers 24 coordinates, need 5"):
        influence_max_exact(Majority(7), 2, UniformBits(24))
    # the 2^|Q| scan of a non-monotone function is capped at 20 coordinates;
    # a monotone one takes two evaluations, so its coalition is not capped
    with pytest.raises(WorkCapExceeded):
        influence_mc(_Parity(21), list(range(21)), UniformBits(0), samples=10, seed=0)
    assert influence_mc(Majority(21), list(range(21)), UniformBits(0),
                        samples=10, seed=0).value == 1.0
    # a 65-bit block does not fit one packed value; the truth here is
    # C(64, 32) / 2^64, which a truncating scan would report as 0
    with pytest.raises(WorkCapExceeded):
        influence_mc(Majority(65), [64], UniformBits(64), samples=100, seed=0)


@pytest.mark.parametrize("position", [0.9, 1.0, True, np.bool_(True), "1", None])
def test_coalition_positions_and_size_must_be_integers(position):
    # int() would read 0.9 as coalition [0] and True as [1]
    with pytest.raises(ValidationError, match="coalition position must be an integer"):
        influence_exact(Majority(3), [position], UniformBits(2))
    with pytest.raises(ValidationError, match="coalition position must be an integer"):
        influence_mc(Majority(3), [0, position], UniformBits(1), samples=10, seed=0)
    with pytest.raises(ValidationError, match="coalition size must be an integer"):
        influence_max_exact(Majority(5), position, UniformBits(4))


def test_coalition_reader_takes_numpy_integers():
    assert influence_exact(Majority(3), np.array([0]), UniformBits(2)) == 0.5
    assert influence_mc(Majority(3), [np.int32(0), np.uint8(1)], UniformBits(1),
                        samples=10, seed=0).value == 1.0
    assert influence_max_exact(Majority(5), np.int64(2), UniformBits(3)) == (0.75, (0, 1))


class _MonotoneTable(TableFunction):
    """An explicit table that is monotone by construction, so that it takes
    the monotone paths."""

    monotone = True


def _up_closure(arity: int, generators) -> _MonotoneTable:
    """1 exactly on the inputs that contain one of `generators`."""
    idx = np.arange(1 << arity)
    table = np.zeros(1 << arity, dtype=np.uint8)
    for g in generators:
        table[idx & g == g] = 1
    return _MonotoneTable(arity, table)


_MONOTONE_TABLES = st.integers(1, 6).flatmap(lambda arity: st.builds(
    _up_closure, st.just(arity), st.lists(st.integers(0, (1 << arity) - 1), max_size=4)))


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.sampled_from([Majority(1), Majority(3), Majority(5), Majority(7),
                                  Tribes(2, 2), Tribes(2, 3), Tribes(3, 2), Tribes(1, 4),
                                  RecursiveMajority3(1), RecursiveMajority3(2)]),
                 _MONOTONE_TABLES),
       st.data())
def test_influence_max_matches_each_walk_and_brute_force(f, data):
    # the subset-sum tables for uniform fixings of a monotone f against the
    # per-coalition walk and every coalition cube; ties keep the first
    # coalition in combinations order, as the walk does
    q = data.draw(st.integers(1, f.arity), label="q")
    fixing = UniformBits(f.arity - q)
    subsets = list(itertools.combinations(range(f.arity), q))
    walked = [influence_exact(f, s, fixing) for s in subsets]
    best = max(walked)
    expected = (best, subsets[walked.index(best)])
    assert influence_max_exact(f, q, fixing) == expected == influence_max_brute(f, q)


@pytest.mark.parametrize("f,q,table", [
    (Majority(9), 3, True),         # every coalition ties
    (Majority(1), 1, True),         # 2^1 evaluations, as many as the walk's units
    (Tribes(2, 3), 1, True),
    (_up_closure(5, [0b00011, 0b11100]), 2, True),
    (Majority(5), 5, False),        # q = arity: 2^5 table > 2 units
    (RecursiveMajority3(2), 8, False),
    (TableFunction(3, [0, 1, 1, 0, 1, 1, 0, 1]), 1, False),  # not monotone
], ids=repr)
def test_influence_max_reads_tables_only_within_the_walks_units(f, q, table):
    rec = _Recorded(f)
    fixing = UniformBits(f.arity - q)
    units = math.comb(f.arity, q) * _scan_evals(f, q) * fixing.support_size
    assert influence_max_exact(rec, q, fixing, cap=units) == influence_max_brute(f, q)
    assert sum(map(len, rec.batches)) <= units
    assert ([len(batch) for batch in rec.batches] == [1 << f.arity]) == table
    with pytest.raises(WorkCapExceeded):
        influence_max_exact(f, q, fixing, cap=units - 1)
    # any other fixing distribution walks the coalitions, never the table
    if q < f.arity:
        rec.batches.clear()
        influence_max_exact(rec, q, ExactTwise(f.arity - q, 1))
        assert rec.batches and all(len(batch) < 1 << f.arity for batch in rec.batches)


def test_influence_mc_interval_and_chunking():
    est = influence_mc(Majority(3), [0], UniformBits(2), samples=4000, seed=2)
    assert est.lo <= 0.5 <= est.hi
    assert influence_mc(Majority(3), [0], UniformBits(2), samples=4000, seed=2,
                        workers=3) == est
    assert est.method == "clopper-pearson"
    # empty coalition: exact zero, no sampling error
    empty = influence_mc(Majority(3), [], UniformBits(3), samples=10, seed=0)
    assert empty.value == 0.0 and empty.width == 0.0


def test_influence_mc_tracks_exact_on_random_tables():
    rng = np.random.default_rng(8)
    misses = 0
    for trial in range(20):
        table = rng.integers(0, 2, size=32).astype(np.uint8)
        f = TableFunction(5, table)
        coalition = sorted(rng.choice(5, size=2, replace=False).tolist())
        exact = influence_exact(f, coalition, UniformBits(3))
        est = influence_mc(f, coalition, UniformBits(3), samples=3000,
                           seed=100 + trial)
        assert influence_mc(f, coalition, UniformBits(3), samples=3000,
                            seed=100 + trial, workers=3) == est
        if not est.contains(exact):
            misses += 1
    assert misses <= 1  # 99% intervals; 20 trials


def test_undetermined_is_both_values_attainable():
    # f = x0 (dictator): coalition {1,2} never matters, coalition {0} always
    f = TableFunction(3, [0, 1, 0, 1, 0, 1, 0, 1])
    assert influence_exact(f, [1, 2], UniformBits(1)) == 0.0
    assert influence_exact(f, [0], UniformBits(2)) == 1.0
