"""Linear codes over GF(2): presets, distance, seeded search."""

import functools
import itertools
import json
import operator
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (gf2_echelon, gray_min_distance, matvec, reference_search,
                     row_combinations_within)

from nobfext import codes
from nobfext.bitops import PACKED_WIDTH, ints_from_words, n_words, words_from_ints
from nobfext.codes import (LinearCode, build_good_code, compress_batch,
                           min_distance_exact, preset_code)
from nobfext.errors import (DimensionError, SearchBudgetExceeded,
                            ValidationError, WorkCapExceeded)


def _codeword(code, v: int) -> int:
    """vG: the XOR of the generator rows that the message v selects."""
    return functools.reduce(operator.xor,
                            (row for i, row in enumerate(code.rows) if v >> i & 1), 0)


def _distance_brute(code):
    """Distance oracle: encode every nonzero message and take the minimum
    weight."""
    return min(_codeword(code, v).bit_count() for v in range(1, 1 << code.m))


# ---------------------------------------------------------------------------
# construction and presets


def test_linear_code_validation():
    with pytest.raises(ValidationError):
        LinearCode(3, (0b011, 0b011))  # rank 1
    with pytest.raises(DimensionError):
        LinearCode(3, (0b011, 0b1110))  # bit 3 beyond r
    with pytest.raises(ValidationError):
        LinearCode(3, (0b111,), verified_d=4)


@pytest.mark.parametrize("name,m,r,d", [
    ("identity-3", 3, 3, 1),
    ("identity-1", 1, 1, 1),
    ("repetition-5", 1, 5, 5),
    ("hamming-7-4", 4, 7, 3),
    ("simplex-k3", 3, 7, 4),
    ("simplex-k2", 2, 3, 2),
])
def test_presets(name, m, r, d):
    code = preset_code(name)
    assert (code.m, code.r, code.verified_d) == (m, r, d)
    assert _distance_brute(code) == d
    assert row_combinations_within(code)


def test_preset_unknown_name():
    with pytest.raises(ValidationError):
        preset_code("golay-23")
    with pytest.raises(ValidationError):
        preset_code("identity-0")


def test_simplex_constant_weight():
    # every nonzero simplex codeword has weight 2^(k-1)
    for k in [2, 3, 4]:
        code = preset_code(f"simplex-k{k}")
        weights = {_codeword(code, v).bit_count() for v in range(1, 1 << code.m)}
        assert weights == {1 << (k - 1)}


# ---------------------------------------------------------------------------
# encoding directions


def test_encode_message_examples():
    ham = preset_code("hamming-7-4")
    # row i, written coordinate 0 first, is message e_i's codeword
    assert [format(row, "07b")[::-1] for row in ham.rows] == [
        "1000011", "0100101", "0010110", "0001111"]
    assert _codeword(ham, 0b0001) == 0b1100001
    assert _codeword(ham, 0) == 0
    assert ham.to_json()["rows"] == ["16", "25", "43", "87"]


def test_compress_is_matvec():
    ham = preset_code("hamming-7-4")
    y = 0b1010101
    z = int(compress_batch(ham, np.array([y], dtype=np.uint64))[0])
    assert z >> 4 == 0
    for i in range(4):
        assert z >> i & 1 == (ham.rows[i] & y).bit_count() & 1
    with pytest.raises(DimensionError):
        compress_batch(ham, np.zeros((1, 2), dtype=np.uint64))  # two words for 7 bits


def _full_rank_rows(rng, m: int, r: int) -> tuple[int, ...]:
    """m random r-bit rows whose low m columns are unit lower triangular,
    so the rows have full rank."""
    return tuple(rng.getrandbits(r - m) << m | 1 << i | rng.getrandbits(i)
                 for i in range(m))


def _compress_case(r: int, m: int, n: int, seed: int):
    rng = random.Random(seed)
    return r, m, _full_rank_rows(rng, m, r), [rng.getrandbits(r) for _ in range(n)]


@st.composite
def _compress_cases(draw):
    r = draw(st.integers(1, 150))
    m = draw(st.integers(1, min(r, 80)))
    return _compress_case(r, m, draw(st.integers(0, 24)), draw(st.integers(0, 2 ** 32)))


@settings(max_examples=100, deadline=None)
@given(_compress_cases())
@example(_compress_case(7, 4, 0, 1))      # an empty batch
@example(_compress_case(13, 5, 9, 2))     # r and m not multiples of 8
@example(_compress_case(100, 20, 9, 3))   # r > 64: two input words
@example(_compress_case(150, 70, 9, 4))   # m > 64: two output words
def test_compress_batch_matches_matvec(case):
    """The one linear-map kernel, batch against the row-by-row oracle, on
    (N, W) words and, where r fits one word, on 1-D values."""
    r, m, rows, ys = case
    code = LinearCode(r, rows)
    want = [matvec(code, y) for y in ys]
    z = compress_batch(code, words_from_ints(ys, r))
    assert z.shape == (len(ys), n_words(m))
    assert ints_from_words(z) == want
    flat = np.array([y % (1 << PACKED_WIDTH) for y in ys], dtype=np.uint64)
    if r > PACKED_WIDTH:
        with pytest.raises(WorkCapExceeded):
            compress_batch(code, flat)  # refused, not cut to the low word
    else:
        z1 = compress_batch(code, flat)
        assert z1.shape == (len(ys),) and z1.tolist() == want


# ---------------------------------------------------------------------------
# minimum distance


def test_min_distance_matches_brute_oracle():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 25:
        m = int(rng.integers(1, 5))
        r = int(rng.integers(m, 12))
        rows = tuple(int(v) for v in rng.integers(0, 1 << r, size=m, dtype=np.uint64))
        if len(gf2_echelon(rows)) != m:
            continue
        code = LinearCode(r, rows)
        assert min_distance_exact(code) == _distance_brute(code)
        checked += 1


def test_min_distance_stores_result():
    code = LinearCode(7, preset_code("hamming-7-4").rows)
    assert code.verified_d == 0
    assert min_distance_exact(code) == 3
    assert code.verified_d == 3


def test_min_distance_wide_words():
    # r > 64 spreads each codeword over several words
    rows = tuple((1 << (20 * i)) | (1 << 79) for i in range(3))
    code = LinearCode(80, rows)
    # single rows have weight 2; row pairs cancel bit 79 leaving weight 2;
    # the triple sum has weight 4 (one 1 << 20i each, bit 79 survives)
    assert min_distance_exact(code) == 2
    assert _distance_brute(code) == 2
    # random codes from one to many words, with m above the low-row table
    # (16 rows at one word, fewer at more) so the high-row scan runs too
    rng = np.random.default_rng(12)
    for m, r in [(3, 64), (5, 65), (6, 130), (17, 70), (15, 200), (9, 5000),
                 (12, 100000)]:
        rows = tuple(int.from_bytes(rng.bytes(-(-r // 8)), "little") & ((1 << r) - 1)
                     for _ in range(m))
        code = LinearCode(r, rows)
        assert min_distance_exact(code) == gray_min_distance(code)


def test_min_distance_work_cap():
    with pytest.raises(WorkCapExceeded):
        min_distance_exact(LinearCode(25, [1 << i for i in range(25)]))


def test_row_combination_weights_bounded():
    for name in ["hamming-7-4", "simplex-k3", "repetition-4", "identity-4"]:
        code = preset_code(name)
        for size in range(1, code.m + 1):
            for members in itertools.combinations(range(code.m), size):
                w = _codeword(code, sum(1 << i for i in members)).bit_count()
                assert code.verified_d <= w <= code.r


# ---------------------------------------------------------------------------
# seeded search


def test_build_good_code_finds_and_verifies():
    code = build_good_code(4, 7, 3, seed=11)
    assert code.verified_d >= 3
    assert _distance_brute(code) == code.verified_d
    assert code.construction["kind"] == "random-search"
    assert row_combinations_within(code)


def test_build_good_code_deterministic():
    a = build_good_code(3, 8, 3, seed=5)
    b = build_good_code(3, 8, 3, seed=5)
    assert a.rows == b.rows and a.verified_d == b.verified_d
    c = build_good_code(3, 8, 3, seed=6)
    assert c.rows != a.rows  # different seed, different search path


def test_build_good_code_singleton_precheck():
    with pytest.raises(ValidationError):
        build_good_code(4, 7, 5, seed=0)  # d > r - m + 1
    with pytest.raises(ValidationError):
        build_good_code(5, 4, 1, seed=0)  # r < m
    with pytest.raises(ValidationError):
        build_good_code(-1, 8, 3, seed=0)  # no rows: nothing to search


def test_build_good_code_budget_failure_carries_best():
    # [7,4,4] meets Singleton but does not exist over GF(2); the search
    # must exhaust its budget and surface the best distance it saw.
    with pytest.raises(SearchBudgetExceeded) as info:
        build_good_code(4, 7, 4, seed=3, attempts=200)
    assert info.value.best_distance == 3
    assert info.value.best is not None
    assert info.value.best.verified_d == 3


def _search(monkeypatch, m, r, d, seed, attempts, stop):
    """build_good_code's result (a code, or the SearchBudgetExceeded best
    and best_distance), with the scans' early stop on or off, and every
    distance the scans returned."""
    exact = codes._min_weight
    seen = []

    def scan(rows, stop_at=0):
        seen.append(exact(rows, stop_at if stop else 0))
        return seen[-1]

    monkeypatch.setattr(codes, "_min_weight", scan)
    try:
        result = build_good_code(m, r, d, seed=seed, attempts=attempts).to_json()
    except SearchBudgetExceeded as exc:
        result = (exc.best.to_json(), exc.best_distance)
    monkeypatch.undo()
    return result, seen


@pytest.mark.parametrize("m,r,d,seed,attempts", [
    (4, 7, 3, 11, 4096), (3, 9, 4, 2, 4096), (6, 20, 8, 1, 300),
    (4, 7, 4, 3, 200),                       # exhausted: [7,4,4] does not exist
    (17, 40, 14, 5, 40), (16, 100, 40, 2, 30),  # several blocks per scan
])
def test_search_early_stop_changes_no_result(monkeypatch, m, r, d, seed, attempts):
    stopped, early = _search(monkeypatch, m, r, d, seed, attempts, stop=True)
    full, exact = _search(monkeypatch, m, r, d, seed, attempts, stop=False)
    assert stopped == full
    # the stop only ever cuts short an attempt that could not be kept
    assert all(e >= x for e, x in zip(early, exact))


def test_search_early_stop_cuts_scans(monkeypatch):
    # 17 one-word rows: the low-row table holds every XOR of rows 0..15,
    # disjoint nibbles of weight 4 each, so the first block's minimum is 4;
    # the lightest codeword, row 16 ^ row 0 = bit 63, lies in the second
    rows = words_from_ints([0xF << (4 * j) for j in range(16)] + [0xF | 1 << 63], 64)
    assert codes._min_weight(rows) == 1
    assert codes._min_weight(rows, stop_at=4) == 4  # stopped after one block
    assert codes._min_weight(rows, stop_at=3) == 1  # no block goes that low early
    # the search hands every scan after its first the best distance so far
    exact, stops = codes._min_weight, []

    def scan(rows, stop_at=0):
        stops.append(stop_at)
        return exact(rows, stop_at)

    monkeypatch.setattr(codes, "_min_weight", scan)
    with pytest.raises(SearchBudgetExceeded) as info:
        build_good_code(17, 40, 14, seed=5, attempts=40)
    assert stops[0] == 0 and len(stops) > 1
    assert all(0 < s <= info.value.best_distance for s in stops[1:])
    assert stops[1:] == sorted(stops[1:])


def _outcome(search, *args):
    """A search's code document, or (best document, best_distance) when it
    exhausts its budget."""
    try:
        return search(*args).to_json()
    except SearchBudgetExceeded as exc:
        return (exc.best.to_json() if exc.best else None, exc.best_distance)


@pytest.mark.parametrize("m,r,d,seed,attempts", [
    (4, 7, 3, 11, 4096), (3, 9, 4, 2, 4096),
    (20, 48, 10, 1, 60), (6, 20, 8, 1, 300), (4, 7, 4, 3, 200),  # exhausted
    (7, 9, 3, 0, 100),
    (17, 40, 14, 5, 40), (16, 100, 40, 2, 30),           # several scan blocks
    (6, 70, 28, 4, 60), (5, 130, 60, 1, 40), (8, 200, 90, 2, 30),  # r > 64
    (3, 3, 1, 0, 50), (5, 5, 1, 1, 50), (4, 5, 2, 0, 50),  # rank-deficient draws
    (6, 7, 2, 3, 40), (9, 10, 2, 0, 80), (1, 1, 1, 0, 5), (5, 5, 1, 1, 3),
])
def test_search_equals_reference_search(m, r, d, seed, attempts):
    assert _outcome(build_good_code, m, r, d, seed, attempts) == \
        _outcome(reference_search, m, r, d, seed, attempts)


def test_bench_search_keeps_its_attempt():
    code = build_good_code(20, 48, 10, seed=1)
    assert code.construction["attempt"] == 544 and code.verified_d == 10


def test_code_json_verified_d_is_rederived():
    obj = preset_code("identity-2").to_json()
    with pytest.raises(ValidationError, match="minimum distance is 1"):
        LinearCode.from_json({**obj, "verified_d": 2})
    assert LinearCode.from_json(obj).verified_d == 1
    assert LinearCode.from_json({**obj, "verified_d": 0}).verified_d == 0  # no claim


def test_code_json_round_trip():
    code = build_good_code(3, 9, 4, seed=2)
    obj = json.loads(json.dumps(code.to_json()))
    back = LinearCode.from_json(obj)
    assert back.rows == code.rows
    assert back.verified_d == code.verified_d
    assert back.construction == code.construction
    with pytest.raises(ValidationError):
        LinearCode.from_json({"format": "something-else"})
    for m in (2, 4):  # m is derived from the rows, and a document must agree
        with pytest.raises(DimensionError, match="does not match"):
            LinearCode.from_json({**obj, "m": m})
