import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from cde import poset, tableaux
from cde.core import IntPolynomial
from cde.errors import (
    CapacityError,
    MalformedInputError,
    NotBarelySetValuedError,
    NotCornerError,
    RangeError,
)
from cde.poset import expectation_X, expectation_Y, is_isomorphic, chain, stats
from cde.tableaux import (
    R_and_Rplus,
    SetValuedTableau,
    barely_to_dual_triple,
    barely_to_triple,
    chain_to_standard,
    count_ssyt,
    count_ssyt_by_total,
    cover_to_flagged_barely,
    crowd,
    default_flag,
    dual_triple_to_barely,
    enumerate_ssyt,
    enumerate_standard_barely,
    enumerate_standard_tableaux,
    f_plus_one,
    flagged_barely_to_cover,
    flagged_to_partition,
    format_tableau,
    hook_content_count,
    hook_f,
    kerov_mean_zero_check,
    outside_corners,
    parse_shape,
    partition_to_flagged,
    rank_generating_function,
    rect_staircase,
    removable_corners,
    shape_label,
    shifted_interval,
    standard_to_chain,
    strict_subpartitions,
    subpartitions,
    svt,
    transpose,
    triple_to_barely,
    uncrowd,
    young_interval,
)

import bruteforce


def all_partitions(n):
    """All partitions of every size up to n."""
    out = [()]

    def rec(remaining, cap, acc):
        for part in range(1, min(remaining, cap) + 1):
            out.append(tuple(acc + [part]))
            rec(remaining - part, part, acc + [part])

    rec(n, n, [])
    return sorted(set(out), key=lambda m: (sum(m), m))


def test_shape_text_round_trip():
    shapes = all_partitions(10)
    assert len(shapes) == 139  # p(0) + ... + p(10)
    for shape in shapes:
        assert parse_shape(shape_label(shape)) == shape
    assert shape_label(()) == "0"
    assert parse_shape("0") == parse_shape("") == ()
    assert shape_label((10, 2)) == "10,2"


def test_parse_shape_separators():
    for text in ("3 1", "3,1", "3, 1", " 3 ,1 "):
        assert parse_shape(text) == (3, 1)


@pytest.mark.parametrize("text", ["a", "12a", "3,x", "1,2", "0,1", "2,-1"])
def test_parse_shape_rejects_malformed_text(text):
    with pytest.raises(MalformedInputError):
        parse_shape(text)


@pytest.mark.parametrize(
    "count",
    [rank_generating_function, tableaux.hook_lengths, hook_f, f_plus_one, kerov_mean_zero_check],
)
@pytest.mark.parametrize("shape", [(1, 2), (2, 0, 1), (0,), (-1,), (2.5,)])
def test_counting_functions_reject_a_non_partition(count, shape):
    # read as a bare tuple, (1, 2) gave 1 + 2q + q^2 + q^3 or an IndexError,
    # and (0,) gave hook_f 1
    with pytest.raises(MalformedInputError):
        count(shape)


def test_rect_staircase():
    assert rect_staircase(4, 2, 4) == (12, 12, 8, 8, 4, 4)
    assert rect_staircase(2, 3, 5) == (5, 5, 5)
    assert rect_staircase(5, 1, 1) == (4, 3, 2, 1)
    assert rect_staircase(1, 2, 2) == ()


def test_transpose_and_corners():
    assert transpose((3, 1, 1)) == (3, 1, 1)
    assert transpose((4, 2)) == (2, 2, 1, 1)
    assert outside_corners((2, 1)) == [(1, 3), (2, 2), (3, 1)]
    assert outside_corners(()) == [(1, 1)]
    assert removable_corners((2, 1)) == [(1, 2), (2, 1)]


def test_young_interval_small():
    assert is_isomorphic(young_interval((1,)), chain(2))
    p = young_interval((2, 1))
    assert p.n == 5 and len(p.covers) == 5


def test_young_interval_311_expectations():
    p = young_interval((3, 1, 1))
    assert expectation_X(p) == Fraction(13, 10)
    assert expectation_Y(p) == Fraction(23, 18)


def test_shifted_interval():
    assert is_isomorphic(shifted_interval((1,)), chain(2))
    assert is_isomorphic(shifted_interval((2, 1)), chain(4))
    p = shifted_interval((3, 1))
    assert expectation_X(p) == 1
    assert expectation_Y(p) == 1
    assert strict_subpartitions((3, 1)) == [(), (1,), (2,), (2, 1), (3,), (3, 1)]


def test_intervals_match_the_bruteforce_oracle():
    # labels, element order and covers, against subpartitions filtered and
    # compared cell by cell
    cases = [(shape, False) for shape in all_partitions(8)]
    cases += [(shape, True) for shape in all_partitions(15) if len(set(shape)) == len(shape)]
    for shape, strict in cases:
        elements, covers = bruteforce.interval(shape, strict)
        listed = strict_subpartitions(shape) if strict else subpartitions(shape)
        p = shifted_interval(shape) if strict else young_interval(shape)
        assert listed == elements, shape
        assert p.labels == tuple(shape_label(m) for m in elements), shape
        assert p.covers == covers, shape


def test_intervals_make_one_ideal_walk(monkeypatch):
    walks = []
    real = tableaux._ideals
    monkeypatch.setattr(tableaux, "_ideals", lambda down: walks.append(len(down)) or real(down))
    assert young_interval((4, 3, 2, 1)).n == 42
    assert walks == [10]
    assert shifted_interval((5, 3, 1)).n == 20
    assert walks == [10, 9]


def test_an_interval_builds_one_poset(monkeypatch):
    # the diagram goes to the ideal walk as order masks, not as a poset, and
    # the walk's graded lists go to the one poset returned
    built = []
    real = tableaux._from_graded
    monkeypatch.setattr(tableaux, "_from_graded", lambda *a: built.append(len(a[0])) or real(*a))
    validated = []
    monkeypatch.setattr(poset, "validate", lambda p: validated.append(p.n))
    assert young_interval((4, 3, 2, 1)).n == 42
    assert shifted_interval((5, 3, 1)).n == 20
    assert (built, validated) == ([42, 20], [])


def test_intervals_stop_at_the_capacity_bound(monkeypatch):
    cases = [(young_interval, (4, 3, 2, 1), 42), (shifted_interval, (5, 3, 1), 20)]
    for build, shape, count in cases:
        monkeypatch.setenv("CDE_CAPACITY", str(count - 1))
        with pytest.raises(CapacityError, match="order ideal enumeration"):
            build(shape)
        monkeypatch.setenv("CDE_CAPACITY", str(count))
        assert build(shape).n == count


def test_rank_generating_function_examples():
    assert rank_generating_function((1,)) == IntPolynomial((1, 1))
    assert rank_generating_function((2, 1)) == IntPolynomial((1, 1, 2, 1))


def q_binomial(n, k):
    """q-Pascal recurrence, as a plain coefficient list (independent route)."""
    if k < 0 or k > n:
        return []
    if k == 0 or k == n:
        return [1]
    a = q_binomial(n - 1, k - 1)
    b = q_binomial(n - 1, k)
    out = [0] * max(len(a), len(b) + k)
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i + k] += c
    return out


def test_rank_generating_function_rectangles_are_q_binomials():
    for a in range(1, 4):
        for b in range(1, 5):
            got = rank_generating_function((b,) * a)
            assert list(got.coeffs) == q_binomial(a + b, a)


def test_rank_generating_function_vs_enumeration():
    # every shape up to size 8, plus a handful of size <= 20 stress shapes
    corpus = all_partitions(8) + [(6, 5, 4, 3, 2), (10, 10), (7, 7, 6), (12, 8)]
    for shape in corpus:
        counts = {}
        for mu in bruteforce.subpartitions(shape):
            counts[sum(mu)] = counts.get(sum(mu), 0) + 1
        direct = [counts.get(k, 0) for k in range(max(counts) + 1)]
        assert list(rank_generating_function(shape).coeffs) == direct


def test_hook_f():
    assert hook_f((2, 1)) == 2
    assert hook_f((7,)) == 1
    assert hook_f((2, 2)) == 2
    for shape in all_partitions(7):
        assert hook_f(shape) == len(bruteforce.standard_tableaux(shape))


def test_f_plus_one_examples():
    assert f_plus_one((2, 1)) == 8
    assert f_plus_one((1,)) == 1


def test_f_plus_one_vs_bruteforce():
    for shape in all_partitions(6):
        if shape:
            assert f_plus_one(shape) == len(bruteforce.standard_barely_set_valued(shape))


def test_f_plus_one_rect_staircase_formula():
    for d in range(2, 5):
        for a in range(1, 3):
            for b in range(1, 3):
                lam = rect_staircase(d, a, b)
                expect = (sum(lam) + 1) * Fraction((d - 1) * a * b, a + b) * hook_f(lam)
                assert f_plus_one(lam) == expect


def test_conjugation_symmetry():
    for shape in all_partitions(7):
        if shape:
            assert f_plus_one(shape) == f_plus_one(transpose(shape))
            assert rank_generating_function(shape)(1) == rank_generating_function(transpose(shape))(1)


def test_kerov_mean_zero():
    assert kerov_mean_zero_check((1,))
    assert kerov_mean_zero_check((3, 1))
    assert kerov_mean_zero_check((5, 3, 3, 1))
    for shape in all_partitions(9):
        assert kerov_mean_zero_check(shape)


def test_enumerate_ssyt_examples():
    assert len(enumerate_ssyt((2, 1), (2, 3), 3)) == 5
    assert len(enumerate_ssyt((2, 1), (2, 3), 4)) == 5
    assert enumerate_ssyt((2, 1), (2, 3), 2) == []


def test_count_ssyt_matches_enumeration_and_bruteforce():
    cases = [
        ((2, 1), (2, 3), [3, 4, 5]),
        ((2, 2), (3, 4), [4, 5, 6]),
        ((3, 1), (2, 4), [4, 5, 6]),
        ((1,), (5,), [1, 2, 3]),
        ((2, 2, 1), (2, 3, 4), [5, 6, 7]),
    ]
    for shape, flag, totals in cases:
        for total in totals:
            listed = enumerate_ssyt(shape, flag, total)
            raw = [t.rows for t in listed]
            assert raw == sorted(raw)
            assert sorted(raw) == bruteforce.set_valued_tableaux(shape, flag, total)
            assert count_ssyt(shape, flag, total) == len(listed)


def test_flag_shorter_than_rows_is_an_error():
    with pytest.raises(MalformedInputError):
        count_ssyt((2, 1), (2,), 3)
    with pytest.raises(MalformedInputError):
        enumerate_ssyt((2, 1), (2,), 3)
    # longer flags are truncated
    assert count_ssyt((2, 1), (2, 3, 9, 9), 3) == 5


def _bruteforce_by_total(shape, flag, max_total):
    tally = {}
    for total in range(max_total + 1):
        found = len(bruteforce.set_valued_tableaux(shape, flag, total))
        if found:
            tally[total] = found
    return tally


@st.composite
def _flagged_cases(draw):
    shape = tuple(sorted(draw(st.lists(st.integers(1, 4), max_size=4)), reverse=True))
    flag = tuple(
        draw(st.lists(st.integers(1, 7), min_size=len(shape), max_size=len(shape) + 1))
    )
    n = sum(shape)
    return shape, flag, draw(st.integers(n - 1, n + 4))


@given(_flagged_cases())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_count_ssyt_by_total_matches_bruteforce(case):
    shape, flag, max_total = case
    # Keep the enumeration small: row i offers at most flag[i] - i values.
    assume(sum(r * max(0, b - i) for i, (r, b) in enumerate(zip(shape, flag))) <= 28)
    assert count_ssyt_by_total(shape, flag, max_total) == _bruteforce_by_total(
        shape, flag, max_total
    )


def test_count_ssyt_by_total_edge_cases():
    cases = [
        ((), (), -1),
        ((), (), 0),
        ((), (), 3),
        ((3, 1), (4, 5), 3),  # max_total below the cell count
        ((2, 1), (2, 3, 1, 9), 5),  # flag longer than the shape
        ((2, 2), (5, 1), 6),  # flag below the row index
        ((3, 2, 1), (4, 2, 6), 8),  # non-monotone flag
    ]
    for shape, flag, max_total in cases:
        assert count_ssyt_by_total(shape, flag, max_total) == _bruteforce_by_total(
            shape, flag, max_total
        )
    assert count_ssyt_by_total((), (), -1) == {}
    assert count_ssyt_by_total((), (), 3) == {0: 1}
    assert count_ssyt_by_total((3, 1), (4, 5), 3) == {}


def _one_row_count(k, f, t):
    """Rows of k cells with t entries in 1..f: a composition of t into k
    cells, then t values in 1..f that may repeat only across the k - 1 cell
    boundaries."""
    return comb(t - 1, k - 1) * comb(f + k - 1, t)


def test_one_row_formula_matches_bruteforce():
    for k in range(1, 5):
        for f in range(1, 7):
            got = _bruteforce_by_total((k,), (f,), k + 4)
            want = {t: _one_row_count(k, f, t) for t in range(k, k + 5)}
            assert got == {t: c for t, c in want.items() if c}


def test_count_ssyt_by_total_pinned_values():
    assert count_ssyt_by_total((4, 3, 2, 1), (14, 15, 16, 17), 12) == {
        10: 166768096,
        11: 4335970496,
        12: 56367616448,
    }
    assert count_ssyt_by_total((4, 3, 2, 1), (2, 3, 4, 5), 11) == {10: 42, 11: 84}
    # Every passed column of a single row is dead; the brute force would list
    # 36 million tableaux, so the one-row formula stands in for it.
    assert count_ssyt_by_total((7,), (12,), 15) == {
        t: _one_row_count(7, 12, t) for t in range(7, 16)
    }


@pytest.mark.parametrize("seed", range(5))
def test_shift_pass_matches_the_frontier_dp(seed):
    # 5 x 100 seeded cases, each read at shifts 0..4 from one pass and
    # compared with the cell-by-cell frontier DP run once per shifted flag.
    rng = random.Random(seed)
    nonmonotone = below_row = 0
    for _ in range(100):
        shape = []
        for _ in range(rng.randint(0, 5)):
            shape.append(rng.randint(1, shape[-1] if shape else 5))
        shape = tuple(shape)
        flag = tuple(rng.randint(1, 11) for _ in shape)
        nonmonotone += any(a > b for a, b in zip(flag, flag[1:]))
        below_row += any(b <= i for i, b in enumerate(flag))
        n = sum(shape)
        max_total = rng.randint(n - 1, n + 4)
        got = tableaux._ssyt_counts_by_shift(shape, flag, max_total, range(5))
        want = tuple(
            bruteforce.frontier_ssyt_by_total(shape, tuple(b + x for b in flag), max_total)
            for x in range(5)
        )
        assert got == want, (shape, flag, max_total)
    assert nonmonotone and below_row


def test_shift_pass_counts_ordinary_tableaux_by_hook_content():
    # with a constant flag m and one entry per cell, shift x counts the
    # column-strict tableaux with entries at most m + x
    shapes = all_partitions(8)
    assert len(shapes) == 67
    for shape in shapes:
        n = sum(shape)
        for m in (1, 2, 4):
            got = tableaux._ssyt_counts_by_shift(shape, (m,) * len(shape), n, range(7))
            want = [hook_content_count(shape, m + x) for x in range(7)]
            assert [counts.get(n, 0) for counts in got] == want, (shape, m)


def test_shift_pass_edge_cases():
    shift = tableaux._ssyt_counts_by_shift
    assert shift((), (), 3, (0, 2, 5)) == ({0: 1},) * 3
    assert shift((), (), -1, (0, 1)) == ({}, {})
    assert shift((3, 1), (4, 5), 3, (0, 1, 4)) == ({},) * 3  # max_total below the cells
    assert shift((2, 1), (2, 3), 4, ()) == ()
    # the shifts come back in the order asked, repeats included
    assert shift((2, 1), (2, 3), 4, (3, 0, 3)) == tuple(
        count_ssyt_by_total((2, 1), (2 + x, 3 + x), 4) for x in (3, 0, 3)
    )
    with pytest.raises(MalformedInputError):
        shift((2, 1), (2,), 4, (0,))


def test_flagged_dp_stops_at_the_capacity_bound(monkeypatch):
    # with flags this large one step holds all 42 partitions inside
    # (4,3,2,1) as live states
    args = ((4, 3, 2, 1), (14, 15, 16, 17), 12)
    monkeypatch.setenv("CDE_CAPACITY", "41")
    with pytest.raises(CapacityError, match="flagged tableau DP states"):
        count_ssyt_by_total(*args)
    monkeypatch.setenv("CDE_CAPACITY", "42")
    assert count_ssyt_by_total(*args)[12] == 56367616448


def test_R_and_Rplus():
    assert R_and_Rplus((2, 1)) == (5, 5)
    assert R_and_Rplus((1,)) == (2, 1)
    r, rp = R_and_Rplus((4, 2))
    assert Fraction(rp, r) == Fraction(4, 3)


def test_rank_table_charges_its_coefficients(monkeypatch):
    # one row of 500 cells reaches the rows of 0..500 cells, m + 1
    # coefficients each: 501 * 502 / 2 in all
    monkeypatch.setenv("CDE_CAPACITY", "125750")
    with pytest.raises(CapacityError, match="rank generating function coefficients needs 125751 "):
        R_and_Rplus((500,))
    monkeypatch.setenv("CDE_CAPACITY", "125751")
    assert R_and_Rplus((500,)) == (501, 500)


def test_tableau_formulas_match_poset_statistics():
    for shape in [(2, 1), (3, 1), (2, 2), (3, 1, 1), (4, 2), (3, 3)]:
        p = young_interval(shape)
        r, rp = R_and_Rplus(shape)
        assert p.n == r
        assert len(p.covers) == rp
        assert expectation_X(p) == Fraction(rp, r)
        n = sum(shape)
        assert expectation_Y(p) == Fraction(f_plus_one(shape), (n + 1) * hook_f(shape))
        assert stats(p).maximal_chain_count == hook_f(shape)


def test_rect_staircase_expectations_formula_level():
    for d in range(2, 5):
        for a in range(1, 4):
            for b in range(1, 4):
                lam = rect_staircase(d, a, b)
                want = Fraction((d - 1) * a * b, a + b)
                r, rp = R_and_Rplus(lam)
                assert Fraction(rp, r) == want
                assert Fraction(f_plus_one(lam), (sum(lam) + 1) * hook_f(lam)) == want


PAPER_UNCROWD_IN = [
    [1, 1, 2, 2, 4],
    [2, 3, (3, 4), 4],
    [4, 5, 5, 7],
    [5, 6, 6],
    [6],
]
PAPER_UNCROWD_OUT = (
    (1, 1, 2, 2, 4),
    (2, 3, 3, 4),
    (4, 4, 5, 7),
    (5, 5, 6),
    (6, 6),
)


def test_uncrowd_paper_fixture():
    t_plus, corner, i0 = uncrowd(svt(PAPER_UNCROWD_IN))
    assert t_plus == PAPER_UNCROWD_OUT
    assert corner == (5, 2)
    assert i0 == 2


def test_uncrowd_single_cell():
    t_plus, corner, i0 = uncrowd(svt([[(1, 2)]]))
    assert t_plus == ((1,), (2,))
    assert corner == (2, 1)
    assert i0 == 1


def test_crowd_paper_fixture():
    expected = {
        4: svt([[1, 1, 2, 2, 4], [2, 3, 3, 4], [4, 4, 5, 7], [5, (5, 6), 6], [6]]),
        3: svt([[1, 1, 2, 2, 4], [2, 3, 3, 4], [4, (4, 5), 5, 7], [5, 6, 6], [6]]),
        2: svt([[1, 1, 2, 2, 4], [2, 3, (3, 4), 4], [4, 5, 5, 7], [5, 6, 6], [6]]),
        1: svt([[1, 1, 2, (2, 3), 4], [2, 3, 4, 4], [4, 5, 5, 7], [5, 6, 6], [6]]),
    }
    for i0, want in expected.items():
        assert crowd(PAPER_UNCROWD_OUT, (5, 2), i0) == want


def test_crowd_errors():
    with pytest.raises(RangeError):
        crowd(PAPER_UNCROWD_OUT, (5, 2), 5)
    with pytest.raises(NotCornerError):
        crowd(PAPER_UNCROWD_OUT, (2, 4), 1)
    with pytest.raises(NotCornerError):
        crowd(PAPER_UNCROWD_OUT, (3, 2), 1)
    with pytest.raises(NotBarelySetValuedError):
        uncrowd(svt([[1, 2], [2]]))


def test_uncrowd_refuses_a_tableau_with_an_empty_cell():
    t = SetValuedTableau((((), (1, 2)),))
    assert not t.is_barely()
    with pytest.raises(NotBarelySetValuedError):
        uncrowd(t)


def test_uncrowd_checks_its_input():
    # row 1 is not weakly increasing; it was once uncrowded to a tableau
    # that passed the output check
    t = SetValuedTableau((((1, 2), (1,)),))
    with pytest.raises(MalformedInputError, match="^row 1 violates weak increase$"):
        uncrowd(t)


def test_crowd_reads_its_corner_as_two_integers():
    with pytest.raises(MalformedInputError, match="^corner coordinate 'a' is not an integer$"):
        crowd(((1, 2), (3,)), "ab", 1)


def test_crowd_reads_its_target_row_as_an_integer():
    with pytest.raises(MalformedInputError, match="^target row 'a' is not an integer$"):
        crowd(((1, 2), (3,)), (2, 1), "a")


def test_crowd_refuses_a_corner_of_three_coordinates():
    with pytest.raises(MalformedInputError, match=r"^corner \(2, 1, 1\) is not two coordinates$"):
        crowd(((1, 2), (3,)), (2, 1, 1), 1)


def test_uncrowd_crowd_roundtrip():
    for shape in all_partitions(6):
        if not shape:
            continue
        for t in enumerate_standard_barely(shape):
            t_plus, corner, i0 = uncrowd(t)
            assert crowd(t_plus, corner, i0) == t


def test_crowd_uncrowd_roundtrip_flagged_domain():
    # every (tableau, corner, i0) triple arising from flagged enumerations
    for shape in [(2, 1), (2, 2), (3, 1)]:
        n = sum(shape)
        for t in enumerate_ssyt(shape, default_flag(shape), n + 1):
            t_plus, corner, i0 = uncrowd(t)
            assert crowd(t_plus, corner, i0) == t


def test_enumerate_standard_barely_21():
    listed = enumerate_standard_barely((2, 1))
    assert len(listed) == 8
    expected = {
        (((1, 2), (3,)), ((4,),)),
        (((1, 2), (4,)), ((3,),)),
        (((1,), (2, 3)), ((4,),)),
        (((1,), (4,)), ((2, 3),)),
        (((1,), (2, 4)), ((3,),)),
        (((1,), (3,)), ((2, 4),)),
        (((1,), (2,)), ((3, 4),)),
        (((1,), (3, 4)), ((2,),)),
    }
    assert {t.rows for t in listed} == expected
    assert [t.rows for t in listed] == sorted(expected)


def test_enumerate_standard_barely_matches_bruteforce():
    # the brute force restarts its search per doubleton cell, an independent route
    for shape in all_partitions(7):
        listed = [t.rows for t in enumerate_standard_barely(shape)]
        assert listed == sorted(bruteforce.standard_barely_set_valued(shape)), shape


@st.composite
def _small_partitions(draw, max_cells=8):
    parts, left = [], max_cells
    while left and draw(st.booleans()):
        part = draw(st.integers(1, min(left, parts[-1] if parts else left)))
        parts.append(part)
        left -= part
    return tuple(parts)


@given(_small_partitions())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_enumerate_standard_barely_matches_bruteforce_drawn(shape):
    listed = [t.rows for t in enumerate_standard_barely(shape)]
    assert listed == sorted(bruteforce.standard_barely_set_valued(shape))


def test_enumerate_standard_barely_is_increasing_and_counts_f_plus():
    for shape in all_partitions(9):
        listed = [t.rows for t in enumerate_standard_barely(shape)]
        assert all(a < b for a, b in zip(listed, listed[1:])), shape
        assert len(listed) == f_plus_one(shape), shape


def test_enumerate_standard_barely_edge_cases():
    assert enumerate_standard_barely(()) == []
    assert [t.rows for t in enumerate_standard_barely((1,))] == [(((1, 2),),)]


@pytest.mark.parametrize(
    "enumerate_, count", [(enumerate_standard_barely, 168), (enumerate_standard_tableaux, 16)]
)
def test_standard_enumerators_stop_at_the_capacity_bound(monkeypatch, enumerate_, count):
    shape = (3, 2, 1)
    monkeypatch.setenv("CDE_CAPACITY", str(count - 1))
    with pytest.raises(CapacityError):
        enumerate_(shape)
    monkeypatch.setenv("CDE_CAPACITY", str(count))
    assert len(enumerate_(shape)) == count


def test_chain_bijection_standard():
    t = ((1, 3, 5), (2, 6), (4,))
    chain_ = standard_to_chain(t)
    assert chain_ == ((), (1,), (1, 1), (2, 1), (2, 1, 1), (3, 1, 1), (3, 2, 1))
    assert chain_to_standard(chain_) == t
    for shape in [(2, 2), (3, 1)]:
        for t in enumerate_standard_tableaux(shape):
            assert chain_to_standard(standard_to_chain(t)) == t


def test_chain_bijection_barely_fixture():
    t = svt([[1, (2, 5), 6], [3, 7], [4]])
    chain_, mu, nu = barely_to_triple(t)
    assert chain_ == ((), (1,), (2,), (2, 1), (2, 1, 1), (3, 1, 1), (3, 2, 1))
    assert mu == (2, 1, 1)
    assert nu == (1, 1, 1)
    assert triple_to_barely(chain_, mu, nu) == t


def test_chain_bijection_dual_fixture():
    t = svt([[1, (2, 5), 6], [3, 7], [4]])
    chain_, mu, nu = barely_to_dual_triple(t)
    assert chain_ == ((3, 2, 1), (3, 1, 1), (2, 1, 1), (1, 1, 1), (1, 1), (1,), ())
    assert mu == (1,)
    assert nu == (2,)
    assert dual_triple_to_barely(chain_, mu, nu) == t


def test_chain_bijections_full_domain():
    for shape in all_partitions(6):
        for t in enumerate_standard_tableaux(shape):
            assert chain_to_standard(standard_to_chain(t)) == t
        barely = enumerate_standard_barely(shape)
        triples = set()
        dual_triples = set()
        for t in barely:
            trip = barely_to_triple(t)
            assert triple_to_barely(*trip) == t
            triples.add(trip)
            dtrip = barely_to_dual_triple(t)
            assert dual_triple_to_barely(*dtrip) == t
            dual_triples.add(dtrip)
        assert len(triples) == len(barely) == f_plus_one(shape), shape
        assert len(dual_triples) == len(barely), shape
        # cardinality reconciliation: triples = (chain, element, cover below it)
        p = young_interval(shape)
        assert tableaux._f_plus_by_chains(shape) == f_plus_one(shape), shape
        assert stats(p).maximal_chain_count == hook_f(shape), shape


@pytest.mark.parametrize(
    "convert, args",
    [
        (chain_to_standard, (((), (1,), (1, 1), (2,)),)),
        (chain_to_standard, (((1,), (2,)),)),
        (chain_to_standard, (((), (1,), (1, 1), (1, 2)),)),
        (standard_to_chain, (((1, 3),),)),
        (standard_to_chain, (((2, 1),),)),
        (triple_to_barely, (((), (1,), (2,)), (3,), (2,))),
        (triple_to_barely, (((), (1,), (2,), (3,)), (2,), (1, 1))),
        (dual_triple_to_barely, (((2,), (1,), ()), (3,), (2,))),
        (dual_triple_to_barely, (((2,), (1,), ()), (2,), (3,))),
        (barely_to_dual_triple, (SetValuedTableau((((3,),), ((1, 2),))),)),
        (cover_to_flagged_barely, ((1, 1), (2,), (2, 2))),
        (cover_to_flagged_barely, ((), (1,), ())),
        (cover_to_flagged_barely, ((1,), (2,), (1,))),
        (barely_to_triple, (SetValuedTableau((((1, 3),), ((2,),))),)),
        (barely_to_dual_triple, (SetValuedTableau((((1,), (4,)), ((2,), (3, 5)))),)),
        (flagged_barely_to_cover, (SetValuedTableau((((1, 2), ()),)),)),
        (flagged_barely_to_cover, (SetValuedTableau((((2,), (1, 2)),)),)),
        (flagged_barely_to_cover, (SetValuedTableau((((1,), (2,)), ((1, 3),))),)),
    ],
    ids=[
        "chain-row-shrinks",
        "chain-starts-above-empty",
        "chain-leaves-partitions",
        "standard-value-missing",
        "standard-cell-not-corner",
        "triple-mu-not-in-chain",
        "triple-nu-not-below-mu",
        "dual-mu-not-in-chain",
        "dual-nu-outside-shape",
        "dual-barely-not-column-strict",
        "flagged-nu-not-below-mu",
        "flagged-mu-outside-empty-shape",
        "flagged-mu-outside-shape",
        "triple-barely-not-column-strict",
        "dual-barely-not-column-strict-in-second-column",
        "flagged-barely-empty-cell",
        "flagged-barely-doubleton-not-a-corner",
        "flagged-barely-doubleton-off-its-row",
    ],
)
def test_malformed_chains_and_triples_are_rejected(convert, args):
    with pytest.raises(MalformedInputError):
        convert(*args)


def test_flagged_bijection_paper_fixture():
    t = ((1, 2, 2), (2, 3), (4,))
    assert flagged_to_partition(t) == (1, 1)
    assert partition_to_flagged((1, 1), (3, 2, 1)) == t
    with pytest.raises(MalformedInputError):
        flagged_to_partition(((3, 3), (3, 3)))


def test_flagged_bijection_full_domain():
    shape = (2, 2)
    elements = subpartitions(shape)
    tableaux = enumerate_ssyt(shape, default_flag(shape), sum(shape))
    images = {flagged_to_partition(t.rows) for t in tableaux}
    assert images == set(elements)
    for mu in elements:
        assert flagged_to_partition(partition_to_flagged(mu, shape)) == mu


def test_flagged_barely_bijection():
    t = svt([[1, 1, 2, 2], [2, (2, 3), 3], [4]])
    nu, mu = flagged_barely_to_cover(t)
    assert (nu, mu) == ((2, 1), (2, 2))
    assert cover_to_flagged_barely(nu, mu, (4, 3, 1)) == t
    # full domain on every shape of at most 6 cells: each barely flagged
    # tableau maps to a cover of the interval and back, and every cover is
    # hit exactly once
    for shape in all_partitions(6):
        elements = subpartitions(shape)
        covers = {(elements[a], elements[b]) for a, b in young_interval(shape).covers}
        listed = enumerate_ssyt(shape, default_flag(shape), sum(shape) + 1)
        pairs = [flagged_barely_to_cover(t) for t in listed]
        assert sorted(pairs) == sorted(covers), shape
        for t, (nu, mu) in zip(listed, pairs):
            assert cover_to_flagged_barely(nu, mu, shape) == t, shape


def test_hook_content_count():
    assert hook_content_count((1,), 3) == 3
    assert hook_content_count((2, 1), 2) == len(bruteforce.column_strict_tableaux((2, 1), 2))
    for shape in [(2,), (2, 2), (3, 1)]:
        for t in range(1, 5):
            assert hook_content_count(shape, t) == len(bruteforce.column_strict_tableaux(shape, t))


def test_hook_content_rectangle_ratio():
    a, b, x = 2, 3, 4
    top = hook_content_count(((b,) * a) + (1,), x + a)
    bottom = hook_content_count((b,) * a, x + a)
    assert Fraction(top * a, bottom) == Fraction(x * b * a, a + b)
    assert Fraction(top, bottom) == Fraction(x * b, a + b)


def test_format_tableau():
    t = svt([[1, (2, 3)], [4]])
    assert format_tableau(t) == "{1}\t{2,3}\n{4}"


def test_svt_validation():
    with pytest.raises(MalformedInputError):
        svt([[2, 1]])
    with pytest.raises(MalformedInputError):
        svt([[1], [1]])
    with pytest.raises(MalformedInputError):
        svt([[(1, 1)]])
