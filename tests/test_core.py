import random
import re
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from cde.core import (
    IntPolynomial,
    chu_vandermonde_check,
    interpolate_integer_polynomial,
    poly_divides,
    pochhammer,
    stirling2,
    stirling2_row,
)
from cde.errors import DomainError, MalformedInputError
from cde.permutations import (
    check_permutation,
    classify,
    compose,
    dominant_EX_closed_form,
    enumerate_hecke_words,
    fk_polynomials,
    interval_summary,
    inverse,
    word_to_hecke,
)
from cde.poset import _multichain_expectations, chain, is_mCDE_upto, multichain_counts
from cde.tableaux import (
    R_and_Rplus,
    check_partition,
    count_ssyt,
    count_ssyt_by_total,
    enumerate_ssyt,
    enumerate_standard_barely,
    enumerate_standard_tableaux,
    hook_content_count,
    rect_staircase,
    shifted_interval,
    young_interval,
)

from bruteforce import set_partitions_into


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda: classify((2.5, 1)), "2.5"),
        (lambda: young_interval((2.9, 1.2)), "2.9"),
        (lambda: interval_summary((3.7, 2, 1)), "3.7"),
        (lambda: count_ssyt_by_total((2, 1), (2.9, 3), 4), "2.9"),
        (lambda: count_ssyt_by_total((2, 1), (2, 3), 2.5), "2.5"),
        (lambda: count_ssyt_by_total((2, 1), (2, 3), None), "None"),
        (lambda: count_ssyt((2, 1), (2, 3), "4"), "'4'"),
        (lambda: count_ssyt((2, 1), (2, 3), 3.0), "3.0"),
        (lambda: enumerate_ssyt((2, 1), (2, 3), 3.0), "3.0"),
        (lambda: IntPolynomial((Fraction(1, 2), 1)), "Fraction(1, 2)"),
        (lambda: IntPolynomial((0.9,)), "0.9"),
        (lambda: enumerate_hecke_words((2, 1), 2.5), "2.5"),
        (lambda: fk_polynomials((2, 1), (3, Fraction(7, 2))), "Fraction(7, 2)"),
        (lambda: multichain_counts(chain(3), 1.0), "1.0"),
        (lambda: _multichain_expectations(chain(3), 2.0), "2.0"),
        (lambda: is_mCDE_upto(chain(3), 1.5), "1.5"),
        (lambda: hook_content_count((2, 1), 2.5), "2.5"),
        (lambda: dominant_EX_closed_form(2, Fraction(3, 2), 2), "Fraction(3, 2)"),
        (lambda: dominant_EX_closed_form(2, 1, 2.5), "2.5"),
        (lambda: rect_staircase(3, 1, 1.5), "1.5"),
        (lambda: rect_staircase(2, 1.5, 2), "1.5"),
        (lambda: stirling2(4, 2.0), "2.0"),
        (lambda: pochhammer(1, 2.0), "2.0"),
        (lambda: chu_vandermonde_check(2.0, 1, 3), "2.0"),
        (lambda: word_to_hecke([1, 2], 3.0), "3.0"),
        (lambda: word_to_hecke([1.0]), "1.0"),
    ],
    ids=[
        "permutation",
        "partition",
        "interval",
        "flag",
        "ssyt-max-total",
        "ssyt-max-total-none",
        "ssyt-total-text",
        "ssyt-total",
        "enumerate-ssyt-total",
        "fraction-coefficient",
        "float-coefficient",
        "word-length",
        "fk-lengths",
        "multichain-size",
        "multichain-expectations",
        "mcde-bound",
        "hook-content-bound",
        "dominant-fraction",
        "dominant-float",
        "staircase-b",
        "staircase-a",
        "stirling",
        "pochhammer",
        "chu-vandermonde",
        "hecke-size",
        "hecke-word",
    ],
)
def test_integer_inputs_are_not_truncated(call, value):
    with pytest.raises(MalformedInputError, match=f"{re.escape(value)} is not an integer$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda s: young_interval(s).n,
        lambda s: shifted_interval(s).n,
        lambda s: count_ssyt_by_total(s, (2,), 1),
        lambda s: enumerate_ssyt(s, (2,), 1),
        R_and_Rplus,
        enumerate_standard_tableaux,
        enumerate_standard_barely,
        lambda s: hook_content_count(s, 1),
    ],
)
def test_a_missing_shape_is_an_error_not_the_empty_shape(call):
    with pytest.raises(MalformedInputError, match="^partition part values must come as a sequence, not NoneType$"):
        call(None)
    assert call(()) == call([])


@pytest.mark.parametrize(
    "call, outcome",
    [
        (lambda: hook_content_count((2, 1), -5), 0),
        (lambda: hook_content_count((), -5), 1),
        (lambda: hook_content_count((2, 1), 0), 0),
        (lambda: hook_content_count((2, 1), 2), 2),
        (lambda: inverse((2, 2)), "(2, 2) is not a permutation of 1..2"),
        (lambda: inverse((0, 1)), "(0, 1) is not a permutation of 1..2"),
        (lambda: compose((2, 1), (0, 1)), "(0, 1) is not a permutation of 1..2"),
        (lambda: compose((1, 2), (1, 2, 3)), "permutations live in different symmetric groups"),
        (lambda: compose((2, 3, 1), (2, 1, 3)), (3, 2, 1)),
    ],
    ids=[
        "hook-content-negative",
        "hook-content-empty-negative",
        "hook-content-zero",
        "hook-content-two",
        "inverse-repeat",
        "inverse-zero",
        "compose-zero",
        "compose-sizes",
        "compose",
    ],
)
def test_out_of_domain_arguments_are_counted_or_refused(call, outcome):
    # a negative entry bound admits no tableau, and a tuple that is not a
    # permutation is malformed
    if isinstance(outcome, str):
        with pytest.raises(MalformedInputError) as raised:
            call()
        assert str(raised.value) == outcome
    else:
        assert call() == outcome


def test_ints_and_bools_still_pass_the_integer_checks():
    assert IntPolynomial((True, False, 2)).coeffs == (1, 0, 2)
    assert check_partition((2, True)) == (2, 1)
    assert type(check_partition((True,))[0]) is int
    assert check_permutation((2, True)) == (2, 1)
    assert count_ssyt_by_total((2, 1), (2, 3), 4) == count_ssyt_by_total((2, True), [2, 3], 4)


def test_stirling_trivial_and_paper_values():
    assert stirling2(0, 0) == 1
    # S(l+1, l) = C(l+1, 2)
    for ell in range(1, 10):
        assert stirling2(ell + 1, ell) == comb(ell + 1, 2)
    assert stirling2(4, 3) == 6


def test_stirling_against_enumeration():
    for n in range(0, 6):
        for j in range(0, n + 2):
            assert stirling2(n, j) == set_partitions_into(n, j)
    assert stirling2(5, 2) == 15
    for n in range(0, 7):
        assert stirling2_row(n) == [set_partitions_into(n, j) for j in range(n + 1)]
    with pytest.raises(DomainError):
        stirling2_row(-1)


def test_stirling_out_of_range():
    assert stirling2(3, 5) == 0
    assert stirling2(-1, 0) == 0
    assert stirling2(4, -2) == 0
    assert stirling2(3, 0) == 0


def test_stirling_surjection_identity():
    # sum_j S(L,j) j! C(n,j) counts all functions [L] -> [n]
    for L in range(0, 13):
        for n in range(1, 7):
            total = sum(stirling2(L, j) * factorial(j) * comb(n, j) for j in range(L + 1))
            assert total == n**L


def test_pochhammer_values():
    assert pochhammer(Fraction(1, 2), 0) == 1
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert pochhammer(-3, 5) == 0


@given(
    num=st.integers(-6, 6),
    den=st.integers(1, 6),
    j=st.integers(0, 8),
    k=st.integers(0, 8),
)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_pochhammer_additivity(num, den, j, k):
    z = Fraction(num, den)
    assert pochhammer(z, j) * pochhammer(z + j, k) == pochhammer(z, j + k)


def test_chu_vandermonde_examples():
    assert chu_vandermonde_check(0, Fraction(7, 3), 1)
    assert chu_vandermonde_check(2, Fraction(3, 2), Fraction(5, 2))
    assert chu_vandermonde_check(5, Fraction(1, 3), Fraction(7, 3))


def test_chu_vandermonde_random_triples():
    rng = random.Random(20230817)
    done = 0
    while done < 100:
        m = rng.randint(0, 8)
        B = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        C = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        if any(C + k == 0 for k in range(m)):
            continue
        assert chu_vandermonde_check(m, B, C)
        done += 1


def test_chu_vandermonde_domain_error():
    with pytest.raises(DomainError):
        chu_vandermonde_check(3, Fraction(1, 2), -2)


def test_polynomial_basics():
    p = IntPolynomial((1, 2, 1))
    assert p.degree == 2
    assert str(p) == "x^2+2x+1"
    assert p(3) == 16
    assert IntPolynomial((0, 0)).is_zero()
    q = IntPolynomial.x_plus(1) * IntPolynomial.x_plus(1)
    assert q == p
    assert (p - q).is_zero()
    assert str(IntPolynomial((6, 13, 9, 2))) == "2x^3+9x^2+13x+6"


def test_poly_divides_examples():
    x_plus_1 = IntPolynomial.x_plus(1)
    square = IntPolynomial((1, 2, 1))
    quot = poly_divides(x_plus_1, square)
    assert quot == (x_plus_1, 1)
    assert poly_divides(x_plus_1, IntPolynomial.x_plus(2)) is None
    with pytest.raises(DomainError):
        poly_divides(IntPolynomial.zero(), square)


def test_poly_divides_rational_quotient():
    # (2x+2) divides (x^2+2x+1) with quotient (x+1)/2
    p = IntPolynomial((2, 2))
    q = IntPolynomial((1, 2, 1))
    num, den = poly_divides(p, q)
    assert (num, den) == (IntPolynomial((1, 1)), 2)


@given(
    pc=st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    rc=st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    den=st.integers(1, 4),
)
@settings(max_examples=80, derandomize=True, deadline=None)
def test_poly_divides_roundtrip(pc, rc, den):
    p = IntPolynomial(tuple(pc))
    if p.is_zero():
        return
    r_num = IntPolynomial(tuple(rc))
    q = p * r_num
    # q has integer coefficients; divide back out
    got = poly_divides(p, q)
    assert got is not None
    num, d = got
    # p * num == q * d exactly
    assert p * num == q * d


def test_interpolation():
    # through points of 2x^3+9x^2+13x+6
    p = IntPolynomial((6, 13, 9, 2))
    pts = [(x, p(x)) for x in range(1, 6)]
    assert interpolate_integer_polynomial(pts) == p
    assert interpolate_integer_polynomial([(0, 0), (1, 1), (2, 4)]) == IntPolynomial((0, 0, 1))
    assert interpolate_integer_polynomial([]).is_zero()
    with pytest.raises(DomainError):
        interpolate_integer_polynomial([(0, 0), (2, 1)])


@given(
    coeffs=st.lists(st.integers(-50, 50), max_size=7),
    extra=st.integers(0, 3),
    nodes=st.lists(st.integers(-12, 12), min_size=10, max_size=10, unique=True),
)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_interpolation_round_trip(coeffs, extra, nodes):
    # distinct, unsorted nodes, negative ones included; spare nodes beyond
    # the degree must still give back the same polynomial
    p = IntPolynomial(tuple(coeffs))
    xs = nodes[: len(coeffs) + extra]
    assert interpolate_integer_polynomial([(x, p(x)) for x in xs]) == p


def test_interpolation_rejects_non_integer_coefficients():
    # x(x-1)/2 takes integer values at every integer, but its coefficients are not integers
    for xs in ((0, 1, 2), (5, -3, 1), (2, 1, 0, 3)):
        with pytest.raises(DomainError):
            interpolate_integer_polynomial([(x, x * (x - 1) // 2) for x in xs])


def test_interpolation_rejects_a_repeated_node():
    with pytest.raises(DomainError):
        interpolate_integer_polynomial([(1, 2), (1, 3)])
    with pytest.raises(DomainError):
        interpolate_integer_polynomial([(3, 1), (0, 1), (3, 1)])
