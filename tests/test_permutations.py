import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as iperm
from pathlib import Path

import pytest

from cde.core import IntPolynomial, poly_divides
from cde.errors import CapacityError, MalformedInputError, NotVexillaryError, RangeError
from cde.permutations import (
    PermClass,
    classify,
    compose,
    conjecture_fk_check,
    count_nearly_reduced,
    count_reduced,
    descents,
    dominant_EX_closed_form,
    dominant_of_shape,
    enumerate_hecke_words,
    enumerate_reduced,
    expectation_X_complementary,
    expectation_Y_words,
    fk_polynomial,
    fk_polynomials,
    grassmannian_of_shape,
    hecke_product,
    identity,
    interval_summary,
    inverse,
    inverse_grassmannian_of_shape,
    left_factor_check,
    lehmer_code,
    length,
    noninversion_poset,
    parse_perm,
    parse_word,
    perm_label,
    permutation_from_code,
    prepend_identity,
    rothe,
    rothe_diagram,
    weak_interval,
    weak_interval_elements,
    weak_order_full,
    strong_bruhat,
    vexillary_permutations,
    word_to_hecke,
)
from cde import cli, permutations, poset
from cde.poset import (
    FinitePoset,
    dual,
    expectation_X,
    expectation_Xm,
    expectation_Y,
    is_CDE,
    is_forest,
    is_isomorphic,
    is_mCDE_upto,
    linear_extension_count,
    quotient_cover,
    stats,
)
from cde.tableaux import (
    f_plus_one,
    hook_f,
    rect_staircase,
    transpose,
    young_interval,
)

import bruteforce
from bruteforce import hecke_words_bruteforce, left_inversions
from cde.verify import _partitions_upto, _suite_conj_vexillary_staircase


def test_perm_text_round_trip():
    count = 0
    for n in range(8):
        for w in iperm(range(1, n + 1)):
            assert parse_perm(perm_label(w)) == w
            count += 1
    assert count == 5914  # 0! + 1! + ... + 7!
    rng = random.Random(10)
    for n in (9, 10, 11):
        for _ in range(20):
            w = tuple(rng.sample(range(1, n + 1), n))
            assert parse_perm(perm_label(w)) == w
    assert perm_label((2, 1, 3)) == "213"
    assert perm_label(tuple(range(10, 0, -1))) == "10,9,8,7,6,5,4,3,2,1"


def test_parse_perm_separators():
    for text in ("4231", "4,2,3,1", "4 2 3 1", "4, 2, 3, 1"):
        assert parse_perm(text) == (4, 2, 3, 1)
    assert parse_word("1,2,1") == parse_word("1 2 1") == (1, 2, 1)


@pytest.mark.parametrize("text", ["a", "12a", "1,1", "1,3", "0"])
def test_parse_perm_rejects_malformed_text(text):
    with pytest.raises(MalformedInputError):
        parse_perm(text)


def test_parse_word_rejects_malformed_text():
    with pytest.raises(MalformedInputError):
        parse_word("1,x")


def test_lehmer_code_examples():
    assert lehmer_code((4, 2, 3, 1)) == (3, 1, 1, 0)
    assert lehmer_code((2, 5, 3, 1, 4)) == (1, 3, 1, 0, 0)
    # the definition c_i = #{j > i : w(j) < w(i)}, on seeded random permutations
    rng = random.Random(130)
    for n in (0, 1, 2, 5, 9, 40):
        for _ in range(25):
            w = tuple(rng.sample(range(1, n + 1), n))
            assert lehmer_code(w) == tuple(sum(v < w[i] for v in w[i + 1 :]) for i in range(n))
    # the evens, then the odds, of 1..100,000: 2k has k odds after it, all below
    half = 50_000
    shuffle = tuple(range(2, 2 * half + 1, 2)) + tuple(range(1, 2 * half, 2))
    assert lehmer_code(shuffle) == tuple(range(1, half + 1)) + (0,) * half
    assert descents(identity(5)) == ()
    assert length((3, 2, 1)) == 3


def test_classify_examples():
    c = classify((4, 2, 3, 1))
    assert c.dominant and c.vexillary
    assert c.shape == (3, 1, 1)
    c = classify((2, 3, 6, 1, 4, 5))
    assert c.grassmannian and c.vexillary and not c.dominant
    assert c.shape == (3, 1, 1)
    c = classify((2, 1, 4, 3))
    assert not c.vexillary and c.shape is None
    c = classify((2, 5, 3, 1, 4))
    assert c.vexillary and not c.dominant and not c.grassmannian
    assert not c.inverse_grassmannian
    assert c.shape == (3, 1, 1)


def test_classify_matches_the_pattern_oracle():
    # every w in S_0..S_7: 5,914 permutations, each field by definition
    count = 0
    for n in range(8):
        for w in iperm(range(1, n + 1)):
            assert classify(w) == PermClass(*bruteforce.permutation_class(w)), w
            count += 1
    assert count == 5914


def test_vexillary_permutations_match_the_classify_filter():
    lengths = []
    for n in range(1, 9):
        oracle = []
        for w in iperm(range(1, n + 1)):
            c = classify(w)
            if c.vexillary:
                oracle.append((w, c.shape))
        assert vexillary_permutations(n) == oracle, n  # order and shapes included
        lengths.append(len(oracle))
    assert lengths == [1, 2, 6, 23, 103, 513, 2761, 15767]  # OEIS A005802
    assert vexillary_permutations(0) == [((), ())]
    with pytest.raises(RangeError):
        vexillary_permutations(-1)


def test_vexillary_permutations_stop_at_the_capacity_bound(monkeypatch):
    monkeypatch.setenv("CDE_CAPACITY", "102")
    with pytest.raises(CapacityError):
        vexillary_permutations(5)
    monkeypatch.setenv("CDE_CAPACITY", "103")
    assert len(vexillary_permutations(5)) == 103


def test_dominant_of_shape():
    assert dominant_of_shape((2, 1)) == (3, 2, 1)
    assert dominant_of_shape((4, 2)) == (5, 3, 1, 2, 4)
    assert dominant_of_shape(rect_staircase(4, 2, 4)) == (
        13, 14, 9, 10, 5, 6, 1, 2, 3, 4, 7, 8, 11, 12,
    )
    assert lehmer_code(dominant_of_shape((4, 2))) == (4, 2, 0, 0, 0)
    with pytest.raises(MalformedInputError):
        permutation_from_code((5, 0))


def test_grassmannian_of_shape():
    w = grassmannian_of_shape((3, 1, 1))
    assert w == (2, 3, 6, 1, 4, 5)
    assert classify(w).grassmannian
    assert classify(w).shape == (3, 1, 1)
    wi = inverse_grassmannian_of_shape((3, 1, 1))
    assert wi == (4, 1, 2, 5, 6, 3)
    assert classify(wi).inverse_grassmannian
    assert classify(wi).shape == (3, 1, 1)


@pytest.mark.parametrize(
    "build", [dominant_of_shape, grassmannian_of_shape, inverse_grassmannian_of_shape]
)
@pytest.mark.parametrize("shape", [(1, 3), (2, -1)], ids=["increasing", "negative"])
def test_shape_builders_reject_a_malformed_shape(build, shape):
    with pytest.raises(MalformedInputError):
        build(shape)


def test_shape_builders_classify_with_their_shape():
    for shape in _partitions_upto(8):
        dom = classify(dominant_of_shape(shape))
        grass = classify(grassmannian_of_shape(shape))
        inv = classify(inverse_grassmannian_of_shape(shape))
        assert dom.dominant and dom.shape == shape, shape
        assert grass.grassmannian and grass.shape == shape, shape
        assert inv.inverse_grassmannian and inv.shape == transpose(shape), shape


def test_hecke_product():
    assert hecke_product((3, 2, 1), 1) == (3, 2, 1)
    assert word_to_hecke((1, 2, 1, 1)) == (3, 2, 1)
    assert word_to_hecke((), 4) == identity(4)
    assert word_to_hecke((2, 1, 2, 2), 3) == (3, 2, 1)
    with pytest.raises(RangeError):
        hecke_product((2, 1), 2)


def test_weak_interval_4231():
    p = weak_interval((4, 2, 3, 1))
    assert p.n == 12
    members = {m for m in (p.labels or [])}
    assert members == {
        "1234", "2134", "1243", "2314", "2143", "1423",
        "2341", "2413", "4123", "2431", "4213", "4231",
    }


def test_weak_interval_iso_to_young_dual():
    w = (2, 3, 6, 1, 4, 5)
    assert is_isomorphic(weak_interval(w), dual(young_interval((3, 1, 1))))
    assert is_isomorphic(weak_interval(inverse(w)), young_interval((3, 1, 1)))


def test_group_sizes_are_checked_before_anything_is_built(monkeypatch):
    for build in (strong_bruhat, weak_order_full):
        with pytest.raises(RangeError):
            build(-1)
    monkeypatch.setenv("CDE_CAPACITY", "4")
    with pytest.raises(CapacityError, match="^weak order interval needs 6 > capacity 4$"):
        weak_order_full(3)
    with pytest.raises(CapacityError, match="^permutation entries needs 5 > capacity 4$"):
        word_to_hecke((1,), 5)
    assert word_to_hecke((3,)) == (1, 2, 4, 3)


def test_strong_bruhat_matches_the_length_criterion():
    # the one-line cover rule against the covers that add one inversion,
    # the elements in (length, one-line notation) order
    for n in range(7):
        p = strong_bruhat(n)
        elements = [tuple(map(int, label)) for label in p.labels]
        assert elements == sorted(iperm(range(1, n + 1)), key=lambda u: (len(left_inversions(u)), u))
        assert {(elements[a], elements[b]) for a, b in p.covers} == bruteforce.strong_bruhat_covers(n)


def test_strong_bruhat_negative_example():
    p = strong_bruhat(3)
    assert expectation_X(p) == Fraction(4, 3)
    assert expectation_Y(p) == Fraction(5, 4)
    assert not is_CDE(p)


def test_weak_order_full_is_self_dual_regular():
    from cde.poset import self_dual_regular_check

    assert self_dual_regular_check(weak_order_full(3)) == 1
    p = weak_order_full(4)
    assert self_dual_regular_check(p) == Fraction(3, 2)
    assert expectation_X(p) == Fraction(3, 2)
    assert expectation_Y(p) == Fraction(3, 2)


def test_count_reduced_and_nearly():
    assert count_reduced((3, 2, 1)) == 2
    assert count_nearly_reduced((3, 2, 1)) == 8
    assert count_reduced(identity(4)) == 1
    assert count_nearly_reduced(identity(4)) == 0
    assert count_reduced((2, 5, 3, 1, 4)) == hook_f((3, 1, 1))


def test_word_counts_match_brute_force_words():
    for n in range(1, 5):
        for w in iperm(range(1, n + 1)):
            ell = length(w)
            assert count_reduced(w) == len(bruteforce.hecke_words_bruteforce(w, ell))
            assert count_nearly_reduced(w) == len(bruteforce.hecke_words_bruteforce(w, ell + 1))
    for w in iperm(range(1, 6)):
        assert count_reduced(w) == len(enumerate_reduced(w))
        assert count_nearly_reduced(w) == len(enumerate_hecke_words(w, length(w) + 1))


def test_weak_interval_elements_are_the_inversion_set_order_ideal():
    for n in range(1, 6):
        group = list(iperm(range(1, n + 1)))
        for w in group:
            target = left_inversions(w)
            assert weak_interval_elements(w) == {u for u in group if left_inversions(u) <= target}


def test_weak_interval_pinned():
    # elements by length, then lexicographically; covers as index pairs
    p = weak_interval((4, 3, 2, 1))
    assert p.labels == (
        "1234", "1243", "1324", "2134", "1342", "1423", "2143", "2314",
        "3124", "1432", "2341", "2413", "3142", "3214", "4123", "2431",
        "3241", "3412", "4132", "4213", "3421", "4231", "4312", "4321",
    )
    assert sorted(p.covers) == [
        (0, 1), (0, 2), (0, 3), (1, 5), (1, 6), (2, 4), (2, 8), (3, 6), (3, 7),
        (4, 9), (4, 12), (5, 9), (5, 14), (6, 11), (7, 10), (7, 13), (8, 12),
        (8, 13), (9, 18), (10, 15), (10, 16), (11, 15), (11, 19), (12, 17),
        (13, 16), (14, 18), (14, 19), (15, 21), (16, 20), (17, 20), (17, 22),
        (18, 22), (19, 21), (20, 23), (21, 23), (22, 23),
    ]
    p = weak_interval((5, 3, 1, 2, 4))
    assert p.labels == (
        "12345", "12354", "13245", "12534", "13254", "31245", "13524", "15234",
        "31254", "15324", "31524", "51234", "35124", "51324", "53124",
    )
    assert sorted(p.covers) == [
        (0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 7), (4, 6), (4, 8),
        (5, 8), (6, 9), (6, 10), (7, 9), (7, 11), (8, 10), (9, 13), (10, 12),
        (11, 13), (12, 14), (13, 14),
    ]


def test_count_reduced_checks_its_input():
    with pytest.raises(MalformedInputError):
        count_reduced((2, 2, 1))
    assert count_reduced([3, 2, 1]) == 2


def test_weak_walk_stops_at_the_capacity_bound(monkeypatch):
    w = (5, 3, 1, 2, 4)
    size = len(weak_interval_elements(w))
    monkeypatch.setenv("CDE_CAPACITY", str(size - 1))
    for f in (weak_interval_elements, count_reduced, count_nearly_reduced):
        with pytest.raises(CapacityError):
            f(w)
    monkeypatch.setenv("CDE_CAPACITY", str(size))
    assert len(weak_interval_elements(w)) == size
    assert count_reduced(w) == 9
    assert count_nearly_reduced(w) == 84


# every public route that walks the weak interval below w;
# expectation_X_complementary reads the ideals of N(w) instead
_WALK_ENTRY_POINTS = (
    weak_interval_elements,
    weak_interval,
    count_reduced,
    count_nearly_reduced,
    expectation_Y_words,
    lambda w: fk_polynomial(w, length(w) + 1),
)


def test_one_walk_serves_every_entry_point_per_w_and_bound(monkeypatch):
    monkeypatch.delenv("CDE_CAPACITY", raising=False)
    permutations._summary_at.cache_clear()
    walks = []
    real = permutations._weak_walk
    monkeypatch.setattr(permutations, "_weak_walk", lambda w: walks.append(w) or real(w))
    w = (5, 3, 1, 2, 4)
    # the perfbench perm_query sequence, then the FK words route
    classify(w)
    first = [f(w) for f in _WALK_ENTRY_POINTS]
    assert walks == [w]
    # work count: the walk of 53124 has 15 elements and 20 covers
    summary = permutations.interval_summary(w)
    elements, below = summary.elements, summary._below
    assert (len(elements), summary.edge_count, sum(map(len, below))) == (15, 20, 20)
    assert first[0] == set(elements) and first[2] == summary.reduced == 9
    # the shared summary is immutable all the way down
    assert all(type(part) is tuple for part in (elements, below))
    assert all(type(lower) is tuple for lower in below)
    assert all(type(u) is tuple for u in elements)
    # a lower bound is a new key: with the walk of w memoised, every route
    # walks again and stops there
    monkeypatch.setenv("CDE_CAPACITY", str(len(elements) - 1))
    for f in _WALK_ENTRY_POINTS:
        with pytest.raises(CapacityError, match="weak order interval needs 15 > capacity 14"):
            f(w)
    assert walks == [w] * (1 + len(_WALK_ENTRY_POINTS))
    monkeypatch.setenv("CDE_CAPACITY", str(len(elements)))
    assert [f(w) for f in _WALK_ENTRY_POINTS] == first
    assert len(walks) == 2 + len(_WALK_ENTRY_POINTS)
    # a second w makes a second walk
    v = (2, 5, 3, 1, 4)
    assert count_reduced(v) == len(enumerate_reduced(v))
    assert walks[-2:] == [w, v]


def test_one_summary_pass_serves_the_api_the_fk_words_route_and_the_cli(monkeypatch, capsys):
    # the walk and the summary's one _chain_counts are made once for w,
    # whichever of these asks first
    monkeypatch.delenv("CDE_CAPACITY", raising=False)
    permutations._summary_at.cache_clear()
    walks, passes = [], []
    real_walk, real_pass = permutations._weak_walk, permutations._chain_counts
    monkeypatch.setattr(permutations, "_weak_walk", lambda w: walks.append(w) or real_walk(w))
    monkeypatch.setattr(permutations, "_chain_counts", lambda *a: passes.append(a) or real_pass(*a))
    w = (5, 3, 1, 2, 4)
    classify(w)
    weak_interval_elements(w)
    count_reduced(w)
    count_nearly_reduced(w)
    expectation_X_complementary(w)
    expectation_Y_words(w)
    weak_interval(w)
    fk_polynomial(w, length(w) + 1)
    assert cli.main(["--emit", "json", "perm", "stats", "--w", "53124", "--xm", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["interval_size"], data["reduced_words"], data["is_mCDE_upto_2"]) == (15, 9, False)
    assert (len(walks), len(passes)) == (1, 1)


def test_enumerate_words():
    assert enumerate_reduced((3, 2, 1)) == [(1, 2, 1), (2, 1, 2)]
    words = enumerate_hecke_words((3, 2, 1), 4)
    assert len(words) == 8
    assert sorted(words) == sorted(hecke_words_bruteforce((3, 2, 1), 4))
    expected = {
        (1, 1, 2, 1), (1, 2, 1, 1), (1, 2, 1, 2), (1, 2, 2, 1),
        (2, 1, 1, 2), (2, 1, 2, 1), (2, 1, 2, 2), (2, 2, 1, 2),
    }
    assert set(words) == expected


def test_expectation_Y_words_examples():
    assert expectation_Y_words((3, 2, 1)) == 1
    for w in [(4, 2, 3, 1), (2, 5, 3, 1, 4), (2, 3, 6, 1, 4, 5)]:
        assert expectation_Y_words(w) == Fraction(23, 18)
        assert expectation_Y_words(inverse(w)) == Fraction(23, 18)


def test_expectation_X_examples():
    assert expectation_X_complementary((3, 2, 1)) == 1
    assert expectation_X_complementary((4, 2, 3, 1)) == Fraction(5, 4)
    assert expectation_X_complementary((2, 5, 3, 1, 4)) == Fraction(14, 11)
    assert expectation_X_complementary((2, 3, 6, 1, 4, 5)) == Fraction(13, 10)


def test_routes_agree_with_poset_statistics():
    for n in (2, 3, 4, 5):
        for w in iperm(range(1, n + 1)):
            p = weak_interval(w)
            assert expectation_X_complementary(w) == expectation_X(p)
            assert expectation_Y_words(w) == expectation_Y(p)


def _assert_summary_matches_every_route(w):
    summary = interval_summary(w)
    interval = weak_interval(w)
    st = stats(interval)
    members = weak_interval_elements(w)
    assert len(summary.elements) == len(members) == interval.n
    assert set(summary.elements) == members
    assert summary.edge_count == st.edge_count
    assert summary.reduced == count_reduced(w) == st.maximal_chain_count
    assert summary.nearly == count_nearly_reduced(w)
    assert summary.EX == expectation_X_complementary(w) == st.EX
    assert summary.EY == expectation_Y_words(w) == st.EY


def test_interval_summary_matches_the_public_functions():
    for w in iperm(range(1, 6)):
        _assert_summary_matches_every_route(w)
    staircase = _suite_conj_vexillary_staircase({"n": "6"})
    assert len(staircase) == 92
    for check in staircase:
        _assert_summary_matches_every_route(parse_perm(check.instance["w"]))


def test_interval_summary_edge_density_matches_the_complementary_count():
    for n in (5, 6):
        for w, _ in vexillary_permutations(n):
            assert interval_summary(w).EX == expectation_X_complementary(w), w


def _weak_interval_cases():
    """Every w in S1..S6, w = (1,) first, then 30 seeded w in S9."""
    for n in range(1, 7):
        yield from iperm(range(1, n + 1))
    rng = random.Random(19)
    for _ in range(30):
        yield tuple(rng.sample(range(1, 10), 9))


@lru_cache(maxsize=None)
def _weak_interval_walks():
    """(w, bruteforce.slicing_weak_walk(w)) for each w of _weak_interval_cases,
    walked once for the three tests that read them."""
    return tuple((w, bruteforce.slicing_weak_walk(w)) for w in _weak_interval_cases())


def test_weak_walk_matches_the_slicing_walk():
    # the downward slicing walk, mapped onto the upward walk's layout: by
    # length, then lexicographically
    for w, walk in _weak_interval_walks():
        elements, below, starts = permutations._weak_walk(w)
        # the paths from w down to each element, which the summary counts on the walk's lists
        down = tuple(poset._chain_counts(below, range(len(elements)))[1])
        assert (elements, below, down) == bruteforce.sorted_walk(walk), w
        assert all(list(lower) == sorted(lower) for lower in below), w
        # the ranks by another route: the length of each element the oracle found
        ranks = [r for r in range(len(starts) - 1) for _ in range(starts[r], starts[r + 1])]
        assert starts[0] == 0 and ranks == [length(u) for u in elements], w
        assert len(starts) - 2 == length(w), w


def test_weak_walk_lists_each_lower_cover_by_its_descent():
    # the FK words route pairs below[i] with the descents of elements[i] in
    # increasing order: the cover u * s_a comes before u * s_b for a < b
    for n in range(1, 7):
        for w in iperm(range(1, n + 1)):
            elements, below, _ = permutations._weak_walk(w)
            for u, lower in zip(elements, below):
                steps = [u[: s - 1] + (u[s], u[s - 1]) + u[s + 1 :] for s in descents(u)]
                assert [elements[j] for j in lower] == steps, (w, u)


@pytest.mark.parametrize("w", [(1,), (1, 2, 3)])
def test_a_one_element_interval(w):
    p = weak_interval(w)
    assert p == FinitePoset(1, [], [perm_label(w)]) and p.labels == (perm_label(w),)
    assert p.order == p.level == (0,)
    assert interval_summary(w)._starts == (0, 1)
    # only the empty word has the identity as its 0-Hecke product
    assert fk_polynomials(w, (0, 1, 2)) == (IntPolynomial((1,)), IntPolynomial(()), IntPolynomial(()))


def test_complementary_EX_matches_the_member_set_count():
    # the ideal route against the walk's covers / elements and the brute-force
    # count of up-steps that leave the member set: every w in S1..S6, 30
    # seeded w in S9, and all 5,040 w in S7
    walks = dict(_weak_interval_walks())
    cases = list(_weak_interval_cases()) + list(iperm(range(1, 8)))
    assert len(cases) == 5943
    for w in cases:
        walk = walks[w] if w in walks else bruteforce.slicing_weak_walk(w)
        expected = bruteforce.member_set_expectation_X(walk[0])
        assert expectation_X_complementary(w) == interval_summary(w).EX == expected, w


def test_weak_interval_matches_the_globally_sorted_poset():
    for w, walk in _weak_interval_walks():
        p = weak_interval(w)
        n, covers, labels = bruteforce.sorted_walk_poset(walk)
        q = FinitePoset(n, covers, labels)
        assert p == q and p.labels == q.labels == tuple(labels), w
        assert hash(p) == hash(q) and p.covers == q.covers, w
        assert p.lower_covers == q.lower_covers and p.upper_covers == q.upper_covers, w
        assert p.order == q.order and p.level == q.level, w
        # graded by length, from the identity at level 0 up to w
        assert list(p.level) == sorted(p.level) and p.level[-1] == length(w), w


def test_a_weak_interval_peaks_under_24_bytes_a_cover(monkeypatch):
    # a memory gate: the walk's lower tuples and elements go to the poset as
    # they are, with no list of pairs beside them, no copy, no second int
    # object for an element, no set of pairs, no upper lists and no labels
    # made before they are read.  The interval below 947826531 has 11,664
    # elements and 40,440 covers; built from its kept summary it peaked at
    # ~220 B a cover when its pairs were listed and filed back into lists, at
    # ~212 B when its lists were re-indexed and sorted, at ~167 B on the
    # walk's own tuples with a frozenset of its pairs kept beside them, at
    # ~62 B on the tuples alone with its upper lists and labels made, and at
    # ~16 B with both left to their first read
    monkeypatch.delenv("CDE_CAPACITY", raising=False)
    w = (9, 4, 7, 8, 2, 6, 5, 3, 1)
    interval_summary(w)
    tracemalloc.start()
    try:
        p = weak_interval(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (p.n, len(p.covers)) == (11_664, 40_440)
    assert peak <= 24 * len(p.covers), peak / len(p.covers)


def test_the_ideal_route_adds_over_direct_sum_blocks():
    # [e, u + v] = [e, u] x [e, v]: 321 + 21 + 1 gives 1 + 1/2, and
    # 4231 + 21 gives 5/4 + 1/2; a block of one entry adds nothing
    assert expectation_X_complementary((3, 2, 1, 5, 4, 6)) == Fraction(3, 2)
    assert expectation_X_complementary((4, 2, 3, 1, 6, 5)) == Fraction(7, 4)
    assert expectation_X_complementary(identity(9)) == 0


def test_the_ideal_route_validates_no_poset(monkeypatch):
    # N(w) goes to the ideal walk as order masks, not as a poset
    validated = []
    real = poset.validate
    monkeypatch.setattr(poset, "validate", lambda p: validated.append(p.n) or real(p))
    assert expectation_X_complementary(dominant_of_shape((4, 3, 2, 1))) == 2
    assert expectation_X_complementary(dominant_of_shape(rect_staircase(3, 2, 1))) == Fraction(4, 3)
    assert validated == []


def test_the_ideal_route_reaches_far_past_the_walks_bound(monkeypatch):
    # [e, w0] of S12 has 12! elements, refused by the walk from S10 on; N(w0)
    # is an antichain, whose 4,096 ideals give E(X) = (n - 1)/2
    monkeypatch.delenv("CDE_CAPACITY", raising=False)

    def refuse(w):
        raise AssertionError("walked")

    monkeypatch.setattr(permutations, "_weak_walk", refuse)
    permutations._summary_at.cache_clear()
    assert expectation_X_complementary(tuple(range(12, 0, -1))) == Fraction(11, 2)


def test_the_ideal_route_is_charged_for_the_covers_it_holds(monkeypatch):
    # J(N(w0)) of S10 has 2^10 ideals and 10 * 2^9 = 5,120 covers, two to a
    # unit of the bound, and holds under 1 KB per unit at its bound
    w0 = tuple(range(10, 0, -1))
    monkeypatch.setenv("CDE_CAPACITY", "2559")
    with pytest.raises(CapacityError, match="^order ideal cover pairs needs 2560 > capacity 2559$"):
        expectation_X_complementary(w0)
    monkeypatch.setenv("CDE_CAPACITY", "2560")
    tracemalloc.start()
    try:
        ex = expectation_X_complementary(w0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ex == Fraction(9, 2)
    assert peak < 2560 * 2**10, peak


def test_w0_of_S20_is_refused_at_the_default_bound_before_its_covers_fill_memory():
    # the antichain of 20 has 2^20 ideals, under the bound, but 10,485,760
    # covers (~1 GB as tuples); the charge stops the walk once it holds
    # over 4,000,000 of them
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    script = (
        "import resource\n"
        "from cde.errors import CapacityError\n"
        "from cde.permutations import expectation_X_complementary\n"
        "try:\n"
        "    expectation_X_complementary(tuple(range(20, 0, -1)))\n"
        "except CapacityError as exc:\n"
        "    print(exc)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "CDE_CAPACITY"}
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**env, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    message, max_rss_kb = done.stdout.splitlines()
    assert message == "order ideal cover pairs needs 2000001 > capacity 2000000"
    assert int(max_rss_kb) < 2**20, max_rss_kb  # under 1 GB


def test_a_long_permutation_with_a_small_interval_costs_memory_linear_in_n(monkeypatch):
    # s_1 s_(n-1) in S_2000 has a four-element interval, and the commuting
    # s_1 s_3 s_5 ... one far above any capacity; the walk, the poset, the
    # word count and the complementary E(X) cost O(n) per element found, where
    # n - 1 swaps of n entries each or an n x n table would take over 30 MB
    monkeypatch.setenv("CDE_CAPACITY", "8")
    n = 2000
    small = (2, 1) + tuple(range(3, n - 1)) + (n, n - 1)
    large = tuple(i + 1 if i % 2 else i - 1 for i in range(1, n + 1))
    tracemalloc.start()
    try:
        p = weak_interval(small)
        reduced = count_reduced(small)
        ex = expectation_X_complementary(small)
        with pytest.raises(CapacityError, match="weak order interval needs 9 > capacity 8"):
            weak_interval(large)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.n == 4 and reduced == 2 and ex == Fraction(1)
    assert p.labels[-1] == perm_label(small)
    assert peak < 4 * 2**20, peak


def test_long_permutations_cost_memory_linear_in_n_before_the_walk(capsys):
    # the codes of w and w^-1 give the length and the class in O(n) memory;
    # the n^2 / 2 inversion pairs of w_0 in S_2000 would take over 200 MB
    n = 2000
    w0 = tuple(range(n, 0, -1))
    small = (2, 1) + tuple(range(3, n - 1)) + (n, n - 1)
    tracemalloc.start()
    try:
        lengths = [length(w0), length(small)]
        code_sums = [sum(lehmer_code(w0)), sum(lehmer_code(small))]
        classes = [classify(w0), classify(small)]
        exit_code = cli.main(["--emit", "json", "perm", "stats", "--w", perm_label(small)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lengths == code_sums == [n * (n - 1) // 2, 2]
    assert classes == [
        PermClass(True, True, False, False, tuple(range(n - 1, 0, -1))),
        PermClass(False, False, False, False, None),
    ]
    assert exit_code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["interval_size"] == 4 and data["length"] == 2 and data["vexillary"] is False
    assert peak < 4 * 2**20, peak


def test_word_reversal_symmetry():
    for w in iperm(range(1, 5)):
        assert count_reduced(w) == count_reduced(inverse(w))
        assert count_nearly_reduced(w) == count_nearly_reduced(inverse(w))


def test_vexillary_count_identities():
    for n in (3, 4, 5):
        for w in iperm(range(1, n + 1)):
            c = classify(w)
            if c.vexillary:
                assert count_reduced(w) == hook_f(c.shape)
                assert count_nearly_reduced(w) == f_plus_one(c.shape)


def test_interval_translation_isomorphism():
    rng = random.Random(7)
    ws = [tuple(w) for w in iperm(range(1, 5))]
    for _ in range(8):
        w = rng.choice(ws)
        members = sorted(weak_interval_elements(w))
        u = rng.choice(members)
        between = [v for v in members if left_factor_check(u, v)]
        index = {v: i for i, v in enumerate(between)}
        covers = set()
        for v in between:
            for s in range(1, len(v)):
                if v[s - 1] < v[s]:
                    t = v[: s - 1] + (v[s], v[s - 1]) + v[s + 1 :]
                    if t in index:
                        covers.add((index[v], index[t]))
        sub = FinitePoset(len(between), covers)
        assert is_isomorphic(sub, weak_interval(compose(inverse(u), w)))


def test_mcde_failure_for_53124():
    w = (5, 3, 1, 2, 4)
    p = weak_interval(w)
    assert is_CDE(p)
    assert not is_mCDE_upto(p, 5)
    # closed form for the multichain expectation, checked pointwise
    for m in range(1, 6):
        want = Fraction(
            2 * (14 * m**3 + 111 * m**2 + 199 * m + 76),
            21 * m**3 + 168 * m**2 + 299 * m + 112,
        )
        assert expectation_Xm(p, m) == want


def test_left_factor_check():
    for w in iperm(range(1, 4)):
        assert left_factor_check(identity(3), w)
    assert left_factor_check((2, 1, 3, 4), (2, 3, 1, 4))
    assert not left_factor_check((1, 2, 4, 3), (2, 3, 1, 4))
    # equivalence with the 0-Hecke factorization test via v = u^-1 w
    for w in iperm(range(1, 5)):
        for u in iperm(range(1, 5)):
            v = compose(inverse(u), w)
            hecke_route = (
                length(u) + length(v) == length(w)
                and word_to_hecke(enumerate_reduced(u)[0] + enumerate_reduced(v)[0], 4) == w
            )
            assert left_factor_check(u, w) == hecke_route


def test_left_factor_check_matches_inversion_set_containment():
    # length additivity against the pairs of the brute-force oracle
    for n in range(1, 6):
        group = list(iperm(range(1, n + 1)))
        pairs = {w: left_inversions(w) for w in group}
        for u in group:
            for w in group:
                assert left_factor_check(u, w) == (pairs[u] <= pairs[w]), (u, w)
    with pytest.raises(MalformedInputError):
        left_factor_check((1, 2), (1, 2, 3))
    with pytest.raises(MalformedInputError):
        left_factor_check((1, 1, 2), (1, 2, 3))


def test_hecke_words_match_brute_force_words():
    # every w in S_1..S_4 at L = length(w) .. length(w) + 2, in the same order
    for n in range(1, 5):
        for w in iperm(range(1, n + 1)):
            ell = length(w)
            for L in range(ell, ell + 3):
                assert enumerate_hecke_words(w, L) == hecke_words_bruteforce(w, L), (w, L)


def test_hecke_words_need_no_call_stack_per_letter():
    # s_1 has exactly one word of each length, here far past the recursion limit
    assert enumerate_hecke_words((2, 1), 1200) == [(1,) * 1200]
    assert enumerate_reduced((1,)) == [()]


def test_hecke_words_are_charged_as_they_are_found(monkeypatch):
    # 321 has 8 words of length 4
    monkeypatch.setenv("CDE_CAPACITY", "7")
    with pytest.raises(CapacityError, match="0-Hecke word enumeration needs 8 > capacity 7"):
        enumerate_hecke_words((3, 2, 1), 4)
    monkeypatch.setenv("CDE_CAPACITY", "8")
    assert len(enumerate_hecke_words((3, 2, 1), 4)) == 8


def test_noninversion_poset():
    p = noninversion_poset((3, 2, 1))
    assert p.covers == frozenset()
    assert linear_extension_count(p) == 6
    q = noninversion_poset(identity(4))
    assert is_isomorphic(q, FinitePoset(4, {(0, 1), (1, 2), (2, 3)}))


def test_noninversion_poset_matches_relation_matrix_oracle():
    for n in range(7):
        for w in iperm(range(1, n + 1)):
            p = noninversion_poset(w)
            assert p.covers == bruteforce.noninversion_covers(w), w
            assert p.labels == tuple(str(v) for v in range(1, n + 1))


def test_noninversion_forest_criterion():
    for n in (3, 4, 5):
        for w in iperm(range(1, n + 1)):
            assert is_forest(noninversion_poset(w)) == classify(w).dominant


def test_noninversion_linear_extensions_count_interval():
    for w in [(3, 2, 1), (2, 4, 1, 3), (4, 2, 3, 1), (5, 3, 1, 2, 4)]:
        assert linear_extension_count(noninversion_poset(w)) == len(
            weak_interval_elements(w)
        )


def test_staircase_block_forest():
    # two-step staircase with 3x7 blocks: a 7-chain next to a 3-chain
    w = dominant_of_shape(rect_staircase(2, 3, 7))
    p = noninversion_poset(w)
    assert is_forest(p)
    assert linear_extension_count(p) == 120
    assert len(weak_interval_elements(w)) == 120


def test_dominant_EX_closed_form():
    assert dominant_EX_closed_form(3, 1, 2) == Fraction(4, 3)
    for a in range(1, 4):
        for b in range(1, 4):
            assert dominant_EX_closed_form(2, a, b) == Fraction(a * b, a + b)
    assert dominant_EX_closed_form(3, 3, 7) == Fraction(21, 5)


def test_dominant_EX_theta_vs_generic():
    for (d, a, b) in [(3, 1, 1), (3, 1, 2), (3, 2, 1), (2, 2, 2), (2, 2, 3)]:
        w = dominant_of_shape(rect_staircase(d, a, b))
        assert dominant_EX_closed_form(d, a, b) == expectation_X_complementary(w)
        assert dominant_EX_closed_form(d, a, b) == Fraction((d - 1) * a * b, a + b)


def test_dominant_EX_via_quotient_formula():
    # half of (generators minus the average number of exits), written through
    # linear-extension counts of cover quotients of the noninversion poset
    d, a, b = 3, 3, 7
    w = dominant_of_shape(rect_staircase(d, a, b))
    p = noninversion_poset(w)
    total = Fraction(0)
    base = linear_extension_count(p)
    for (i, j) in sorted(p.covers):
        total += Fraction(linear_extension_count(quotient_cover(p, i, j)), base)
    got = Fraction(1, 2) * (len(w) - 1 - total)
    assert got == dominant_EX_closed_form(d, a, b)


def test_rothe_examples():
    data = rothe((1, 4, 2, 5, 3))
    assert data.diagram == frozenset({(2, 2), (2, 3), (4, 3)})
    assert data.lambda_w == (2, 1)
    assert data.mu_w == (3, 3, 3, 3)
    assert data.flag_w == (2, 4)
    data = rothe((4, 2, 3, 1))
    assert data.flag_w == (1, 2, 3)
    data = rothe(identity(4))
    assert data.diagram == frozenset()
    assert data.lambda_w == () and data.flag_w == ()
    with pytest.raises(NotVexillaryError):
        rothe((2, 1, 4, 3))


def test_rothe_diagram_nonvexillary_ok():
    assert rothe_diagram((2, 1, 4, 3)) == frozenset({(1, 1), (3, 3)})


def test_flag_stabilization():
    for w in [(3, 2, 1), (1, 4, 2, 5, 3), (2, 5, 3, 1, 4)]:
        base = rothe(w)
        for N in (1, 2, 3):
            shifted = rothe(prepend_identity(w, N))
            assert shifted.lambda_w == base.lambda_w
            assert shifted.flag_w == tuple(f + N for f in base.flag_w)


def test_vexillary_flag_matches_the_rothe_diagram_oracle():
    count = 0
    for n in range(1, 8):
        for w, shape in vexillary_permutations(n):
            flag = permutations._vexillary_flag(lehmer_code(w), shape)
            assert flag == bruteforce.rothe_flag(w), w
            assert rothe(w).flag_w == flag
            count += 1
    assert count == 1 + 2 + 6 + 23 + 103 + 513 + 2761


def test_fk_321():
    fk3 = fk_polynomial((3, 2, 1), 3)
    want3 = IntPolynomial.x_plus(1) * IntPolynomial.x_plus(2) * IntPolynomial((3, 2))
    assert fk3 == want3
    fk4 = fk_polynomial((3, 2, 1), 4)
    want4 = 2 * IntPolynomial.x_plus(1) * IntPolynomial.x_plus(2) * IntPolynomial((3, 2)) * IntPolynomial((3, 2))
    assert fk4 == want4
    num, den = poly_divides(fk3, fk4)
    assert den == 1 and num == IntPolynomial((6, 4))
    assert fk_polynomial(identity(3), 0) == IntPolynomial.one()
    assert fk_polynomial((3, 2, 1), 2).is_zero()


def test_fk_routes_agree_small():
    cases = [((3, 2, 1), 3), ((3, 2, 1), 4), ((3, 2, 1), 5),
             ((4, 2, 3, 1), 7), ((2, 3, 6, 1, 4, 5), 6), ((2, 5, 3, 1, 4), 8)]
    for w, L in cases:
        assert fk_polynomial(w, L, via="tableaux") == fk_polynomial(w, L, via="words")
    # comparing the routes is the caller's job; the library offers no "both"
    with pytest.raises(MalformedInputError):
        fk_polynomial((3, 2, 1), 3, via="both")


def test_fk_tableaux_route_edge_cases():
    # the identity has the empty shape: one word of length 0 and none longer
    for L in range(4):
        by_tableaux = fk_polynomial(identity(3), L, via="tableaux")
        assert by_tableaux == fk_polynomial(identity(3), L)
        assert by_tableaux == (IntPolynomial.one() if L == 0 else IntPolynomial.zero())
    # 201 flag shifts, all read from one pass of the tableau DP
    assert fk_polynomial((2, 1), 200, via="tableaux") == fk_polynomial((2, 1), 200)


def test_fk_tableaux_route_charges_its_point_terms(monkeypatch):
    # L = 200 sums 201 points of up to 201 Stirling terms each: 40,401 terms
    by_words = fk_polynomial((2, 1), 200)  # 2 * 199^2 words terms, over 40,401
    monkeypatch.setenv("CDE_CAPACITY", "40400")
    with pytest.raises(CapacityError, match="FK tableaux point terms needs 40401 > capacity 40400"):
        fk_polynomial((2, 1), 200, via="tableaux")
    monkeypatch.setenv("CDE_CAPACITY", "40401")
    assert fk_polynomial((2, 1), 200, via="tableaux") == by_words


def test_fk_words_route_matches_the_full_hecke_table():
    # every w in S_1..S_5 at L = 0..length+3: 1,294 (w, L) pairs
    pairs = 0
    for n in range(1, 6):
        tables = bruteforce.hecke_weight_tables(n, n * (n - 1) // 2 + 3)
        for w in iperm(range(1, n + 1)):
            Ls = range(length(w) + 4)
            for L, pol in zip(Ls, fk_polynomials(w, Ls)):
                assert pol.coeffs == tables[L].get(w, ()), (w, L)
                pairs += 1
    assert pairs == 1294


@pytest.mark.parametrize("via", ["words", "tableaux"])
@pytest.mark.parametrize(
    "w, Ls",
    [
        ((3, 2, 1), (5, 3, 4)),  # unsorted
        ((3, 2, 1), (4, 4, 3, 4)),  # repeated
        ((3, 2, 1), (0, 1, 2, 3)),  # L = 0 and L below the length
        ((1, 2, 3), (2, 0, 1, 0)),  # the identity
        ((2, 4, 1, 3), (6, 2, 3, 5)),
        ((2, 5, 3, 1, 4), (1, 6, 4, 5)),
        ((2, 1), ()),
    ],
)
def test_fk_polynomials_equal_one_call_per_L(w, Ls, via):
    got = fk_polynomials(w, Ls, via=via)
    assert isinstance(got, tuple)
    assert list(got) == [fk_polynomial(w, L, via=via) for L in Ls]
    assert all(got[k].is_zero() for k, L in enumerate(Ls) if L < length(w))


def test_fk_polynomials_check_their_input():
    with pytest.raises(RangeError):
        fk_polynomials((3, 2, 1), (3, -1))
    with pytest.raises(MalformedInputError):
        fk_polynomials((3, 2, 1), (3,), via="both")
    with pytest.raises(MalformedInputError):
        fk_polynomials((3, 3, 1), (3,))
    with pytest.raises(NotVexillaryError):
        fk_polynomials((2, 1, 4, 3), (2,), via="tableaux")


def test_fk_words_route_stops_at_the_weak_interval_bound(monkeypatch):
    w = (5, 3, 1, 2, 4)
    size = len(weak_interval_elements(w))
    monkeypatch.setenv("CDE_CAPACITY", str(size - 1))
    with pytest.raises(CapacityError):
        fk_polynomial(w, length(w))
    monkeypatch.setenv("CDE_CAPACITY", str(size))
    assert fk_polynomial(w, length(w)).leading_coefficient() == count_reduced(w)


def test_fk_leading_coefficient_counts_words():
    for (w, L) in [((3, 2, 1), 3), ((3, 2, 1), 4), ((3, 2, 1), 5), ((2, 4, 1, 3), 4)]:
        lead = fk_polynomial(w, L).leading_coefficient() if not fk_polynomial(w, L).is_zero() else 0
        assert lead == len(hecke_words_bruteforce(w, L))


def test_fk_degree_and_absorption():
    # L below the permutation length gives the zero polynomial
    assert fk_polynomial((4, 2, 3, 1), 4).is_zero()
    p = fk_polynomial((4, 2, 3, 1), 5)
    assert p.degree == 5


def test_conjecture_fk_311():
    rep = conjecture_fk_check(3, 1, 1)
    assert rep.divides and rep.quotient_matches and rep.ssyt_ratio_ok
    num, den = rep.quotient
    assert den == 1 and num == IntPolynomial((6, 4))


def test_conjecture_fk_d2():
    for (a, b) in [(1, 1), (1, 2), (2, 2)]:
        rep = conjecture_fk_check(2, a, b)
        assert rep.consistent


def test_prepend_identity():
    assert prepend_identity((3, 2, 1), 2) == (1, 2, 5, 4, 3)
