import itertools
import pickle
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache, partial
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

import cde.poset as poset
from cde.errors import (
    CapacityError,
    CycleError,
    EmptyPosetError,
    MalformedInputError,
    NotCoverError,
    NotReducedError,
    SizeError,
)
from cde import verify
from cde.permutations import (
    noninversion_poset,
    strong_bruhat,
    vexillary_permutations,
    weak_interval,
    weak_order_full,
)
from cde.poset import (
    FinitePoset,
    antichain,
    boolean,
    canonical_key,
    chain,
    disjoint_union,
    dual,
    dump_poset,
    expectation_under_multichain,
    expectation_X,
    expectation_Xm,
    expectation_Y,
    forest_merge_ratio,
    is_CDE,
    is_forest,
    is_isomorphic,
    is_mCDE_upto,
    linear_extension_count,
    load_poset,
    multichain_counts,
    order_ideal_lattice,
    order_ideals,
    ordinal_sum,
    pabcd,
    product,
    quotient_cover,
    self_dual_regular_check,
    stats,
    tamari,
    toggle_symmetry_check,
    validate,
)
from cde.tableaux import shifted_interval, young_interval
from cde.verify import _enumerate_multichain_expectation, all_posets_upto_iso

import bruteforce
from bruteforce import linear_extensions, multichains_through


@lru_cache(maxsize=None)
def small_posets():
    """Every poset on 1..6 elements, one per isomorphism class: the 405 of
    the census, built once for the tests that read them and count no builds."""
    return tuple(p for n in range(1, 7) for p in all_posets_upto_iso(n))


@lru_cache(maxsize=None)
def small_forests():
    """Every forest on 1..6 elements, one per isomorphism class."""
    return tuple(p for p in small_posets() if is_forest(p))


def M3():
    """Five-element modular non-distributive lattice."""
    return FinitePoset(5, frozenset({(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)}))


def up_closure(p):
    """Independent reflexive up-set computation for the brute-force oracle."""
    ups = {x: {x} for x in range(p.n)}
    changed = True
    while changed:
        changed = False
        for a, b in p.covers:
            new = ups[b] - ups[a]
            if new:
                ups[a] |= new
                changed = True
    return ups


def test_validate_examples():
    validate(chain(3))
    with pytest.raises(CycleError):
        validate(FinitePoset(2, frozenset({(0, 1), (1, 0)})))
    with pytest.raises(NotReducedError) as err:
        validate(FinitePoset(3, frozenset({(0, 1), (1, 2), (0, 2)})))
    assert err.value.cover == (0, 2)


def test_validate_range():
    with pytest.raises(MalformedInputError):
        validate(FinitePoset(2, frozenset({(0, 5)})))


def test_out_of_range_covers_name_the_least_one():
    # as NotReducedError does, the message names the least offending pair,
    # not whichever one the frozenset yields first
    with pytest.raises(MalformedInputError, match=r"^cover \(7, 10\) out of range$"):
        FinitePoset(8, {(1, 6), (8, -2), (5, 1), (7, 10)})
    rng = random.Random(1906)
    checked = 0
    for _ in range(300):
        n = rng.randrange(8)
        covers = {
            (rng.randrange(-3, n + 3), rng.randrange(-3, n + 3)) for _ in range(rng.randrange(1, 9))
        }
        bad = [(a, b) for a, b in covers if not (0 <= a < n and 0 <= b < n)]
        if bad:
            with pytest.raises(MalformedInputError) as err:
                FinitePoset(n, covers)
            assert str(err.value) == f"cover {min(bad)} out of range"
            checked += 1
    assert checked > 200


def test_validate_checks_a_large_ungraded_poset_without_the_order_relation(monkeypatch):
    # a pentagon (0 < 1 < 2 < 4 and 0 < 3 < 4) among isolated elements is not
    # graded, so validate searches below its cover 3 < 4 that skips a level;
    # the full order relation of n = 20000 would be 20000 masks of up to
    # 20000 bits each
    def refuse(self):
        raise AssertionError("validate built the order relation")

    monkeypatch.setattr(FinitePoset, "order_relation", refuse)
    pentagon = "cover 0 1\ncover 1 2\ncover 2 4\ncover 0 3\ncover 3 4\n"
    assert len(load_poset("n 20000\n" + pentagon).covers) == 5
    with pytest.raises(NotReducedError) as err:
        load_poset("n 20000\n" + pentagon + "cover 1 4\ncover 0 2\n")
    assert err.value.cover == (0, 2)
    # the element count itself is charged, before any list is built
    monkeypatch.setenv("CDE_CAPACITY", "1000")
    with pytest.raises(CapacityError, match="poset elements needs 1000000 > capacity 1000"):
        load_poset("n 1000000\n" + pentagon)
    assert chain(1000).n == 1000
    with pytest.raises(CapacityError, match="poset elements needs 1001 > capacity 1000"):
        chain(1001)


def test_stored_order_and_levels_match_the_oracle():
    # the pair path and the walks' lists (J, weak and Young intervals) alike
    posets = [*small_posets(), *(tamari(n) for n in range(3, 8)), pabcd(1, 2, 3, 1)]
    posets += [order_ideal_lattice(p) for p in small_posets() if p.n <= 4]
    posets += [weak_order_full(4), weak_interval((2, 4, 1, 5, 3)), young_interval((3, 2, 1))]
    posets += [shifted_interval((4, 2, 1))]
    for p in posets:
        assert sorted(p.order) == list(range(p.n))
        place = {x: i for i, x in enumerate(p.order)}
        assert all(place[a] < place[b] for a, b in p.covers)
        assert list(p.level) == bruteforce.longest_chain_below(p)
        assert list(p.order) == sorted(range(p.n), key=lambda x: (p.level[x], x))
        assert p.topological_order() == list(p.order)
        # the cover lists hold exactly the covers, each tuple ascending
        lists = p.upper_covers + p.lower_covers
        assert all(lst == tuple(sorted(lst)) for lst in lists)
        assert {(a, b) for a in range(p.n) for b in p.upper_covers[a]} == set(p.covers)
        assert {(a, b) for b in range(p.n) for a in p.lower_covers[b]} == set(p.covers)


def test_the_walks_lists_give_the_poset_their_pairs_give():
    # J(P) of the census up to 5 elements, the Young and shifted intervals of
    # the shapes of size at most 8, and the weak intervals of S1..S6 hand
    # their walk's lower lists over as they are; the same poset built from
    # its pairs files them into the same lists and places its elements in the
    # same order.  A graded hand-off keeps neither its upper lists nor its
    # labels until they are read, and the poset from pairs stores both: they
    # agree on each, and on equality and hash, before and after the first
    # read of the labels, and across pickle
    builds = [(order_ideal_lattice, p) for n in range(1, 6) for p in all_posets_upto_iso(n)]
    shapes = [s for s in bruteforce.subpartitions((8,) * 8) if sum(s) <= 8]
    builds += [(young_interval, s) for s in shapes]
    builds += [(shifted_interval, s) for s in shapes if len(set(s)) == len(s)]
    builds += [(weak_interval, w) for n in range(1, 7) for w in itertools.permutations(range(1, n + 1))]
    assert len(builds) == 87 + 67 + 25 + 873
    for build, arg in builds:
        first = build(arg)
        q = FinitePoset(first.n, first.covers, first.labels)
        p = build(arg)
        assert "labels" not in vars(p) and "upper_covers" not in vars(p), arg
        assert p.lower_covers == q.lower_covers and p.order == q.order and p.level == q.level, arg
        copy = pickle.loads(pickle.dumps(p))  # before the first read
        assert "labels" not in vars(copy), arg
        for r in (p, copy):
            assert r.upper_covers == q.upper_covers, arg
            # hash is the first read of the labels
            assert hash(r) == hash(q) and r == q and "labels" in vars(r), arg
            assert r.labels == q.labels and type(r.labels) is tuple, arg
            assert hash(r) == hash(q) and r == q, arg
            assert pickle.loads(pickle.dumps(r)) == q, arg


def test_stats_counts_the_maximal_chains_from_the_minimal_elements():
    # the census holds posets that are not graded and posets with several
    # minimal elements
    posets = small_posets()
    assert any(len(bruteforce.maximal_chain_lengths(p)) > 1 for p in posets)
    assert any(sum(not lows for lows in p.lower_covers) > 1 for p in posets)
    for p in posets:
        assert stats(p).maximal_chain_count == bruteforce.maximal_chain_count(p.covers, p.n), p


def test_stats_and_the_poset_queries_derive_no_labels_or_upper_covers():
    # a work gate: the statistics read lower covers only, so a graded poset
    # never makes its upper lists or labels on these routes
    p = weak_interval((9, 4, 7, 8, 2, 6, 5, 3, 1))
    stats(p)
    assert "labels" not in vars(p) and "upper_covers" not in vars(p)
    # the poset-queries payload on J(P), for a P that is not a forest
    base = load_poset("n 5\ncover 0 2\ncover 1 2\ncover 1 3\ncover 2 4\ncover 3 4\n")
    assert not is_forest(base)
    j = order_ideal_lattice(base)
    st = stats(j)
    assert [expectation_Xm(j, m) for m in range(1, 9)][0] == st.EX
    is_mCDE_upto(j, 8)
    toggle_symmetry_check(base, 5)
    assert linear_extension_count(base) == st.maximal_chain_count
    assert base._lattice[0] is j
    assert "labels" not in vars(j) and "upper_covers" not in vars(j)


def test_no_cover_list_of_a_built_poset_can_be_changed():
    # every route: each registry key, the text format, the Hasse reduction of
    # an order, and the graded hand-offs of J(P) and the three intervals
    specs = [
        "chain:3",
        "antichain:2",
        "boolean:2",
        "tamari:5",
        "pabcd:1,2,1,2",
        "grid:2,3",
        "young:3,1",
        "shifted:4,2",
        "weak-order:3",
        "strong-bruhat:3",
        "ordinal-sum-antichains:2,3",
        "zigzag:5",
        "v",
        "m3",
    ]
    assert {spec.partition(":")[0] for spec in specs} == set(verify._BUILDERS)
    posets = [verify.build_poset(spec) for spec in specs]
    posets += [load_poset("n 3\ncover 0 1\ncover 0 2\n"), noninversion_poset((3, 1, 4, 2))]
    posets += [order_ideal_lattice(boolean(2)), weak_interval((2, 4, 1, 3)), young_interval((2, 2))]
    posets += [shifted_interval((3, 2))]
    for p in posets:
        for lists in (p.lower_covers, p.upper_covers):
            assert type(lists) is tuple and all(type(lst) is tuple for lst in lists), p
    p = chain(3)
    with pytest.raises(AttributeError):
        p.lower_covers[2].append(0)
    with pytest.raises(TypeError):
        p.lower_covers[2] = (0, 1)
    # before, the append above gave EY = 1 and EX = 2/3 on a poset still taken as valid
    assert (stats(p).EX, stats(p).EY) == (Fraction(2, 3), Fraction(2, 3))


def _labels(n):
    return [str(x) for x in range(n)]


def test_a_graded_hand_off_gives_the_poset_its_pairs_give():
    # two elements over one, and one over both: the walks' layout, levels in order
    lower = ((), (0,), (0,), (1, 2))
    p = poset._from_graded(lower, (1, 2, 1), "abcd")
    q = FinitePoset(4, {(0, 1), (0, 2), (1, 3), (2, 3)}, "abcd")
    assert p == q and p.labels == q.labels == tuple("abcd")
    assert p.lower_covers is lower and p.lower_covers == q.lower_covers
    assert p.upper_covers == q.upper_covers == ((1, 2), (3,), (3,), ())
    assert p.order == q.order == (0, 1, 2, 3) and p.level == q.level == (0, 1, 1, 2)
    # an empty poset, and levels of one element each
    assert poset._from_graded((), (), ()) == FinitePoset(0, set(), ())
    assert poset._from_graded(((), (0,), (1,)), (1, 1, 1), "abc") == FinitePoset(3, {(0, 1), (1, 2)}, "abc")


_OUT_OF_PLACE = r"cover \({}, {}\) is out of order, or not one level up"


@pytest.mark.parametrize(
    "lower, ranks, labels, message",
    [
        # a descending list, and a repeat
        (((), (), (1, 0)), (2, 1), _labels(3), _OUT_OF_PLACE.format(0, 2)),
        (((), (), (0, 0)), (2, 1), _labels(3), _OUT_OF_PLACE.format(0, 2)),
        # a cover that skips a level, one within a level, one going down,
        # one out of range, and one below level 0
        (((), (0,), (0,)), (1, 1, 1), _labels(3), _OUT_OF_PLACE.format(0, 2)),
        (((), (0,), (1,)), (1, 2), _labels(3), _OUT_OF_PLACE.format(1, 2)),
        (((), (2,), (0,)), (1, 1, 1), _labels(3), _OUT_OF_PLACE.format(2, 1)),
        (((), (0,), (5,)), (1, 1, 1), _labels(3), _OUT_OF_PLACE.format(5, 2)),
        (((), (0,), (-1,)), (1, 1, 1), _labels(3), _OUT_OF_PLACE.format(-1, 2)),
        (((0,), ()), (2,), _labels(2), _OUT_OF_PLACE.format(0, 0)),
        (((), (0,), ()), (1, 2), _labels(3), r"element 2 on level 1 has no lower cover"),
        # rank sizes that miss the element count, and the wrong label count
        (((), (0,)), (1, 2), _labels(2), r"ranks hold 3 and labels 2 of 2 elements"),
        (((), (0,)), (1,), _labels(2), r"ranks hold 1 and labels 2 of 2 elements"),
        (((), (0,)), (1, 1), _labels(1), r"ranks hold 2 and labels 1 of 2 elements"),
    ],
)
def test_a_malformed_graded_hand_off_is_refused(lower, ranks, labels, message):
    with pytest.raises(MalformedInputError, match=f"^{message}$"):
        poset._from_graded(lower, ranks, labels)


def _strict_closure(covers, n):
    rel = [[(a, b) in covers for b in range(n)] for a in range(n)]
    for z in range(n):
        for a in range(n):
            if rel[a][z]:
                rel[a] = [x or y for x, y in zip(rel[a], rel[z])]
    return rel


def test_construction_rejects_exactly_the_implied_covers():
    # graded cover sets join consecutive levels only; the others are any
    # acyclic pairs, so a cover may be implied by a longer path
    rng = random.Random(17)
    built = rejected = 0
    for trial in range(2000):
        n = rng.randint(1, 9)
        if trial % 2:
            levels = [rng.randint(0, 3) for _ in range(n)]
            pairs = [(a, b) for a in range(n) for b in range(n) if levels[b] == levels[a] + 1]
            covers = {c for c in pairs if rng.random() < 0.6}
        else:
            covers = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4}
        names = rng.sample(range(n), n)
        covers = {(names[a], names[b]) for a, b in covers}
        implied = covers - bruteforce.hasse_reduction(_strict_closure(covers, n))
        if implied:
            with pytest.raises(NotReducedError) as err:
                FinitePoset(n, covers)
            assert err.value.cover == min(implied)
            rejected += 1
        else:
            assert FinitePoset(n, covers).covers == covers
            built += 1
    assert built > 300 and rejected > 300


def test_self_cover_is_reported_before_a_cycle():
    with pytest.raises(CycleError, match="^self-cover at 1$"):
        FinitePoset(3, {(0, 1), (1, 1)})
    with pytest.raises(CycleError, match="^self-cover at 2$"):
        FinitePoset(3, {(0, 1), (1, 0), (2, 2)})
    # both ends are read as integers, so a bool end names its element
    with pytest.raises(CycleError, match="^self-cover at 1$"):
        FinitePoset(2, {(True, 1)})
    with pytest.raises(CycleError, match="^cover digraph contains a directed cycle$"):
        FinitePoset(3, {(0, 1), (1, 2), (2, 0)})


def test_invalid_posets_cannot_be_built():
    with pytest.raises(NotReducedError):
        FinitePoset(3, frozenset({(0, 1), (1, 2), (0, 2)}))
    with pytest.raises(MalformedInputError):
        FinitePoset(2, frozenset({(0, 5)}))
    # rejected before the adjacency lists are built, where -1 would index
    with pytest.raises(MalformedInputError):
        FinitePoset(2, {(-1, 0)})
    with pytest.raises(CycleError):
        FinitePoset(2, frozenset({(0, 1), (1, 0)}))
    with pytest.raises(SizeError):
        FinitePoset(-1, frozenset())
    # one label per element, so dump_poset cannot index past the labels
    with pytest.raises(MalformedInputError):
        FinitePoset(3, {(0, 1)}, ["a"])
    with pytest.raises(MalformedInputError):
        FinitePoset(1, set(), ["a", "b"])
    assert FinitePoset(2, [(0, 1)], ["a", "b"]).labels == ("a", "b")


def test_expectation_X_chain():
    for n in range(1, 7):
        assert expectation_X(chain(n)) == Fraction(n - 1, n)
    with pytest.raises(EmptyPosetError):
        expectation_X(FinitePoset(0, frozenset()))


def test_M3_values():
    p = M3()
    assert expectation_X(p) == Fraction(6, 5)
    assert expectation_Y(p) == Fraction(4, 3)
    assert not is_CDE(p)


def test_expectation_Y_small():
    # single chain: every element lies on the one maximal chain
    assert expectation_Y(chain(4)) == Fraction(3, 4)
    assert expectation_Y(antichain(3)) == 0


def _small_posets():
    """Every poset with at most 5 elements up to isomorphism, fixed labellings
    of a few of them, and chain(12)."""
    from cde.verify import all_posets_upto_iso

    fixtures = [M3(), pabcd(1, 1, 2, 1), boolean(2), chain(3), antichain(3),
                disjoint_union(chain(3), antichain(2)), chain(12)]
    return [p for n in range(1, 6) for p in all_posets_upto_iso(n)] + fixtures


def test_multichain_counts_against_bruteforce():
    for p in _small_posets():
        ups = up_closure(p)
        for m in range(1, 8):
            assert multichain_counts(p, m) == multichains_through(ups, p.n, m)


def test_multichain_oracle_matches_bruteforce_multichains():
    for n in range(1, 6):
        for p in all_posets_upto_iso(n):
            ups = up_closure(p)
            values = list(range(n))
            for m in range(1, 5):
                want = bruteforce.expectation_of(values, multichains_through(ups, n, m))
                assert _enumerate_multichain_expectation(p, m, values) == want


def test_is_mCDE_upto_compares_each_multichain_expectation():
    for p in _small_posets():
        base = expectation_X(p)
        expectations = [expectation_Xm(p, m) for m in range(1, 8)]
        assert poset._multichain_expectations(p, 7) == expectations
        for M in range(-1, 8):
            want = all(expectation_Xm(p, m) == base for m in range(2, M + 1))
            assert is_mCDE_upto(p, M) == want


def test_multichain_means_match_the_per_element_counts_and_the_enumeration():
    # the column sums of the chain table against multichain_counts and the
    # listed multichains, for every m up to two past the longest chain
    rng = random.Random(33)
    for n in range(1, 6):
        for p in all_posets_upto_iso(n):
            dd = p.down_degrees()
            values = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for m in range(1, max(p.level) + 4):
                counts = multichain_counts(p, m)
                means = [
                    (expectation_Xm(p, m), dd),
                    (expectation_under_multichain(p, m, values), values),
                ]
                for got, vals in means:
                    assert got == Fraction(sum(v * c for v, c in zip(vals, counts)), sum(counts))
                    assert got == _enumerate_multichain_expectation(p, m, vals)


def test_multichain_means_check_values_then_the_poset_then_m():
    empty, p = FinitePoset(0, frozenset()), chain(3)
    nonempty = "statistic undefined on the empty poset"
    not_integer = "multichain size 1.5 is not an integer"
    not_positive = "m must be a positive integer"
    count = "1 values for 0 elements"
    missing = "multichain expectation values must come as a sequence, not NoneType"
    calls = [
        (lambda: expectation_under_multichain(p, 2, None), MalformedInputError, missing),
        (lambda: expectation_under_multichain(empty, 0, [1]), MalformedInputError, count),
        (
            lambda: expectation_under_multichain(p, 1.5, [1, 2.0, 3]),
            MalformedInputError,
            "multichain expectation values must be int or Fraction",
        ),
        (lambda: expectation_under_multichain(empty, 0, []), EmptyPosetError, nonempty),
        (lambda: expectation_Xm(empty, 0), EmptyPosetError, nonempty),
        (lambda: expectation_Xm(empty, 1.5), EmptyPosetError, nonempty),
        (lambda: expectation_Xm(p, 1.5), MalformedInputError, not_integer),
        (lambda: expectation_under_multichain(p, 1.5, [0, 1, 1]), MalformedInputError, not_integer),
        (lambda: expectation_Xm(p, 0), SizeError, not_positive),
        (lambda: expectation_under_multichain(p, -2, [1, 2, 3]), SizeError, not_positive),
    ]
    for call, error, message in calls:
        with pytest.raises(error) as raised:
            call()
        assert type(raised.value) is error and str(raised.value) == message


def test_multichain_statistics_build_one_table_of_the_needed_size(monkeypatch):
    built = []
    real = poset._chain_table

    def counted(p, size):
        table = real(p, size)  # (clamped size, rows, W, T, V)
        built.append((size, table[0]))
        return table

    monkeypatch.setattr(poset, "_chain_table", counted)
    J = order_ideal_lattice(antichain(3))  # the Boolean lattice B_3, rank 3
    assert is_mCDE_upto(J, 8)  # every m = 2..8 compared, from one table
    assert built == [(8, 4)]
    built.clear()
    # every 2-element multichain through e is (x, e) or (e, x): n of them
    assert multichain_counts(chain(400), 2) == [400] * 400
    assert built == [(2, 2)]


def _table_rows(p, size) -> list[list[int]]:
    """p's chain table at `size`, read through `poset._columns`, as rows
    that end at their last nonzero entry, the shape of bruteforce.chain_table;
    its kept column sums T and V are checked against those rows on the way."""
    size, rows, W, total, weighted = poset._chain_table(p, size)
    table = [list(row) for row in zip(*poset._columns(rows, W, size))]
    assert list(total) == [sum(col) for col in zip(*table)]
    assert list(weighted) == [sum(map(mul, p.down_degrees(), col)) for col in zip(*table)]
    for row in table:
        while row[-1] == 0:
            row.pop()
    return table


def test_chain_table_matches_the_list_convolution_oracle():
    # ascending sizes grow each poset's kept table; descending sizes, on
    # fresh posets, read every size below the first from its prefix
    for sizes in (range(1, 10), range(9, 0, -1)):
        # tamari(6) is not graded: its chains skip ranks
        for p in _small_posets() + [boolean(5), product(chain(3), chain(4)), tamari(6)]:
            for size in sizes:
                assert _table_rows(p, size) == bruteforce.chain_table(p, size)


def _counting_builds(monkeypatch) -> list[int]:
    """The sizes of the chain tables built from here on, in order."""
    built = []
    real = poset._build_chain_table
    monkeypatch.setattr(
        poset, "_build_chain_table", lambda lower, order, size: built.append(size) or real(lower, order, size)
    )
    return built


def test_a_narrow_chain_table_is_built_once_at_full_height(monkeypatch):
    built = _counting_builds(monkeypatch)
    p = product(chain(5), chain(5))  # its longest chain has 9 elements, in 189-bit rows
    xm = [expectation_Xm(p, m) for m in range(1, 9)]
    assert is_mCDE_upto(p, 8)
    assert built == [9]  # m = 1 needs no table; m = 2 builds the whole table
    # every later request reads its prefix, rows and column sums alike
    assert [expectation_Xm(p, m) for m in range(1, 9)] == xm and is_mCDE_upto(p, 8)
    assert [_table_rows(p, size) for size in range(1, 10)] == [
        bruteforce.chain_table(p, size) for size in range(1, 10)
    ]
    zeta = [sum(a * comb(99, k) for k, a in enumerate(row)) for row in bruteforce.chain_table(p, 100)]
    assert multichain_counts(p, 100) == zeta
    assert is_mCDE_upto(p, 50) and built == [9]
    # an equal poset built apart has no table yet
    q = product(chain(5), chain(5))
    assert q == p and expectation_Xm(q, 8) == xm[-1]
    assert built == [9, 9]


def test_chain_table_is_built_once_per_poset_and_grown_by_doubling(monkeypatch):
    built = _counting_builds(monkeypatch)
    p = chain(70)  # its full-height rows take 70 entries of 67 bits: 4,690 bits
    xm = [expectation_Xm(p, m) for m in range(1, 9)]
    assert is_mCDE_upto(p, 8)
    assert built == [2, 4, 8]  # m = 1 needs no table; 3 and 5 miss
    assert [expectation_Xm(p, m) for m in range(1, 9)] == xm and is_mCDE_upto(p, 8)
    assert built == [2, 4, 8]
    # a larger request builds at most the longest chain, which answers all
    assert multichain_counts(p, 100) == [comb(168, 69)] * 70
    assert is_mCDE_upto(p, 50) and built == [2, 4, 8, 70]
    # an equal poset built apart has no table yet
    q = chain(70)
    assert q == p and expectation_Xm(q, 8) == xm[-1]
    assert built == [2, 4, 8, 70, 8]


def test_a_table_grown_by_doubling_serves_caller_values_and_counts(monkeypatch):
    # every k-set of a chain is a chain, so each element is in as many
    # m-element multichains as any other, C(68 + m, 69) on 70 elements, and
    # the mean of any values is their plain mean
    built = _counting_builds(monkeypatch)
    p = chain(70)
    values = [Fraction(e * e - 40, e + 1) for e in range(70)]
    for m in range(2, 10):
        assert expectation_under_multichain(p, m, values) == Fraction(sum(values), 70)
        assert multichain_counts(p, m) == [comb(68 + m, 69)] * 70
    assert built == [2, 4, 8, 16]  # read at sizes 3, 5..7 and 9 from a larger table


def test_a_full_height_table_is_built_only_when_its_words_fit_the_bound(monkeypatch):
    # 108 elements, longest chain 8: the full-height table would hold 540
    # words, over the bound; the request for m = 2 needs 108 words and the
    # strict order 28 pairs, so it is built at size 2 alone
    monkeypatch.setenv("CDE_CAPACITY", "200")
    built = _counting_builds(monkeypatch)
    assert expectation_Xm(disjoint_union(chain(8), antichain(100)), 2) == Fraction(14, 41)
    assert built == [2]


def test_every_multichain_expectation_of_a_small_J_reads_one_build(monkeypatch):
    # a work gate: J(P) for every P of at most 5 elements has rows of at
    # most 6 entries, so m = 1..8 are read from one full-height build,
    # whether they are asked at once or one by one from m = 1 up
    built = _counting_builds(monkeypatch)
    for n in range(1, 6):
        for p in all_posets_upto_iso(n):
            J = order_ideal_lattice(p)
            del built[:]
            xm = poset._multichain_expectations(J, 8)
            assert len(built) == 1
            assert [expectation_Xm(J, m) for m in range(1, 9)] == xm
            assert len(built) == 1
            J = order_ideal_lattice(p)
            assert [expectation_Xm(J, m) for m in range(1, 9)] == xm
            assert len(built) == 2


def test_a_kept_chain_table_holds_under_250_bytes_an_element(monkeypatch):
    # a memory gate: the weak order of S_6 keeps its 720 packed rows of 8
    # entries and two column sums in ~200 B an element; as tuples of
    # Python ints the rows held ~400 B
    monkeypatch.delenv("CDE_CAPACITY", raising=False)
    p = weak_order_full(6)
    tracemalloc.start()
    try:
        expectation_Xm(p, 8)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 250 * p.n, kept / p.n


def test_a_kept_chain_table_is_refused_under_a_lower_bound_as_a_fresh_poset_is(monkeypatch):
    # weak-order:5 holds 1,779 strict pairs; the build passes 1,000 at 1,007
    monkeypatch.delenv("CDE_CAPACITY", raising=False)
    p = weak_order_full(5)
    xm = expectation_Xm(p, 8)
    monkeypatch.setenv("CDE_CAPACITY", "1000")
    with pytest.raises(CapacityError) as fresh:
        expectation_Xm(weak_order_full(5), 8)
    assert str(fresh.value) == "multichain strict order pairs needs 1007 > capacity 1000"
    # the kept table, and a smaller request read from its prefix, are refused alike
    for m in (8, 2):
        with pytest.raises(CapacityError) as kept:
            expectation_Xm(p, m)
        assert str(kept.value) == str(fresh.value)
    monkeypatch.setenv("CDE_CAPACITY", "1779")
    assert expectation_Xm(p, 8) == expectation_Xm(weak_order_full(5), 8) == xm


def test_chain_table_strict_order_costs_under_40_bytes_a_pair(monkeypatch):
    # the down-sets are held as tuples: the weak order of S_6 holds 30,991
    # strict pairs, and they peaked at ~81 B a pair when held as sets
    monkeypatch.delenv("CDE_CAPACITY", raising=False)
    p = weak_order_full(6)
    lower, order = p.lower_covers, p.order
    tracemalloc.start()
    try:
        _, pairs = poset._build_chain_table(lower, order, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs == 30_991
    assert peak < 40 * pairs, peak / pairs


def test_a_chain_table_read_is_the_callers_own():
    # the kept rows and sums are immutable, and the columns are fresh lists
    p = boolean(3)
    size, rows, W, total, weighted = poset._chain_table(p, 4)
    assert all(type(kept) is tuple for kept in (rows, total, weighted))
    columns = list(poset._columns(rows, W, size))
    columns[0][0] = 99
    columns[1].append(7)
    columns.pop()
    assert _table_rows(p, 4) == bruteforce.chain_table(p, 4)


def test_chain_table_packs_entries_wider_than_a_machine_word():
    # on a chain every set of elements is a chain, so a(e, k) = C(n-1, k-1):
    # the width bound is tight, and C(69, 34) takes 66 bits
    table = _table_rows(chain(70), 70)
    assert all(row == [comb(69, k) for k in range(70)] for row in table)


def test_multichain_counts_clamp_the_table_at_n():
    # C(m+1, 2) multichains of m elements through the bottom of a 3-chain
    assert multichain_counts(chain(3), 10**9)[0] == 500000000500000000


def test_chain_table_rows_of_boolean_4():
    # a work pin: row e of B_4 by the subset e, from the list-convolution table
    assert _table_rows(boolean(4), 8) == [
        [1, 15, 50, 60, 24],  # 0000
        [1, 8, 19, 18, 6],  # 0001
        [1, 8, 19, 18, 6],  # 0010
        [1, 6, 13, 12, 4],  # 0011
        [1, 8, 19, 18, 6],  # 0100
        [1, 6, 13, 12, 4],  # 0101
        [1, 6, 13, 12, 4],  # 0110
        [1, 8, 19, 18, 6],  # 0111
        [1, 8, 19, 18, 6],  # 1000
        [1, 6, 13, 12, 4],  # 1001
        [1, 6, 13, 12, 4],  # 1010
        [1, 8, 19, 18, 6],  # 1011
        [1, 6, 13, 12, 4],  # 1100
        [1, 8, 19, 18, 6],  # 1101
        [1, 8, 19, 18, 6],  # 1110
        [1, 15, 50, 60, 24],  # 1111
    ]


def test_multichain_counts_m1_skips_the_chain_table(monkeypatch):
    posets = [p for n in range(1, 5) for p in all_posets_upto_iso(n)]
    # the list-convolution route: the zeta sum over 1-element chains
    by_table = [[sum(row) for row in bruteforce.chain_table(p, 1)] for p in posets]
    built = _counting_builds(monkeypatch)
    assert [multichain_counts(p, 1) for p in posets] == by_table
    assert all(counts == [1] * p.n for p, counts in zip(posets, by_table))
    # m = 1 reads the table of 1-element chains, which no path builds
    assert all(expectation_Xm(p, 1) == expectation_X(p) for p in posets)
    assert all(toggle_symmetry_check(p, 1) for p in posets)
    assert built == []


def test_expectation_Xm_m1_is_X():
    for p in [M3(), boolean(3), tamari(5), pabcd(2, 1, 3, 2)]:
        assert expectation_Xm(p, 1) == expectation_X(p)


def test_boolean2_all_m():
    p = boolean(2)
    for m in range(1, 6):
        assert expectation_Xm(p, m) == 1


def test_chain_product_corollary():
    # products of chains have expectation sum (a_k - 1)/a_k for all m
    p = product(chain(3), product(chain(2), chain(4)))
    expected = Fraction(2, 3) + Fraction(1, 2) + Fraction(3, 4)
    assert expectation_X(p) == expected
    assert expectation_Y(p) == expected
    for m in range(1, 5):
        assert expectation_Xm(p, m) == expected


def test_pabcd_CDE_and_mCDE():
    p = pabcd(2, 1, 3, 2)
    assert expectation_X(p) == 1
    assert expectation_Y(p) == 1
    assert is_CDE(p)
    assert is_mCDE_upto(p, 5)
    q = pabcd(2, 2, 3, 1)
    st = stats(q)
    assert st.EX == 1 and st.EY == 1


def test_ordinal_sum_negative_example():
    p = ordinal_sum(antichain(1), antichain(2))
    assert expectation_X(p) == Fraction(2, 3)
    assert expectation_Y(p) == Fraction(1, 2)
    assert not is_CDE(p)


def test_ordinal_sum_is_the_disjoint_union_plus_maxima_below_minima():
    small = [p for n in range(1, 4) for p in all_posets_upto_iso(n)]
    assert len(small) == 8
    for p in small:
        for q in small:
            s = ordinal_sum(p, q)
            p_max = [x for x in range(p.n) if not p.upper_covers[x]]
            q_min = [y for y in range(q.n) if not q.lower_covers[y]]
            assert s.n == p.n + q.n
            assert s.covers == (
                p.covers
                | {(a + p.n, b + p.n) for a, b in q.covers}
                | {(x, y + p.n) for x in p_max for y in q_min}
            )
            assert s.labels == tuple(map(p.label, range(p.n))) + tuple(map(q.label, range(q.n)))


def test_builders_size_errors():
    for bad in (0, -1):
        with pytest.raises(SizeError):
            chain(bad)
        with pytest.raises(SizeError):
            antichain(bad)
    with pytest.raises(SizeError):
        tamari(2)
    with pytest.raises(SizeError):
        pabcd(1, 0, 1, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: chain(2.5),
        lambda: antichain(2.5),
        lambda: boolean(2.5),
        lambda: pabcd(1.5, 1, 1, 1),
        lambda: tamari(4.5),
        lambda: weak_order_full(2.5),
        lambda: strong_bruhat(2.5),
        lambda: vexillary_permutations(2.5),
        lambda: FinitePoset(2.5, set()),
        lambda: FinitePoset(2, {("a", 1)}),
        lambda: FinitePoset(2, [[0, 1]]),
        # a float or a Fraction at the lower end, which a range check alone admits
        lambda: FinitePoset(2, {(0.0, 1)}),
        lambda: FinitePoset(2, {(Fraction(0), 1)}),
    ],
    ids=[
        "chain", "antichain", "boolean", "pabcd", "tamari", "weak_order_full",
        "strong_bruhat", "vexillary_permutations", "FinitePoset-size", "FinitePoset-cover",
        "FinitePoset-list-cover", "FinitePoset-float-cover", "FinitePoset-fraction-cover",
    ],
)
def test_non_integer_sizes_and_covers_are_malformed(build):
    with pytest.raises(MalformedInputError, match="is not (an integer|a pair of integers)$"):
        build()


def test_a_bool_size_still_builds():
    assert chain(True) == FinitePoset(1, set())
    assert pabcd(True, True, True, True) == pabcd(1, 1, 1, 1)


def test_pabcd_is_the_ordinal_sum_of_its_chains():
    # w below the parallel chains x and y, both below z, labelled by chain
    for a, b, c, d in itertools.product(range(1, 5), repeat=4):
        p = pabcd(a, b, c, d)
        q = ordinal_sum(ordinal_sum(chain(a), disjoint_union(chain(b), chain(c))), chain(d))
        assert p.covers == q.covers, (a, b, c, d)
        want = [f"{s}{i}" for s, k in zip("wxyz", (a, b, c, d)) for i in range(1, k + 1)]
        assert p.labels == tuple(want)


def test_capacity_error(monkeypatch):
    monkeypatch.setenv("CDE_CAPACITY", "10")
    with pytest.raises(CapacityError):
        tamari(8)
    with pytest.raises(CapacityError):
        boolean(5)


def test_tamari_checks_the_catalan_count_before_building(monkeypatch):
    # the whole count C(n-2) is checked up front, not one triangulation at a time
    monkeypatch.setenv("CDE_CAPACITY", "10")
    with pytest.raises(CapacityError, match="tamari lattice needs 16796 > capacity 10"):
        tamari(12)
    monkeypatch.setenv("CDE_CAPACITY", "41")
    with pytest.raises(CapacityError, match="tamari lattice needs 42 > capacity 41"):
        tamari(7)
    monkeypatch.setenv("CDE_CAPACITY", "42")
    assert len(poset._triangulations(7)) == 42
    # validate charges the 42 elements, not an internal cost of its own
    assert tamari(7).n == 42


def test_a_count_far_past_the_bound_is_refused_by_its_width(monkeypatch):
    # 2^40000 has 40001 bits, past the bound and too wide to compute for the
    # message, so it is named by its formula; 2^20000 is computed and named
    # by its width, and under a bound as wide it passes
    def refuse():
        raise AssertionError("computed")

    with pytest.raises(CapacityError, match=r"^x needs 2\^40000 > capacity 2000000$"):
        poset._check_count(40001, "2^40000", refuse, "x")
    with pytest.raises(CapacityError, match="^x needs a 20001-bit count > capacity 2000000$"):
        poset._check_count(20001, "2^20000", lambda: 1 << 20000, "x")
    monkeypatch.setenv("CDE_CAPACITY", "1" + "0" * 4000)  # a 13,288-bit bound
    poset._check_count(13001, "2^13000", lambda: 1 << 13000, "x")


def test_isomorphism_search_counts_nodes_against_capacity(monkeypatch):
    # each of the 5 levels of the search is one node
    monkeypatch.setenv("CDE_CAPACITY", "5")
    assert is_isomorphic(antichain(5), antichain(5))
    monkeypatch.setenv("CDE_CAPACITY", "3")
    with pytest.raises(CapacityError):
        is_isomorphic(antichain(5), antichain(5))


def _two_3_chains():
    return FinitePoset(6, {(0, 2), (2, 3), (1, 4), (4, 5)})


def test_one_palette_tells_apart_posets_of_different_degree_profiles(monkeypatch):
    # K_{2,2} plus two points against two 3-chains: refined each with its own
    # palette, their colour multisets agree, and a search enters 13 nodes
    k22, chains = FinitePoset(6, {(0, 2), (0, 3), (1, 2), (1, 3)}), _two_3_chains()
    monkeypatch.setenv("CDE_CAPACITY", "1")
    assert not is_isomorphic(k22, chains)
    assert not is_isomorphic(chains, k22)


def test_isomorphism_search_backtracks_within_its_node_count(monkeypatch):
    # the first candidates of the relabelled pair fail below level 1, so the
    # search backs up before it finds the map: 8 nodes for 6 levels
    chains, relabelled = _two_3_chains(), FinitePoset(6, {(2, 1), (1, 3), (0, 4), (4, 5)})
    monkeypatch.setenv("CDE_CAPACITY", "8")
    assert is_isomorphic(chains, relabelled)
    monkeypatch.setenv("CDE_CAPACITY", "7")
    with pytest.raises(CapacityError, match="^isomorphism search needs 8 > capacity 7$"):
        is_isomorphic(chains, relabelled)


def test_capacity_env(monkeypatch):
    monkeypatch.setenv("CDE_CAPACITY", "12")
    assert poset.capacity() == 12


def test_product_boolean_iso():
    p = product(chain(2), chain(2))
    assert expectation_X(p) == 1
    assert is_isomorphic(p, boolean(2))
    assert not is_isomorphic(chain(3), antichain(3))


def test_tamari5():
    t = tamari(5)
    assert t.n == 5
    assert expectation_X(t) == 1
    assert expectation_Y(t) == 1
    st = stats(t)
    assert st.maximal_chain_count == 2
    # pentagon poset: same shape as pabcd(1,1,2,1)
    assert is_isomorphic(t, pabcd(1, 1, 2, 1))


def test_tamari_catalan_sizes():
    assert tamari(4).n == 2
    assert tamari(6).n == 14
    assert tamari(7).n == 42


def test_triangulations_by_apex_match_the_crossing_search():
    for n in range(3, 11):
        assert poset._triangulations(n) == bruteforce.triangulations(n)


def test_tamari_flips_from_common_neighbours_match_the_vertex_scans():
    for n in range(3, 10):
        t = tamari(n)
        assert (t.covers, t.labels) == bruteforce.tamari_covers(n)


def test_tamari_expectations():
    for n in (4, 5, 6, 7):
        t = tamari(n)
        assert expectation_X(t) == Fraction(n - 3, 2)
        assert expectation_Y(t) == Fraction(n - 3, 2)
        assert expectation_Xm(t, 3) == Fraction(n - 3, 2)


def test_order_ideal_lattice_of_grid():
    from cde.tableaux import young_interval

    grid = product(chain(2), chain(3))
    J = order_ideal_lattice(grid)
    assert J.n == 10  # subdiagrams of the 2x3 rectangle
    assert stats(J).rank == 6
    assert is_isomorphic(J, young_interval((3, 3)))
    # each ideal is labelled by its members' labels, ascending
    names = [grid.label(e) for e in range(grid.n)]
    assert J.labels == tuple("{" + ",".join(names[e] for e in sorted(s)) + "}" for s in order_ideals(grid))
    assert J.labels[:3] == ("{}", "{(0,0)}", "{(0,0),(0,1)}")


def test_ideals_of_a_grid():
    # the partitions in a 3 x 4 box, C(7, 3) of them
    masks, lower = poset._ideals(product(chain(3), chain(4)).order_relation())
    assert (len(masks), sum(map(len, lower))) == (35, 60)


def test_order_ideals_of_antichain():
    assert len(order_ideals(antichain(3))) == 8


@st.composite
def _posets(draw, max_n=9):
    """A poset on at most max_n elements: a random relation along a hidden
    linear order, closed transitively, reduced to its covers, relabeled."""
    n = draw(st.integers(0, max_n))
    pairs = [(a, b) for b in range(n) for a in range(b)]
    relation = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    below = [{a for a, c in relation if c == b} for b in range(n)]
    for b in range(n):  # every a < b in the hidden order is already closed
        for a in list(below[b]):
            below[b] |= below[a]
    covers = {
        (a, b) for b in range(n) for a in below[b] if not any(a in below[c] for c in below[b])
    }
    relabel = draw(st.permutations(range(n)))
    p = FinitePoset(n, frozenset((relabel[a], relabel[b]) for a, b in covers))
    validate(p)
    return p


def _check_ideal_views(p):
    ideals = order_ideals(p)
    assert ideals == bruteforce.order_ideals(p.covers, p.n)
    J = order_ideal_lattice(p)
    assert J.n == len(ideals)
    assert J.covers == {
        (i, j)
        for i, small in enumerate(ideals)
        for j, big in enumerate(ideals)
        if small < big and len(big) == len(small) + 1
    }
    assert J.labels == tuple("{" + ",".join(map(str, sorted(s))) + "}" for s in ideals)
    if p.n <= 8:  # the permutation filter is too slow beyond 8 elements
        want = linear_extensions(p.covers, p.n)
        assert linear_extension_count(p) == want
        assert poset._linear_extensions_by_ideals(p) == want


@given(_posets())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_ideal_views_match_bruteforce(p):
    _check_ideal_views(p)


@given(_posets())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_the_order_masks_give_back_the_covers(p):
    assert poset._from_order(p.order_relation()) == p


@given(_posets())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_the_ideal_walk_reads_any_reflexive_masks_that_generate_the_order(p):
    # each element with its lower covers generates the order as the full
    # order relation does, so both give the same ideals and covers
    near = [1 << x | sum(1 << z for z in zs) for x, zs in enumerate(p.lower_covers)]
    assert poset._ideals(near) == poset._ideals(p.order_relation())


def test_ideal_views_on_every_small_poset():
    from cde.verify import all_posets_upto_iso

    for n in range(1, 6):
        for p in all_posets_upto_iso(n):
            _check_ideal_views(p)
            assert toggle_symmetry_check(p, 2)


def test_toggle_symmetry_check_detects_imbalance(monkeypatch):
    # weights that grow along J(P) make every element likelier maximal
    monkeypatch.setattr(poset, "_zeta_sums", lambda rows, W, size, m: list(range(len(rows))))
    assert not toggle_symmetry_check(chain(2), 2)


def test_toggle_symmetry_check_detects_imbalance_on_the_recorded_lattice(monkeypatch):
    p = chain(2)
    order_ideal_lattice(p)
    monkeypatch.setattr(poset, "_zeta_sums", lambda rows, W, size, m: list(range(len(rows))))
    assert not toggle_symmetry_check(p, 2)


def _counting_walks(monkeypatch) -> list[int]:
    """The sizes of the orders whose ideals are walked from here on."""
    walks = []
    real = poset._ideals
    monkeypatch.setattr(poset, "_ideals", lambda down: walks.append(len(down)) or real(down))
    return walks


def test_toggle_and_linear_extensions_read_the_recorded_lattice(monkeypatch):
    # after the `poset stats --xm 8` payload on J(P), they walk no ideal and
    # build no chain table; a fresh equal poset walks once, records its J and
    # builds J's one table, at full height, which every later m reads
    grid, fresh = product(chain(3), chain(3)), product(chain(3), chain(3))
    J = order_ideal_lattice(grid)
    expectation_Xm(J, 8)
    walks, built = _counting_walks(monkeypatch), _counting_builds(monkeypatch)
    assert all(toggle_symmetry_check(grid, m) for m in range(1, 9))
    assert not is_forest(grid) and linear_extension_count(grid) == 42
    assert walks == [] and built == []
    assert all(toggle_symmetry_check(fresh, m) for m in range(1, 9))
    assert linear_extension_count(fresh) == 42
    assert walks == [9] and built == [10]


def test_the_recorded_lattice_gives_the_fresh_walks_counts(monkeypatch):
    # a poset and an equal one rebuilt from its pairs give the same counts:
    # toggle symmetry weighs the covers of their J(P) by the same multichain
    # counts, and both count the same linear extensions
    counts = []
    real = poset._zeta_sums
    monkeypatch.setattr(poset, "_zeta_sums", lambda *args: counts.append(real(*args)) or counts[-1])
    posets = [p for n in range(1, 6) for p in all_posets_upto_iso(n)]
    assert len(posets) == 87
    for p in posets:
        fresh = FinitePoset(p.n, p.covers)
        order_ideal_lattice(p)
        assert poset._linear_extensions_by_ideals(p) == poset._linear_extensions_by_ideals(fresh)
        for m in range(1, 9):
            assert toggle_symmetry_check(p, m) and toggle_symmetry_check(fresh, m)
            assert counts[-2] == counts[-1], (p, m)


@pytest.mark.parametrize(
    "build, bound, walk_refusal",
    [
        (lambda: product(chain(3), chain(3)), 19, "order ideal enumeration needs 20 > capacity 19"),
        (lambda: product(chain(3), chain(3)), 20, None),
        (lambda: product(chain(3), chain(3)), 25, None),
        (lambda: product(chain(3), chain(3)), 30, None),
        (lambda: product(chain(3), chain(3)), 50, None),
        (lambda: product(chain(3), chain(3)), 100, None),
        (lambda: antichain(5), 39, "order ideal cover pairs needs 40 > capacity 39"),
    ],
    ids=["grid-19", "grid-20", "grid-25", "grid-30", "grid-50", "grid-100", "antichain-39"],
)
def test_the_recorded_lattice_is_refused_as_a_fresh_walk_is(monkeypatch, build, bound, walk_refusal):
    # J([3]x[3]) has 20 ideals, 30 covers and 155 strict order pairs, and
    # J(antichain(5)) 32 ideals and 80 covers.  Over the bound both routes
    # refuse with one message: the walk's own when the ideals or half the
    # covers are over it, else the same charge, whose count a refused table
    # build names as far as it got in J's order, the one order of J on every
    # route, so the multichain expectations of J and of J rebuilt from its
    # pairs are refused with the same message too
    p, fresh = build(), build()
    J = order_ideal_lattice(p)
    expectation_Xm(J, 8)
    rebuilt = FinitePoset(J.n, J.covers, J.labels)
    monkeypatch.setenv("CDE_CAPACITY", str(bound))

    def outcome(count, q):
        try:
            return count(q)
        except CapacityError as exc:
            return str(exc)

    assert outcome(linear_extension_count, p) == outcome(linear_extension_count, fresh), bound
    for m in range(1, 9):
        toggles = [outcome(partial(toggle_symmetry_check, m=m), q) for q in (p, fresh)]
        assert toggles[0] == toggles[1], (bound, m)
        if not walk_refusal:
            means = [outcome(partial(expectation_Xm, m=m), q) for q in (J, rebuilt)]
            refusals = [x if isinstance(x, str) else None for x in toggles + means]
            assert len(set(refusals)) == 1, (bound, m, refusals)
    if walk_refusal:
        assert toggles[0] == walk_refusal  # toggle at m = 8


def test_toggle_symmetry_check_checks_m_before_the_walk(monkeypatch):
    walks = []
    monkeypatch.setattr(poset, "_ideals", lambda down: walks.append(down))
    calls = [
        (0, SizeError, "m must be a positive integer"),
        (1.5, MalformedInputError, "multichain size 1.5 is not an integer"),
    ]
    for m, error, message in calls:
        with pytest.raises(error) as raised:
            toggle_symmetry_check(antichain(30), m)
        assert type(raised.value) is error and str(raised.value) == message
    assert walks == []


def test_toggle_symmetry():
    assert toggle_symmetry_check(chain(2), 3)
    assert toggle_symmetry_check(antichain(3), 2)
    assert toggle_symmetry_check(product(chain(2), chain(2)), 4)
    v = FinitePoset(3, frozenset({(0, 1), (0, 2)}))
    assert toggle_symmetry_check(v, 2)


def test_self_dual_regular():
    assert self_dual_regular_check(tamari(6)) == Fraction(3, 2)
    assert self_dual_regular_check(tamari(5)) == 1
    assert self_dual_regular_check(boolean(3)) == Fraction(3, 2)
    assert self_dual_regular_check(ordinal_sum(antichain(1), antichain(2))) is None
    assert self_dual_regular_check(chain(4)) is None


def test_isomorphism_search_runs_on_a_thousand_elements():
    # 1,024 levels deep: the search keeps its own stack
    assert self_dual_regular_check(boolean(10)) == 5


def test_is_isomorphic_agrees_with_canonical_keys():
    posets = [p for n in range(1, 6) for p in all_posets_upto_iso(n)]
    # each class again under the relabeling x -> n-1-x
    posets += [FinitePoset(p.n, {(p.n - 1 - a, p.n - 1 - b) for a, b in p.covers}) for p in posets]
    keys = [canonical_key(p) for p in posets]
    for p, kp in zip(posets, keys):
        for q, kq in zip(posets, keys):
            assert is_isomorphic(p, q) == (kp == kq)


def test_linear_extension_count():
    assert linear_extension_count(antichain(3)) == 6
    assert linear_extension_count(chain(5)) == 1
    lam = FinitePoset(3, frozenset({(0, 2), (1, 2)}))
    assert is_forest(lam)
    assert linear_extension_count(lam) == 2
    # non-forest: M3 via ideal DP vs brute force
    assert linear_extension_count(M3()) == linear_extensions(M3().covers, 5)


def test_forest_formula_vs_bruteforce():
    # assorted forests on <= 8 elements described by parent maps
    parent_maps = [
        [None, 0, 0, 1],
        [None, None, 0, 1, 1, 2],
        [None, 0, 1, 1, None, 4, 4, 5],
        [None] * 5,
        [None, 0, 1, 2, 3, None, 5],
    ]
    for parents in parent_maps:
        n = len(parents)
        covers = {(i, p) for i, p in enumerate(parents) if p is not None}
        f = FinitePoset(n, frozenset(covers))
        assert is_forest(f)
        assert linear_extension_count(f) == linear_extensions(covers, n)
    # the hook lengths, read off the cover lists, are the down-set sizes
    for f in small_forests():
        assert poset._down_set_sizes(f) == [m.bit_count() for m in f.order_relation()]
        assert linear_extension_count(f) == linear_extensions(f.covers, f.n)


def test_forest_merge_ratio():
    fixture = FinitePoset(6, frozenset({(0, 1), (1, 2), (3, 2), (4, 5)}))
    for f in (fixture, *small_forests()):
        assert is_forest(f)
        for (i, j) in f.covers:
            got = forest_merge_ratio(f, i, j)
            want = Fraction(
                linear_extension_count(quotient_cover(f, i, j)),
                linear_extension_count(f),
            )
            assert got == want
    with pytest.raises(NotCoverError):
        forest_merge_ratio(fixture, 0, 2)


def test_forest_routes_keep_no_order_relation():
    # the order relation of a forest of n elements is n masks of up to n
    # bits: ~225 MB for the antichain of 60,000, ~36 MB for the broom below
    def peak_of(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    wide = antichain(60_000)
    peak = peak_of(lambda: linear_extension_count(wide))
    assert peak < 8 * 2**20, peak
    # a chain of 12,000 (even elements) with one leaf under each (odd ones);
    # the leaf under the bottom of the chain has every chain element above it
    m = 12_000
    spine = {(2 * k, 2 * k + 2) for k in range(m - 1)}
    broom = FinitePoset(2 * m, spine | {(2 * k + 1, 2 * k) for k in range(m)})
    peak = peak_of(lambda: forest_merge_ratio(broom, 1, 0))
    assert peak < 8 * 2**20, peak


def test_quotient_cover():
    c = quotient_cover(chain(3), 1, 2)
    assert is_isomorphic(c, chain(2))
    v = FinitePoset(3, frozenset({(0, 1), (0, 2)}))
    q = quotient_cover(v, 0, 1)
    assert is_isomorphic(q, chain(2))
    with pytest.raises(NotCoverError):
        quotient_cover(chain(3), 0, 2)


def test_quotient_cover_matches_relation_matrix_oracle():
    # every cover of every poset on <= 5 elements, as listed and with the
    # elements renumbered backwards, unlabelled and labelled
    for n in range(1, 6):
        for rep in all_posets_upto_iso(n):
            for covers in (rep.covers, {(n - 1 - a, n - 1 - b) for a, b in rep.covers}):
                for labels in (None, [f"e{x}" for x in range(n)]):
                    p = FinitePoset(n, covers, labels)
                    for i, j in p.covers:
                        q = quotient_cover(p, i, j)
                        assert q.covers == bruteforce.quotient_covers(p.covers, n, i, j)
                        if labels is None:
                            assert q.labels is None
                        else:
                            want = [f"e{x}" if x != i else f"e{i}=e{j}" for x in range(n) if x != j]
                            assert q.labels == tuple(want)


def test_stats_boolean3():
    st = stats(boolean(3))
    assert st.EX == Fraction(3, 2)
    assert st.EY == Fraction(3, 2)
    assert st.rank == 3
    assert st.edge_count == 12
    assert st.is_CDE


def test_stats_rank_absent_when_ungraded():
    st = stats(pabcd(1, 1, 2, 1))
    assert st.rank is None


def test_stats_rank_matches_the_maximal_chain_lengths():
    posets = [*small_posets(), *(tamari(n) for n in range(3, 8)), pabcd(1, 2, 3, 1)]
    ranks = []
    for p in posets:
        lengths = bruteforce.maximal_chain_lengths(p)
        want = min(lengths) - 1 if len(lengths) == 1 else None
        assert stats(p).rank == want
        ranks.append(want)
    assert None in ranks and any(r is not None for r in ranks)


def test_EX_dual_symmetry():
    for p in [M3(), tamari(6), pabcd(2, 1, 3, 2), boolean(3),
              ordinal_sum(chain(2), antichain(2))]:
        assert expectation_X(p) == expectation_X(dual(p))


def test_EY_not_dual_invariant_in_general():
    # 6-element fixture whose dual breaks the chain-weighted expectation
    p = FinitePoset(6, frozenset({(0, 1), (0, 2), (1, 3), (2, 4), (4, 5)}))
    assert expectation_Y(p) != expectation_Y(dual(p))


def test_product_additivity():
    pairs = [
        (boolean(2), chain(3)),
        (chain(2), chain(4)),
        (boolean(2), boolean(2)),
    ]
    for p, q in pairs:
        pq = product(p, q)
        assert expectation_X(pq) == expectation_X(p) + expectation_X(q)
        assert expectation_Y(pq) == expectation_Y(p) + expectation_Y(q)


def test_multichain_polynomiality_in_m():
    # In a graded poset of rank r the multichain count through x is a degree-r
    # polynomial in m whose r-th finite difference is the number of maximal
    # chains through x.
    for p in [boolean(3), product(chain(2), chain(3))]:
        r = stats(p).rank
        table = [multichain_counts(p, m) for m in range(1, r + 3)]
        up, down, _ = poset._chain_counts(p.lower_covers, p.order)
        through = [up[x] * down[x] for x in range(p.n)]
        for x in range(p.n):
            seq = [row[x] for row in table]
            for _ in range(r):
                seq = [b - a for a, b in zip(seq, seq[1:])]
            assert seq[0] == through[x]
            assert seq[1] - seq[0] == 0


def test_expectation_under_multichain_custom_values():
    p = chain(3)
    vals = [Fraction(5), Fraction(1), Fraction(2)]
    # chain: multichain distribution is uniform
    for m in range(1, 4):
        assert expectation_under_multichain(p, m, vals) == Fraction(8, 3)
        assert expectation_under_multichain(p, m, [5, 1, 2]) == Fraction(8, 3)
        assert expectation_under_multichain(p, m, (v for v in [5, 1, 2])) == Fraction(8, 3)
        assert expectation_under_multichain(p, m, [5, Fraction(1, 2), 2]) == Fraction(5, 2)
    # the values must be exact: a float is not silently converted
    for wrong in ([5], vals + [0], [5.0, 1, 2]):
        with pytest.raises(MalformedInputError):
            expectation_under_multichain(p, 2, wrong)


def test_file_roundtrip(tmp_path):
    p = pabcd(1, 2, 2, 1)
    text = dump_poset(p)
    q = load_poset(text)
    assert q.n == p.n and q.covers == p.covers and q.labels == p.labels
    with pytest.raises(MalformedInputError):
        load_poset("cover 0 1\n")
    with pytest.raises(MalformedInputError):
        load_poset("n 2\nfoo 0 1\n")
    with pytest.raises(CycleError):
        load_poset("n 2\ncover 0 1\ncover 1 0\n")


@pytest.mark.parametrize(
    "text, line",
    [
        ("n 2\nlabel 5 x\n", 2),  # label outside 0..n-1
        ("n 2\nlabel -1 x\n", 2),
        ("label 2 x\nn 2\n", 1),  # checked once n is known
        ("n 2\nn 3\ncover 0 1\n", 2),  # a second n line
        ("n 2\ncover 0 1 7\n", 2),  # an extra token
        ("n 2 3\n", 1),
        ("n 2\ncover 0\n", 2),
        ("n 2\nlabel 0 a\nlabel 0 b\n", 3),  # a second label for one element
        ("n 3\ncover 1 5\n", 2),  # a cover outside 0..n-1
        ("n 3\ncover 0 1\n\ncover -1 2\n", 4),
        ("cover 0 4\nn 2\n", 1),  # checked once n is known
    ],
)
def test_load_poset_rejects_malformed_lines(text, line):
    with pytest.raises(MalformedInputError, match=f"^line {line}: "):
        load_poset(text)


def test_canonical_key_small():
    assert canonical_key(product(chain(2), chain(2))) == canonical_key(boolean(2))
    assert canonical_key(chain(3)) != canonical_key(antichain(3))


def test_canonical_key_is_bounded_by_the_capacity(monkeypatch):
    # n! relabelings are tried, so n! is charged against CDE_CAPACITY
    monkeypatch.setenv("CDE_CAPACITY", "5039")
    with pytest.raises(CapacityError, match="canonical_key relabelings needs 5040 > capacity 5039"):
        canonical_key(pabcd(1, 2, 3, 1))
    monkeypatch.setenv("CDE_CAPACITY", "5040")
    assert canonical_key(pabcd(1, 2, 3, 1)) == canonical_key(pabcd(1, 3, 2, 1))
    monkeypatch.delenv("CDE_CAPACITY")
    assert canonical_key(chain(8)) == (8, tuple((i, i + 1) for i in range(7)))
    # past the exact-count width, n! is refused by its width before it is computed
    with pytest.raises(CapacityError, match="^canonical_key relabelings needs 40000! > capacity 2000000$"):
        canonical_key(antichain(40_000))
