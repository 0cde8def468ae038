"""Permutations, weak Bruhat order, 0-Hecke words, and the vexillary toolkit.

Permutations are tuples in one-line notation on {1..n}; generator indices are
1-based, so generator s swaps positions s and s+1.  The ambient symmetric
group is always the length of the tuple.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations as iperm
from math import comb, factorial
from operator import itemgetter, sub

from .core import IntPolynomial, _integers, interpolate_integer_polynomial, poly_divides, stirling2_row
from .errors import MalformedInputError, NotVexillaryError, RangeError
from .poset import FinitePoset, _chain_counts, _check_capacity, _check_count, _from_graded, _from_order
from .poset import _ideals, capacity
from .tableaux import _ints, _ssyt_counts_by_shift, check_partition, rect_staircase, transpose

__all__ = [
    "check_permutation",
    "parse_perm",
    "perm_label",
    "identity",
    "inverse",
    "compose",
    "length",
    "descents",
    "lehmer_code",
    "prepend_identity",
    "PermClass",
    "classify",
    "vexillary_permutations",
    "permutation_from_code",
    "dominant_of_shape",
    "grassmannian_of_shape",
    "inverse_grassmannian_of_shape",
    "hecke_product",
    "word_to_hecke",
    "parse_word",
    "left_factor_check",
    "IntervalSummary",
    "interval_summary",
    "weak_interval_elements",
    "weak_interval",
    "weak_order_full",
    "strong_bruhat",
    "count_reduced",
    "enumerate_reduced",
    "count_nearly_reduced",
    "enumerate_hecke_words",
    "expectation_Y_words",
    "expectation_X_complementary",
    "noninversion_poset",
    "dominant_EX_closed_form",
    "RotheData",
    "rothe_diagram",
    "rothe",
    "fk_polynomial",
    "fk_polynomials",
    "FkConjectureReport",
    "conjecture_fk_check",
]


def check_permutation(w) -> tuple[int, ...]:
    w = _integers(w, "permutation entry")
    if sorted(w) != list(range(1, len(w) + 1)):
        raise MalformedInputError(f"{w} is not a permutation of 1..{len(w)}")
    return w


def parse_perm(text: str) -> tuple[int, ...]:
    """Read one-line notation: run-together digits ("4231") or a comma or
    space separated list ("4,2,3,1"), which n >= 10 needs."""
    if "," in text or " " in text:
        parts = text.replace(",", " ").split()
    else:
        parts = list(text)
    return check_permutation(_ints(text, parts, "permutation"))


def perm_label(w) -> str:
    """The text form read back by parse_perm: digits run together up to
    n = 9, comma separated from n = 10 on."""
    if len(w) <= 9:
        return "%d" * len(w) % tuple(w)
    return ",".join(map(str, w))


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def inverse(w) -> tuple[int, ...]:
    w = check_permutation(w)
    out = [0] * len(w)
    for i, v in enumerate(w):
        out[v - 1] = i + 1
    return tuple(out)


def compose(u, v) -> tuple[int, ...]:
    """(u v)(i) = u(v(i))."""
    u, v = check_permutation(u), check_permutation(v)
    if len(u) != len(v):
        raise MalformedInputError("permutations live in different symmetric groups")
    return tuple(u[i - 1] for i in v)


def descents(w) -> tuple[int, ...]:
    """Right descents: generator indices s with w(s) > w(s+1).

    >>> descents((1, 2, 3))
    ()
    >>> descents((3, 1, 2))
    (1,)
    """
    return tuple(s for s in range(1, len(w)) if w[s - 1] > w[s])


def length(w) -> int:
    return sum(lehmer_code(w))


def lehmer_code(w) -> tuple[int, ...]:
    """c_i = #{j > i : w(i) > w(j)}, in one sweep from the right: c_i is the
    number of entries already passed that lie below w(i), read off a Fenwick
    tree of counts indexed by rank, so n entries take O(n log n).

    >>> lehmer_code((4, 2, 3, 1))
    (3, 1, 1, 0)
    """
    n = len(w)
    rank = {v: r for r, v in enumerate(sorted(w), start=1)}  # equal entries share one
    tree = [0] * (n + 1)  # tree[r]: entries passed with rank in (r - (r & -r), r]
    code = []
    for v in reversed(w):
        r = rank[v]
        c, k = 0, r - 1
        while k:
            c += tree[k]
            k &= k - 1
        code.append(c)
        while r <= n:
            tree[r] += 1
            r += r & -r
    return tuple(reversed(code))


def prepend_identity(w, N: int) -> tuple[int, ...]:
    """The permutation fixing 1..N and acting as w shifted above it."""
    return identity(N) + tuple(v + N for v in w)


@dataclass(frozen=True)
class PermClass:
    vexillary: bool
    dominant: bool
    grassmannian: bool
    inverse_grassmannian: bool
    shape: tuple[int, ...] | None  # present iff vexillary


def _code_shape(code) -> tuple[int, ...]:
    """The nonzero entries of a Lehmer code, largest first."""
    return tuple(sorted((c for c in code if c), reverse=True))


def classify(w) -> PermClass:
    """The class of w, read off the Lehmer codes of w and w^-1 (Macdonald,
    Notes on Schubert Polynomials, ch. I): w avoids 2143 (is vexillary)
    exactly when the shape of w^-1 is the transpose of the shape of w, and
    avoids 132 (is dominant) exactly when its code is a partition."""
    return _classify(w)[0]


def _classify(w) -> tuple[PermClass, tuple[int, ...]]:
    """classify(w), and the Lehmer code of w that it reads."""
    w = check_permutation(w)
    w_inv = inverse(w)
    code = lehmer_code(w)
    shape = _code_shape(code)
    vex = _code_shape(lehmer_code(w_inv)) == transpose(shape)
    dom = all(a >= b for a, b in zip(code, code[1:]))
    grass = len(descents(w)) <= 1
    inv_grass = len(descents(w_inv)) <= 1
    return PermClass(vex, dom, grass, inv_grass, shape if vex else None), code


def vexillary_permutations(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The vexillary (2143-avoiding) permutations of 1..n in lexicographic
    order, each paired with its shape: the nonzero Lehmer code entries in
    decreasing order, as in `classify`.

    The class grows by a generating tree instead of a filter over all n!.
    Deleting the largest entry keeps the relative order of the others, so a
    2143 in what is left would be one in w: the class is closed under that
    deletion, and every vexillary w of 1..n is one of 1..n-1 with n inserted
    at some position q.  A 2143 the insertion creates must use n, and n, the
    largest entry, can only be its "4".  So the result is kept exactly when
    no i1 < i2 < q has w(i2) < w(i1) < max(w(q+1), ..., w(n)).  Inserting n
    at q gives it the code entry n - q and leaves the other entries alone,
    so the shape grows along.  `classify` stays the oracle for this list by
    another route: it compares the shapes read off the Lehmer codes of w and
    w^-1, with no pattern search.
    """
    (n,) = _integers((n,), "symmetric group size")
    if n < 0:
        raise RangeError(f"n must be nonnegative, got {n}")
    cap = capacity()
    level = [((), ())]
    for m in range(1, n + 1):
        grown = []
        for w, shape in level:
            # high[p]: the largest entry that ends up after m inserted at p
            high = [0] * m
            for p in range(m - 2, -1, -1):
                high[p] = max(w[p], high[p + 1])
            # low: the smallest w(i1) over inversions i1 < i2 < p
            low = m
            for p in range(m):
                if p >= 2:
                    x = w[p - 1]
                    low = min([low] + [v for v in w[: p - 1] if v > x])
                if low > high[p]:
                    k = m - 1 - p  # the code entry of m at p
                    grown_shape = tuple(sorted(shape + (k,), reverse=True)) if k else shape
                    grown.append((w[:p] + (m,) + w[p:], grown_shape))
        if len(grown) > cap:
            _check_capacity(len(grown), "vexillary permutation generation")
        level = grown
    return sorted(level)


def permutation_from_code(code) -> tuple[int, ...]:
    n = len(code)
    if any(not 0 <= code[i] <= n - 1 - i for i in range(n)):
        raise MalformedInputError(f"{code} is not a valid code")
    remaining = list(range(1, n + 1))
    out = []
    for c in code:
        out.append(remaining.pop(c))
    return tuple(out)


def dominant_of_shape(shape) -> tuple[int, ...]:
    """The unique 132-avoiding permutation whose code is `shape`, in the
    smallest symmetric group that holds it."""
    shape = check_partition(shape)
    if not shape:
        return (1,)
    n = max(p + i for i, p in enumerate(shape, start=1))
    code = tuple(shape) + (0,) * (n - len(shape))
    return permutation_from_code(code)


def grassmannian_of_shape(shape) -> tuple[int, ...]:
    """The permutation with a single descent whose shape is `shape`."""
    shape = check_partition(shape)
    if not shape:
        return (1,)
    ell = len(shape)
    n = shape[0] + ell
    first = [shape[ell - i] + i for i in range(1, ell + 1)]
    rest = [v for v in range(1, n + 1) if v not in set(first)]
    return tuple(first + rest)


def inverse_grassmannian_of_shape(shape) -> tuple[int, ...]:
    return inverse(grassmannian_of_shape(shape))


# ---------------------------------------------------------------------------
# 0-Hecke products and the weak order


def hecke_product(u, s: int) -> tuple[int, ...]:
    """u * T_s: apply s, exchanging the entries at positions s and s+1, when
    it increases length; absorb it otherwise."""
    if not 1 <= s <= len(u) - 1:
        raise RangeError(f"generator {s} out of range for n={len(u)}")
    if u[s - 1] < u[s]:
        return u[: s - 1] + (u[s], u[s - 1]) + u[s + 1 :]
    return u


def word_to_hecke(word, n: int | None = None) -> tuple[int, ...]:
    """Fold a generator word through the 0-Hecke product, starting at the
    identity."""
    word = _integers(word, "generator")
    if n is None:
        n = max(word) + 1 if word else 1
    else:
        (n,) = _integers((n,), "symmetric group size")
    if n < 0:
        raise RangeError(f"n must be nonnegative, got {n}")
    _check_capacity(n, "permutation entries")  # before the identity is built
    u = identity(n)
    for s in word:
        u = hecke_product(u, s)
    return u


def parse_word(text: str) -> tuple[int, ...]:
    """Read a generator word written as a comma or space separated list."""
    return tuple(_ints(text, text.replace(",", " ").split(), "word"))


def left_factor_check(u, w) -> bool:
    """u <= w in right weak order: length(u) + length(u^-1 w) = length(w)
    (Björner–Brenti, Combinatorics of Coxeter Groups, ch. 3)."""
    if len(u) != len(w):
        raise MalformedInputError("permutations live in different symmetric groups")
    u, w = check_permutation(u), check_permutation(w)
    return length(u) + length(compose(inverse(u), w)) == length(w)


def _weak_walk(w):
    """Walk up from the identity by the ascents that stay below w, a rank at
    a time: the one walk over a weak interval in the package, and the one
    source of its ranks.

    u * s_a lies in [e, w] exactly when u(a) < u(a+1) and w places u(a+1)
    before u(a) (Björner–Brenti): the step inverts one more pair of values,
    and w must invert it too.  Each rank is sorted before it is expanded, so
    the walk returns the layout of `weak_interval`: (elements, below,
    starts), all tuples, so that the memoised `interval_summary` that keeps
    them cannot be changed by a caller.  The elements come by length, then
    lexicographically, from the identity first to w last, and
    elements[starts[r]:starts[r + 1]] are those of length r, so length(w) =
    len(starts) - 2.  below[i] indexes the lower covers of elements[i],
    ascending, which is the increasing order of the descents of elements[i]
    that reach them: u * s_a comes before u * s_b for descents a < b.
    """
    cap = capacity()
    n = len(w)
    place = [0] * (n + 1)  # place[v]: the position of the value v in w
    for i, v in enumerate(w):
        place[v] = i
    # swaps[a](u) is u * s_{a+1}, one C call: u with positions a and a+1
    # exchanged.  Each is built on the first step by it, and the walk steps
    # by at most length(w) distinct generators, fewer than the elements it
    # finds: a long w with a small interval costs O(n) per element, not
    # O(n^2) up front.
    swaps = [None] * n
    pairs = list(zip(range(n - 1), range(1, n)))
    elements = []
    below = [()]
    starts = [0]
    rank = [tuple(range(1, n + 1))]
    while rank:
        first = len(elements)
        elements += rank
        starts.append(len(elements))
        room = cap - len(elements)
        fresh = {}  # each element of the next rank: its lower covers
        for i, u in enumerate(rank, first):
            for a, b in pairs:
                x, y = u[a], u[b]
                if x < y and place[y] < place[x]:
                    swap = swaps[a]
                    if swap is None:
                        swap = swaps[a] = itemgetter(*range(a), b, a, *range(b + 1, n))
                    v = swap(u)
                    lows = fresh.get(v)
                    if lows is None:
                        fresh[v] = [i]
                        if len(fresh) > room:
                            _check_capacity(len(elements) + len(fresh), "weak order interval")
                    else:
                        lows.append(i)
        rank = sorted(fresh)
        below += map(tuple, map(fresh.__getitem__, rank))
    return tuple(elements), tuple(below), tuple(starts)


def weak_interval_elements(w) -> set[tuple[int, ...]]:
    """All u below w in right weak order."""
    return set(interval_summary(w).elements)


def weak_interval(w) -> FinitePoset:
    """The interval below w in right weak order, as a poset whose elements
    come by length, then lexicographically.

    That is the walk's own layout, so its lower lists, ranks and elements
    go to the poset as they are (`_from_graded`): no sort, re-index or copy,
    and the labels are made on their first read."""
    summary = interval_summary(w)
    elements, starts = summary.elements, summary._starts
    n = len(elements[0])
    label = ("%d" * n).__mod__ if n <= 9 else perm_label
    ranks = map(sub, starts[1:], starts)
    return _from_graded(summary._below, ranks, elements, label)


def _check_group_order(n: int, what: str) -> int:
    """Charge the n! elements of the symmetric group on 1..n and return n, an
    int; n! is at least 2^(n-1), so a large n is refused from its width
    before n! is computed."""
    (n,) = _integers((n,), "symmetric group size")
    if n < 0:
        raise RangeError(f"n must be nonnegative, got {n}")
    _check_count(n, f"{n}!", lambda: factorial(n), what)
    return n


def weak_order_full(n: int) -> FinitePoset:
    n = _check_group_order(n, "weak order interval")  # before w0 is built
    w0 = tuple(range(n, 0, -1))
    return weak_interval(w0)


def strong_bruhat(n: int) -> FinitePoset:
    """Strong Bruhat order on the whole symmetric group, ordered by (length,
    one-line notation).  u·t_ij, u with entries i < j swapped, covers u iff
    u(i) < u(j) and no i < k < j has u(i) < u(k) < u(j)."""
    n = _check_group_order(n, "strong Bruhat order")
    elements = sorted(iperm(range(1, n + 1)), key=lambda u: (length(u), u))
    index = {u: i for i, u in enumerate(elements)}
    covers = set()
    for u in elements:
        for i in range(n):
            high = n + 1  # the least entry above u(i) passed so far
            for j in range(i + 1, n):
                if u[i] < u[j] < high:
                    high = u[j]
                    v = u[:i] + (u[j],) + u[i + 1 : j] + (u[i],) + u[j + 1 :]
                    covers.add((index[u], index[v]))
    return FinitePoset(len(elements), covers, [perm_label(u) for u in elements])


# ---------------------------------------------------------------------------
# word counting


def count_reduced(w) -> int:
    """Number of reduced words, i.e. maximal chains of the weak interval."""
    return interval_summary(w).reduced


def enumerate_reduced(w) -> list[tuple[int, ...]]:
    """The reduced words of w, the 0-Hecke words of length length(w), in
    lexicographic order."""
    return enumerate_hecke_words(w, length(w))


def count_nearly_reduced(w) -> int:
    """Number of 0-Hecke words one letter longer than the length of w.

    Every such word arises from a reduced word by inserting a descent of one
    of its prefixes, so the count is a descent-weighted sum of path counts
    through the weak interval.
    """
    return interval_summary(w).nearly


def enumerate_hecke_words(w, L: int) -> list[tuple[int, ...]]:
    """All length-L words with 0-Hecke product w (small cases only), in
    lexicographic order.  Every prefix stays in [e, w]: an ascent s of u,
    with values a < b, adds only the inversion (a, b), and u <= w in right
    weak order exactly when the inversions of u lie among those of w
    (Björner–Brenti), so u * s stays below w exactly when w puts b before a.

    The search is depth first with an explicit stack, so a long word needs
    no deep call stack.  A stack entry (u, length(u), k, s) is the product u
    of a prefix of k letters ending in s; the letters before s are still in
    `word`, since only the subtrees of earlier siblings ran in between."""
    w = check_permutation(w)
    (L,) = _integers((L,), "word length")
    n = len(w)
    lw = length(w)
    pos = (0,) + inverse(w)  # pos[v]: the position of the value v in w
    cap = capacity()
    out = []
    word = []
    stack = [(identity(n), 0, 0, None)]
    while stack:
        u, lu, k, s = stack.pop()
        if k:
            del word[k - 1 :]
            word.append(s)
        if k == L:
            if u == w:
                out.append(tuple(word))
                if len(out) > cap:
                    _check_capacity(len(out), "0-Hecke word enumeration")
            continue
        if lw - lu > L - k:
            continue
        for s in range(n - 1, 0, -1):  # largest first, so the smallest pops first
            a, b = u[s - 1], u[s]
            if a < b and pos[a] < pos[b]:
                continue  # u * s would leave [e, w]
            stack.append((hecke_product(u, s), lu + (a < b), k + 1, s))
    return out


def expectation_Y_words(w) -> Fraction:
    """Chain-weighted down-degree expectation of the weak interval, straight
    from word counts."""
    return interval_summary(w).EY


def expectation_X_complementary(w) -> Fraction:
    """Edge density of the weak interval below w, read off the order ideals
    of its noninversion poset: an independent route, which never walks [e, w].

    [e, u ⊕ v] is the product [e, u] × [e, v], and E(X) adds over products,
    so each direct-sum block of w of two or more entries is read alone, and
    a long w with small blocks costs O(n).  Each block's E(X) is the mean
    descent count of the linear extensions of its noninversion poset."""
    w = check_permutation(w)
    total = Fraction(0)
    start = top = 0
    for k, v in enumerate(w, start=1):
        top = max(top, v)
        if top == k:  # w[start:k] holds the values start+1..k
            if k - start > 1:
                size, edges = _extension_counts(tuple(x - start for x in w[start:k]))
                total += Fraction(edges, size)
            start = k
    return total


def _extension_counts(w) -> tuple[int, int]:
    """(|[e, w]|, covers of [e, w]) from one pass over the covers of J(N(w)).

    [e, w] is the set of linear extensions of N = noninversion_poset(w), each
    read as the values in the order it places them, so |[e, w]| counts the
    paths from the empty ideal to the full one.  The lower covers of u in
    [e, w] are its descents, two values placed one after the other, the later
    one smaller, so the covers of [e, w] number the descents summed over all
    the paths (Stanley, EC1 §3.15).  With paths[i] counting the paths up to
    ideal i and des[i] their descents, a step from i to j placing b extends
    each path to i by one descent when the value it placed last exceeds b,
    the one bit of masks[j] ^ masks[i]."""
    masks, lower = _ideals(_noninversion_order(w))
    paths, des, tops = [1], [0], [0]  # tops[i]: the values placed last on a path to i
    for m, lows in zip(masks[1:], lower[1:]):
        f = d = top = 0
        for i in lows:
            placed = m ^ masks[i]
            top |= placed
            f += paths[i]
            # lower[i] runs down the value placed last: the paths into i that placed one above b lead
            above = (tops[i] & -(placed << 1)).bit_count()
            d += des[i] + sum(map(paths.__getitem__, lower[i][:above]))
        paths.append(f)
        des.append(d)
        tops.append(top)
    return paths[-1], des[-1]


@dataclass(frozen=True)
class IntervalSummary:
    """The weak interval [e, w] and the numbers the paper reads off it, all
    from its one upward walk, which lists the interval rank by rank."""

    elements: tuple[tuple[int, ...], ...]  # e first, then by length and lexicographically, w last
    edge_count: int  # covers
    reduced: int  # reduced words: maximal chains
    nearly: int  # nearly reduced words: 0-Hecke words of length length(w) + 1
    EX: Fraction  # edge density: covers / elements
    EY: Fraction  # down-degree expectation over the maximal chains
    # the walk's layout, read only in this module: _below[i] indexes the lower
    # covers of elements[i]; elements[_starts[r]:_starts[r + 1]] have length r
    _below: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)
    _starts: tuple[int, ...] = field(repr=False, compare=False)


def interval_summary(w) -> IntervalSummary:
    """The summary of the interval below w, computed once per
    (w, CDE_CAPACITY): every entry point that walks the interval
    (weak_interval_elements, weak_interval, count_reduced,
    count_nearly_reduced, expectation_Y_words, the FK words route,
    `cde perm stats` and the `vexillary` suite) reads this value.  The bound
    is part of the key, so lowering CDE_CAPACITY walks again and raises
    CapacityError where a fresh walk would; only the last summary is kept."""
    return _summary_at(check_permutation(w), capacity())


@lru_cache(maxsize=1)
def _summary_at(w, bound) -> IntervalSummary:
    """interval_summary of a checked w; `bound` is only part of the key, since
    `_weak_walk` reads the capacity itself.

    A nearly reduced word repeats one descent of a prefix of a reduced word,
    so it is a path from w down to some u, a descent of u, and a path from u
    down to the identity.  `poset._chain_counts` on the walk's own cover
    lists, in which each element comes after every element below it, gives
    up[i], the paths from elements[i] down to the identity, so up[-1], at w,
    counts the reduced words, and the sum of des(u) * up * down over the
    interval, the nearly reduced ones.

    E(X) is read off the walk as covers / elements, the edge density itself;
    expectation_X_complementary is the independent route, by path sums over
    the order ideals of the noninversion poset, and Tier-1 compares the two."""
    elements, below, starts = _weak_walk(w)
    up, _, nearly = _chain_counts(below, range(len(elements)))
    edges = sum(map(len, below))
    ex = Fraction(edges, len(elements))
    ell = len(starts) - 2  # length(w)
    ey = Fraction(nearly, (ell + 1) * up[-1])
    return IntervalSummary(elements, edges, up[-1], nearly, ex, ey, below, starts)


# ---------------------------------------------------------------------------
# noninversion posets and dominant permutations


def noninversion_poset(w) -> FinitePoset:
    """Order on {1..n} keeping i < j exactly when w leaves the pair in order.
    Its linear extensions, read as one-line permutations, are the weak
    interval below w: u <= w exactly when u keeps in order every pair that w
    keeps (Björner–Wachs, "Permutation statistics and linear extensions of
    posets", JCTA 1991)."""
    w = check_permutation(w)
    return _from_order(_noninversion_order(w), [str(v) for v in range(1, len(w) + 1)])


def _noninversion_order(w) -> list[int]:
    """The order of noninversion_poset(w) in order_relation()'s format, on
    the values 1..n as elements 0..n-1: bit a of entry b is set iff a = b,
    or a < b and w places the value a + 1 before b + 1.  It is charged as
    poset elements before it is built, as the poset itself is."""
    _check_capacity(len(w), "poset elements")
    down = [0] * len(w)
    placed = 0  # the values w places before v
    for v in w:
        bit = 1 << (v - 1)
        down[v - 1] = (placed & (bit - 1)) | bit
        placed |= bit
    return down


def dominant_EX_closed_form(d: int, a: int, b: int) -> Fraction:
    """Edge density of the weak interval below the dominant permutation of
    staircase-times-rectangle shape, evaluated through the telescoped
    hook-ratio sums over its noninversion forest."""
    d, a, b = _integers((d, a, b), "dominant shape parameter")
    if d < 2 or a < 1 or b < 1:
        raise MalformedInputError("need d >= 2 and positive a, b")
    if a > b:
        a, b = b, a  # the dual interval has the same edge density
    N = a + (d - 1) * b

    def c(j):
        return Fraction(j * b, a + (j - 1) * b)

    thetas = []
    for ell in range(d - 1):
        prod = Fraction(1)
        for j in range(ell + 1, d):
            prod *= c(j)
        thetas.append((a * a + ell * b * (b - a)) * prod)
    thetas.append(Fraction(a * a + (d - 1) * b * (b - a) - N))
    return Fraction(1, 2) * (N - 1 - Fraction(1, N) * sum(thetas))


# ---------------------------------------------------------------------------
# Rothe diagrams, shapes, and flags


def rothe_diagram(w) -> frozenset[tuple[int, int]]:
    """Cells (i, j), 1-indexed, with w(i) > j and w^-1(j) > i."""
    w = check_permutation(w)
    pos = inverse(w)
    return frozenset((i, j) for i, v in enumerate(w, 1) for j in range(1, v) if pos[j - 1] > i)


@dataclass(frozen=True)
class RotheData:
    diagram: frozenset[tuple[int, int]]
    lambda_w: tuple[int, ...]
    mu_w: tuple[int, ...]
    flag_w: tuple[int, ...]


def rothe(w) -> RotheData:
    """Diagram, shape, bounding shape, and row flag of a vexillary
    permutation.  Raises NotVexillaryError otherwise: the flag rule is only
    meaningful in the vexillary case."""
    w = check_permutation(w)
    lam, flag = _shape_and_flag(w)
    diagram = rothe_diagram(w)
    row_max = [0] * len(w)  # row_max[i - 1]: the last column of a cell in row i
    for (i, j) in diagram:
        row_max[i - 1] = max(row_max[i - 1], j)
    mu = [m for m in accumulate(reversed(row_max), max) if m]  # mu_r: rows r and below
    return RotheData(diagram, lam, tuple(reversed(mu)), flag)


def _shape_and_flag(w) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The shape and row flag of a checked vexillary w, off its code."""
    cls, code = _classify(w)
    if not cls.vexillary:
        raise NotVexillaryError(f"{w} contains the pattern 2143")
    return cls.shape, _vexillary_flag(code, cls.shape)


def _vexillary_flag(code, shape) -> tuple[int, ...]:
    """The row flag of a vexillary w from its code c and its shape
    (Macdonald, Notes on Schubert Polynomials; Wachs, "Flagged Schur
    functions, Schubert polynomials, and symmetrizing operators", 1985):
    row r takes the r-th smallest position i (1-based) with c_i >= shape[r],
    then the running maximum over the rows.  The parts fall row by row, so
    the positions, sorted once by code, are admitted in that order."""
    ranked = sorted(((c, i) for i, c in enumerate(code, start=1)), reverse=True)
    admitted, rows = [], []
    for r, part in enumerate(shape):
        while len(admitted) < len(ranked) and ranked[len(admitted)][0] >= part:
            insort(admitted, ranked[len(admitted)][1])
        rows.append(admitted[r])
    return tuple(accumulate(rows, max))


# ---------------------------------------------------------------------------
# FK polynomials


def _times_linear(coeffs: list[int], a: int, b: int) -> list[int]:
    """The coefficients of (a x + b) times the polynomial `coeffs`."""
    return [b * c + a * d for c, d in zip(coeffs + [0], [0] + coeffs)]


def _fk_words(w, Ls) -> tuple[IntPolynomial, ...]:
    """The word polynomials for each L in Ls from one walk of [e, w].

    Every prefix of a 0-Hecke word for w has its product in the interval:
    a letter s is absorbed by a descent of the product so far, or climbs
    the cover that swaps positions s and s+1.  So the words of length k
    ending at u weigh
        P_k(u) = P_{k-1}(u) (des(u) x + sum of descents of u)
                 + sum over lower covers v = u s of P_{k-1}(v) (x + s).
    Step k updates only the ranks, cut by the walk's `starts`, that k letters
    reach and that can still reach w in max(Ls) - k, from the top rank down,
    so each element reads its lower covers' weights of step k - 1.  No
    polynomial has more coefficients than a chain of [e, w] has elements
    until step length(w), and each of the e = max(Ls) - length(w) steps past
    it adds one, so (e + 1)^2 coefficient terms are charged before the first
    step, and then the |[e, w]| e^2 terms that the steps past length(w)
    update."""
    summary = interval_summary(w)
    # the identity is elements[0], w is elements[-1], and the elements of
    # length r fill elements[first[r]:first[r + 1]]
    elements, below, first = summary.elements, summary._below, summary._starts
    n = len(w)
    ell = len(first) - 2
    top = max(Ls, default=-1)
    extra = max(top - ell, 0)
    _check_capacity((extra + 1) ** 2, "FK words coefficient terms")
    _check_capacity(len(elements) * extra**2, "FK words coefficient terms")
    # below[i] follows the descents of elements[i] in increasing order
    steps = []
    for u, lower in zip(elements, below):
        des = [s for s in range(1, n) if u[s - 1] > u[s]]
        steps.append((len(des), sum(des), list(zip(lower, des))))
    wanted = set(Ls)
    weight: list[list[int] | None] = [None] * len(elements)
    weight[0] = [1]
    found = {0: weight[-1]} if ell == 0 else {}
    for k in range(1, top + 1):
        for i in reversed(range(first[max(ell - top + k, 0)], first[min(k, ell) + 1])):
            loops, letters, covers = steps[i]
            cur = weight[i]
            new = _times_linear(cur, loops, letters) if cur is not None and loops else None
            for j, s in covers:
                if weight[j] is not None:
                    term = _times_linear(weight[j], 1, s)
                    new = term if new is None else [c + t for c, t in zip(new, term)]
            weight[i] = new
        if k in wanted:
            found[k] = weight[-1]
    return tuple(IntPolynomial(tuple(found.get(L) or ())) for L in Ls)


def _fk_tableaux(w, Ls) -> tuple[IntPolynomial, ...]:
    """The word polynomials for each L in Ls from flagged set-valued tableau
    counts: the value at x is the sum over j of (number of tableaux with j
    entries, flag shifted by x) j! S(L, j), for x = 1..L+1, interpolated.
    One pass of the tableau DP for every x up to the largest L holds the
    counts of every smaller total, so each L reads its own from them.

    The L + 1 points each sum up to L + 1 Stirling terms, so (L + 1)^2
    point terms are charged against the capacity bound before the DP; the
    bound counts big-integer operations, not their digits."""
    shape, flag = _shape_and_flag(w)
    size = sum(shape)
    top = max(Ls, default=-1)
    _check_capacity((top + 1) ** 2, "FK tableaux point terms")
    counts = []
    if top >= size:
        counts = _ssyt_counts_by_shift(shape, flag, top, range(1, top + 2))
    polys = {}
    for L in set(Ls):
        if L < size:
            polys[L] = IntPolynomial.zero()
            continue
        surjections = [factorial(j) * s for j, s in enumerate(stirling2_row(L))]
        points = [
            (x, sum(c.get(j, 0) * surjections[j] for j in range(size, L + 1)))
            for x, c in enumerate(counts[: L + 1], start=1)
        ]
        polys[L] = interpolate_integer_polynomial(points)
    return tuple(polys[L] for L in Ls)


def fk_polynomials(w, Ls, via: str = "words") -> tuple[IntPolynomial, ...]:
    """fk_polynomial(w, L, via) for each L in Ls, in order, sharing the work.

    via='words' runs one transfer over the weak interval below w up to the
    largest L; via='tableaux' (vexillary w only) runs one pass of the
    flagged set-valued tableau DP for every x up to the largest L.
    """
    w = check_permutation(w)
    Ls = _integers(Ls, "word length")
    if any(L < 0 for L in Ls):
        raise RangeError("L must be nonnegative")
    if via == "words":
        return _fk_words(w, Ls)
    if via == "tableaux":
        return _fk_tableaux(w, Ls)
    raise MalformedInputError(f"unknown route {via!r}")


def fk_polynomial(w, L: int, via: str = "words") -> IntPolynomial:
    """Sum of prod (x + i_k) over all length-L 0-Hecke words for w.

    via='words' propagates word weights over the weak interval below w;
    via='tableaux' (vexillary w only) assembles the polynomial from flagged
    set-valued tableau counts and Stirling numbers.  The verify `fk-theorem`
    suite checks the two routes against each other.
    """
    return fk_polynomials(w, (L,), via)[0]


@dataclass(frozen=True)
class FkConjectureReport:
    d: int
    a: int
    b: int
    ell: int
    divides: bool
    quotient: tuple[IntPolynomial, int] | None
    quotient_matches: bool
    ssyt_ratio_ok: bool

    @property
    def consistent(self) -> bool:
        return self.divides and self.quotient_matches and self.ssyt_ratio_ok


def conjecture_fk_check(d: int, a: int, b: int) -> FkConjectureReport:
    """Test, for the dominant permutation of staircase-times-rectangle shape,
    whether the one-letter-longer word polynomial is a multiple of the
    reduced-word polynomial with the predicted linear quotient, and whether
    the companion flagged-tableau ratio holds at x = 1..4."""
    lam = rect_staircase(d, a, b)
    w = dominant_of_shape(lam)
    ell = sum(lam)
    fk_l, fk_l1 = fk_polynomials(w, (ell, ell + 1))
    division = poly_divides(fk_l, fk_l1)
    divides = division is not None
    quotient_matches = False
    if divides:
        num, den = division
        binom = comb(ell + 1, 2)
        expected = [Fraction(binom), Fraction(binom * 4, d * (a + b))]
        got = [Fraction(num.coefficient(k), den) for k in range(max(num.degree + 1, 2))]
        quotient_matches = got == expected and num.degree <= 1
    flag = tuple(range(1, len(lam) + 1))
    shifted = _ssyt_counts_by_shift(lam, flag, ell + 1, range(1, 5))
    ssyt_ok = True
    for x, counts in enumerate(shifted, start=1):
        lo, hi = counts.get(ell, 0), counts.get(ell + 1, 0)
        if lo == 0 or Fraction(hi, lo) != Fraction(2 * ell * x, d * (a + b)):
            ssyt_ok = False
            break
    return FkConjectureReport(d, a, b, ell, divides, division, quotient_matches, ssyt_ok)
