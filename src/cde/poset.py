"""Finite posets and their down-degree statistics.

Elements are always the dense integers 0..n-1; builders attach human-readable
labels as metadata only.  A poset is immutable once built, down to its lower
cover lists, tuples of tuples that are the one stored form of its cover
relation, and every statistic below is a pure function of them, so shared
posets are safe to use from multiple threads.  `covers`, the set of pairs,
is read off them on each access.  Four values are derived from what is
stored and written after construction, each on first use: `upper_covers`,
read off the lower lists; `labels` of a graded poset, made by naming its
items; the table of chain counts behind the multichain statistics; and the
J(P) last built for it by `order_ideal_lattice`, which toggle symmetry and
linear extension counts call when P has no J recorded.  Each is built the
same by any thread, a tuple assigned whole in one attribute store and read
once per call, so a reader sees none or a complete one, and two threads that
build at once only repeat work.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import permutations
from math import comb, factorial, prod
from numbers import Rational
from operator import index, mul

from .core import _hook_quotient, _integers
from .errors import (
    CapacityError,
    CycleError,
    EmptyPosetError,
    MalformedInputError,
    NotCoverError,
    NotReducedError,
    SizeError,
)

__all__ = [
    "FinitePoset",
    "PosetStats",
    "capacity",
    "validate",
    "expectation_X",
    "expectation_Y",
    "expectation_Xm",
    "expectation_under_multichain",
    "multichain_counts",
    "is_CDE",
    "is_mCDE_upto",
    "chain",
    "antichain",
    "boolean",
    "product",
    "disjoint_union",
    "ordinal_sum",
    "dual",
    "pabcd",
    "tamari",
    "order_ideals",
    "order_ideal_lattice",
    "toggle_symmetry_check",
    "self_dual_regular_check",
    "linear_extension_count",
    "is_forest",
    "forest_merge_ratio",
    "quotient_cover",
    "stats",
    "is_isomorphic",
    "canonical_key",
    "load_poset",
    "dump_poset",
]

DEFAULT_CAPACITY = 2_000_000
_EXACT_BITS = 1 << 15  # counts up to this width are computed to name them
_SHOWN_CHARS = 40  # a longer CDE_CAPACITY is named by its length, not echoed
_FULL_ROW_BITS = 1024  # chain tables with rows this wide are built at full height


def capacity() -> int:
    """Current element/ideal capacity bound: the CDE_CAPACITY environment
    variable, else the built-in default of 2e6."""
    env = os.environ.get("CDE_CAPACITY")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            if len(env) <= _SHOWN_CHARS:
                raise MalformedInputError(f"CDE_CAPACITY={env!r} is not an integer") from exc
            # Python converts no numeral of over 4,300 digits (by default)
            too_long = str(exc).startswith("Exceeds the limit")
            why = "has more digits than Python converts to an integer" if too_long else "is not an integer"
            raise MalformedInputError(f"CDE_CAPACITY of {len(env)} characters {why}") from exc
    return DEFAULT_CAPACITY


def _check_capacity(count: int, what: str):
    bound = capacity()
    if count > bound:
        bits = count.bit_length()  # Python prints no int of over 4,300 digits
        need = count if bits <= 256 else f"a {bits}-bit count"
        raise CapacityError(f"{what} needs {need} > capacity {bound}")


def _check_count(bits: int, formula: str, count, what: str):
    """_check_capacity for the count that `count()` computes, known to have
    at least `bits` bits.  A count wider than both the bound and
    _EXACT_BITS is over the bound by its width alone, so it is refused
    before it is computed, and named by `formula` instead."""
    bound = capacity()
    if bits > max(bound.bit_length(), _EXACT_BITS):
        raise CapacityError(f"{what} needs {formula} > capacity {bound}")
    _check_capacity(count(), what)


@dataclass(frozen=True, init=False, eq=False)
class FinitePoset:
    """A finite poset given by its transitively reduced cover relation.

    ``FinitePoset(n, covers, labels)`` files each pair (a, b) of ``covers``,
    a covered by b, into the cover lists and keeps none.  Every instance is
    checked by `validate` or `_from_graded`, so an invalid one cannot be built.
    Equality and hash are over (n, labels, lower_covers).
    """

    n: int
    # lower_covers[x] lists the elements covered by x, ascending, as a tuple,
    # the one stored form of the cover relation, so the lower lists fix
    # equality and hash; level[x] counts the covers on the longest chain
    # from a minimal element up to x, and `order` lists the elements by
    # level, then index, so each after every element below it.  All built
    # once, on construction (`__init__` or `_from_graded`).  `labels` and
    # `upper_covers` are stored there by `__init__` and derived on first read
    # on a graded poset, which keeps `_items` and `_name` to make its labels
    lower_covers: tuple[tuple[int, ...], ...]
    order: tuple[int, ...] = field(repr=False)
    level: tuple[int, ...] = field(repr=False)
    # (size, rows, T, V, pairs): the largest chain table built so far, its
    # packed rows and column sums, and the pair count of the strict order
    # behind it, written by _chain_table alone and on first use; a class
    # default, not a field, so construction never touches it and equality
    # never reads it
    _chains = (0, (), (), (), 0)
    # (J, masks): the J(P) that order_ideal_lattice last built for this poset
    # and its ideals as bitmasks, written by that function alone; a class
    # default, not a field, like _chains
    _lattice = None

    def __init__(self, n: int, covers, labels=None):
        try:
            covers = frozenset(covers)
        except TypeError:  # an unhashable cover, such as a list
            raise _malformed_covers(covers) from None
        labels = None if labels is None else tuple(labels)
        (n,) = _integers((n,), "element count")
        if n < 0:
            raise SizeError("element count must be nonnegative")
        _check_capacity(n, "poset elements")  # before the n cover lists are built
        down = [[] for _ in range(n)]
        try:
            for a, b in covers:
                a, b = index(a), index(b)
                if not (0 <= a < n and 0 <= b < n):
                    bad = min((a, b) for a, b in covers if not (0 <= a < n and 0 <= b < n))
                    raise MalformedInputError(f"cover {bad} out of range")
                down[b].append(a)
        except (TypeError, ValueError):
            raise _malformed_covers(covers) from None
        del covers  # the lists are the relation from here on
        for b, lows in enumerate(down):
            lows.sort()
            down[b] = tuple(lows)  # each list goes as its tuple is made
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "lower_covers", tuple(down))
        up = self.upper_covers  # made for the pass below, and kept
        # Kahn's algorithm a level at a time, each level ascending; an element
        # on a cycle never enters the order, and validate reports the cycle
        indeg = [len(lows) for lows in down]
        level = [0] * n
        layer = [x for x in range(n) if not indeg[x]]
        order = []
        while layer:
            order += layer
            above = []
            for x in layer:
                for y in up[x]:
                    indeg[y] -= 1
                    if not indeg[y]:  # its last lower cover is x
                        level[y] = level[x] + 1
                        above.append(y)
            above.sort()
            layer = above
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "level", tuple(level))
        validate(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.labels, self.lower_covers) == (other.n, other.labels, other.lower_covers)

    def __hash__(self):
        return hash((self.n, self.labels, self.lower_covers))

    @property
    def covers(self) -> frozenset[tuple[int, int]]:  # read off the lower lists on each access
        return frozenset((a, b) for b, lows in enumerate(self.lower_covers) for a in lows)

    @cached_property
    def upper_covers(self) -> tuple[tuple[int, ...], ...]:
        """upper_covers[x] lists the elements covering x, ascending, as a
        tuple, read off the lower lists."""
        up = [[] for _ in range(self.n)]
        for b, lows in enumerate(self.lower_covers):
            for a in lows:
                up[a].append(b)
        for x, highs in enumerate(up):
            up[x] = tuple(highs)  # each list goes as its tuple is made
        return tuple(up)

    @cached_property
    def labels(self) -> tuple[str, ...] | None:
        """The graded poset's items, each named."""
        return tuple(map(self._name, self._items))

    def down_degree(self, x: int) -> int:
        return len(self.lower_covers[x])

    def down_degrees(self) -> list[int]:
        return [len(d) for d in self.lower_covers]

    def label(self, x: int) -> str:
        if self.labels is not None:
            return self.labels[x]
        return str(x)

    def topological_order(self) -> list[int]:
        """A copy of `order`: the elements by level, then index."""
        return list(self.order)

    def order_relation(self) -> list[int]:
        """Reflexive order relation as bitmasks: bit z of entry y set iff z <= y."""
        lower = self.lower_covers
        below = [1 << x for x in range(self.n)]
        for x in self.order:
            mask = below[x]
            for z in lower[x]:
                mask |= below[z]
            below[x] = mask
        return below


def _is_int_pair(c) -> bool:
    return isinstance(c, tuple) and len(c) == 2 and all(hasattr(v, "__index__") for v in c)


def _malformed_covers(covers) -> MalformedInputError:
    """The error for covers that are not all pairs of integers: it names the
    least such cover by repr, or the type of covers that cannot be read one
    by one."""
    try:
        bad = min((c for c in covers if not _is_int_pair(c)), key=repr)
    except (TypeError, ValueError):
        kind = type(covers).__name__
        return MalformedInputError(f"covers must be a collection of integer pairs, not {kind}")
    return MalformedInputError(f"cover {bad!r} is not a pair of integers")


def validate(p: FinitePoset) -> None:
    """Check the FinitePoset invariants that need more than the cover list.

    A FinitePoset rejects a negative size, a size over the capacity bound
    and covers outside 0..n-1 itself, before it builds its adjacency lists.
    This raises MalformedInputError when the labels are not n, CycleError
    when the cover digraph has a cycle, and NotReducedError (naming the
    least offending pair) when some cover is implied by a longer path.
    """
    if p.labels is not None and len(p.labels) != p.n:
        raise MalformedInputError(f"{len(p.labels)} labels for {p.n} elements")
    if len(p.order) != p.n:
        # a self-cover keeps its element out of the order too; name it first
        loops = [a for b, lows in enumerate(p.lower_covers) for a in lows if a == b]
        if loops:
            raise CycleError(f"self-cover at {loops[0]}")
        raise CycleError("cover digraph contains a directed cycle")
    # Only a cover that skips a level can be implied by a longer path, and a
    # graded poset has none.  A longer path from a to b leaves a through an
    # upper cover other than b, so a cover (a, b) can be implied only when a
    # has two upper covers or more, and a forest has none either.  For each
    # b with such a cover, mark the elements strictly below the lower covers
    # of b, down to the lowest level such a cover starts from; a marked lower
    # cover of b lies under another one.  The marks are one list of n stamps,
    # so the check keeps no n-by-n order relation.
    lower, upper, level = p.lower_covers, p.upper_covers, p.level
    implied = []
    seen = [-1] * p.n  # seen[x] == b: x is marked in the search for b
    for b in {b for b, near in enumerate(lower) for a in near if level[b] > level[a] + 1 and len(upper[a]) > 1}:
        near = lower[b]
        lo = min(level[a] for a in near if level[a] + 1 < level[b] and len(upper[a]) > 1)
        stack = list(near)
        while stack:
            for z in lower[stack.pop()]:
                if seen[z] != b and level[z] >= lo:
                    seen[z] = b
                    stack.append(z)
        implied.extend((a, b) for a in near if seen[a] == b)
    if implied:
        raise NotReducedError(min(implied))


def _from_graded(lower, ranks, items, name=str) -> FinitePoset:
    """The graded poset whose element b has the lower covers lower[b], as the
    walks build them: `ranks` gives the number of elements on each level,
    the levels come one after another from level 0 up, and each lower list
    is an ascending tuple on the level just below.  The tuples become the
    poset's own, with no copy, and so do the items: element x is labelled
    name(items[x]), on the first read of `labels`.

    One pass checks all of this, and that every element above level 0 has a
    lower cover; a malformed hand-off is refused with MalformedInputError
    naming the cover or the counts.  Covers that rise exactly one level are
    acyclic and imply no other cover, so the poset needs no Kahn pass and no
    `validate` search, and `order`, by level then index, is range(n)."""
    n = len(lower)
    sizes = tuple(ranks)
    level = []
    for r, size in enumerate(sizes):
        level += [r] * size
    items = tuple(items)
    if len(level) != n or len(items) != n:
        raise MalformedInputError(f"ranks hold {len(level)} and labels {len(items)} of {n} elements")
    start = end = 0  # level r - 1 runs from start to end - 1, and level r from end
    for r, size in enumerate(sizes):
        for b in range(end, end + size):
            prev = start - 1
            for a in lower[b]:
                if not prev < a < end:  # a repeat, a step down, or a cover off the level below
                    raise MalformedInputError(f"cover {(a, b)} is out of order, or not one level up")
                prev = a
            if r and prev < start:
                raise MalformedInputError(f"element {b} on level {r} has no lower cover")
        start, end = end, end + size
    p = object.__new__(FinitePoset)
    object.__setattr__(p, "n", n)
    object.__setattr__(p, "lower_covers", tuple(lower))
    object.__setattr__(p, "order", tuple(range(n)))
    object.__setattr__(p, "level", tuple(level))
    object.__setattr__(p, "_items", items)
    object.__setattr__(p, "_name", name)
    return p


def _from_order(down: list[int], labels=None) -> FinitePoset:
    """The poset whose order is `down`, in order_relation()'s format: bit x
    of down[y] is set iff x <= y, and the relation is transitively closed.
    This is the one Hasse reduction in the package: the lower covers of y
    are the elements strictly below y that lie strictly below no other
    element strictly below y."""
    n = len(down)
    covers = set()
    for y, mask in enumerate(down):
        strict = mask & ~(1 << y)
        shadow = 0
        for z in _members(strict, n):
            shadow |= down[z] & ~(1 << z)
        covers.update((x, y) for x in _members(strict & ~shadow, n))
    return FinitePoset(n, covers, labels)


# ---------------------------------------------------------------------------
# statistics


def _require_nonempty(p: FinitePoset):
    if p.n == 0:
        raise EmptyPosetError("statistic undefined on the empty poset")


def expectation_X(p: FinitePoset) -> Fraction:
    """Edge density: covers / elements (expected down-degree, uniform)."""
    _require_nonempty(p)
    return Fraction(sum(p.down_degrees()), p.n)


def _chain_counts(lower, order) -> tuple[list[int], list[int], int]:
    """(up, down, weighted) on the lower covers `lower` in `order`, each
    element after every element below it: up[x] counts the paths from x down
    to the minimal elements, down[x] those from the maximal elements down to
    x, and weighted is Σ_x dd(x)·up[x]·down[x].

    The down counts are pushed down the lists, so a maximal element, which
    none reaches, counts 1; one pass from the bottom then gives up.
    up[x]·down[x] is the number of maximal chains through x, and the sum
    counts the pairs (maximal chain, one lower cover of one of its elements):
    on a weak interval these are the nearly reduced words, on a Young
    interval the standard barely set-valued tableaux.  This is the one such
    count in the package.
    """
    down = [0] * len(lower)
    for x in reversed(order):
        paths = down[x] = down[x] or 1
        for z in lower[x]:
            down[z] += paths
    up = [1] * len(lower)
    weighted = 0
    for x in order:
        lows = lower[x]
        if lows:
            up[x] = paths = sum(map(up.__getitem__, lows))
            weighted += len(lows) * paths * down[x]
    return up, down, weighted


def expectation_Y(p: FinitePoset) -> Fraction:
    """Expected down-degree when each element is weighted by the number of
    maximal chains through it."""
    return stats(p).EY


def _pack_width(n: int, size: int) -> int:
    """W, the bits per entry of a packed chain-table row of `size` entries
    on n elements: each entry is at most C(n-1, k) for some k < size, and
    C(n-1, k) grows with k up to k = (n-1)//2."""
    return comb(n - 1, min(size - 1, (n - 1) // 2)).bit_length() + 1


def _chain_table(p: FinitePoset, size: int) -> tuple:
    """(size, rows, W, T, V): `size` clamped to the longest chain; p's kept
    chain table, at least that size, as one packed row per element, W bits
    per entry (see `_build_chain_table`), row e holding a(e, k), the number
    of k-element chains through e; and its column sums T_k = Σ_e a(e, k) and
    V_k = Σ_e dd(e)·a(e, k) for k = 1..size.  `_columns` reads the rows.

    The table is a derived value of p, filled in on first use: p keeps the
    largest table built so far, with its two column sums, taken in one pass
    at build time, and a request no larger is read from them.  No chain has
    more elements than the longest one, so `size` is clamped there, and a
    table of that size answers every later request.  A build is made at
    that full height when its rows are at most _FULL_ROW_BITS wide and its
    words fit the capacity bound, since a build costs about the same at
    any height up to there; otherwise it is made at least twice the kept
    size, so the sizes 2..8 asked one by one cost three builds.  The
    request itself, not the build, is charged against the capacity bound,
    in 64-bit words of packed rows, so that no verdict depends on earlier
    calls.  The build charges the pairs of the strict order it holds; they
    do not depend on the size, so a kept table whose pairs are over the
    current bound is built again, and refused as a fresh equal poset would
    be.  The table of size 1 needs neither a charge nor a build: the one
    1-element chain through e is {e}, so each row is 1.
    """
    n, longest = p.n, max(p.level) + 1  # at most n
    if size > 1:
        size = min(size, longest)
        _check_capacity(n * -(-size * _pack_width(n, size) // 64), "multichain table words")
    kept = p._chains
    built, rows, total, weighted, pairs = kept
    if size > built or pairs > capacity():
        if size == 1:
            built, rows, pairs = 1, (1,) * n, 0
        else:
            full = longest * _pack_width(n, longest)
            if full <= _FULL_ROW_BITS and n * -(-full // 64) <= capacity():
                built = longest
            else:
                built = min(max(size, 2 * built), longest)
            rows, pairs = _build_chain_table(p.lower_covers, p.order, built)
        dd = p.down_degrees()
        columns = _columns(rows, _pack_width(n, built), built)
        total, weighted = zip(*((sum(col), sum(map(mul, dd, col))) for col in columns))
        if built > kept[0]:  # another thread may have kept a larger one
            object.__setattr__(p, "_chains", (built, rows, total, weighted, pairs))
    return size, rows, _pack_width(n, built), total[:size], weighted[:size]


def _build_chain_table(lower, order, size: int) -> tuple[tuple[int, ...], int]:
    """The chain table of `_chain_table`, its one caller, built at `size` on
    the lower covers `lower` in `order`, each element after every element
    below it, as one packed row per element, and the number of pairs in the
    strict order it was built from.

    A chain through e is a chain with top e joined at e to a chain with
    bottom e, so row e is the convolution of the two, truncated at `size`.

    Each row is packed into one int (Kronecker substitution): the entry for
    k sits in bits (k-1)·W .. k·W-1, W = _pack_width(n, size), so adding
    rows is one integer add and the convolution one integer product.  No
    entry carries into the next: a k-element chain through e (or with top
    or bottom e) is e plus k-1 of the other n-1 elements, so each entry
    below `size` is at most C(n-1, k-1) < 2^W.  Sums and products overflow
    only at or above bit size·W, and carries only go up, so the mask `keep`
    drops them.  `_columns` is the one reader of the rows.

    The strict order is built once, as down-sets on the way up: top rows
    pull from the elements below, and on the way down each finished bottom
    row is pushed to the elements below it.  Its pairs are counted as the
    down-sets are built and refused once they pass the capacity bound, and
    the down-sets are released before the rows are formed.
    """
    n = len(lower)
    W = _pack_width(n, size)
    keep = (1 << W * size) - 1
    bound = capacity()
    # strict[x]: the elements below x; tops[x], bottoms[x], entry k: the
    # k-element chains with top x, with bottom x
    strict = [None] * n
    tops = [0] * n
    pairs = 0
    for x in order:
        near = lower[x]
        below = strict[x] = tuple(set(near).union(*map(strict.__getitem__, near)))
        pairs += len(below)
        if pairs > bound:
            _check_capacity(pairs, "multichain strict order pairs")
        tops[x] = (1 + (sum(map(tops.__getitem__, below)) << W)) & keep
    above = [0] * n  # above[x]: the bottom rows of the elements above x, shifted
    bottoms = [0] * n
    for x in reversed(order):
        bottoms[x] = (1 + above[x]) & keep
        pushed = bottoms[x] << W
        for z in strict[x]:
            above[z] += pushed
    del strict, above
    for x in range(n):
        tops[x] = (tops[x] * bottoms[x]) & keep
    return tuple(tops), pairs


def _columns(rows, W: int, size: int):
    """Columns k = 1..size of the packed rows `rows`, W bits per entry, one
    at a time: column k lists entry k of every row.  The one reader of
    packed rows."""
    entry = (1 << W) - 1
    return ([(packed >> k) & entry for packed in rows] for k in range(0, W * size, W))


def _zeta_sums(rows, W: int, size: int, m: int) -> list[int]:
    """Σ_k C(m-1, k-1)·a(e, k) over k = 1..size for each packed row e of a
    chain table: the m-element multichains through e.  A multichain has a
    chain as its set of elements, and C(m-1, k-1) multichains of m elements
    have a given k-element chain as their set (the zeta-polynomial
    expansion, Stanley, EC1 3.12)."""
    weights = [comb(m - 1, k) for k in range(size)]
    return [sum(map(mul, weights, row)) for row in zip(*_columns(rows, W, size))]


def multichain_counts(p: FinitePoset, m: int) -> list[int]:
    """For each element, the number of m-element multichains containing it,
    read from p's chain table (see `_zeta_sums`)."""
    _require_nonempty(p)
    (m,) = _multichain_sizes((m,))
    size, rows, W, _, _ = _chain_table(p, m)
    return _zeta_sums(rows, W, size, m)


def _multichain_sizes(ms) -> tuple[int, ...]:
    ms = _integers(ms, "multichain size")
    if min(ms) < 1:
        raise SizeError("m must be a positive integer")
    return ms


def expectation_under_multichain(p: FinitePoset, m: int, values) -> Fraction:
    """Expectation of an arbitrary value vector under the distribution that
    weights each element by its m-element multichain count.  The values are
    exact rationals (int or Fraction), read once from any iterable; a float
    is rejected."""
    try:
        values = tuple(values)
    except TypeError:
        kind = type(values).__name__
        raise MalformedInputError(f"multichain expectation values must come as a sequence, not {kind}") from None
    if len(values) != p.n:
        raise MalformedInputError(f"{len(values)} values for {p.n} elements")
    if not all(isinstance(v, Rational) for v in values):
        raise MalformedInputError("multichain expectation values must be int or Fraction")
    return _multichain_means(p, values, (m,))[0]


def expectation_Xm(p: FinitePoset, m: int) -> Fraction:
    """Expected down-degree under the m-element multichain distribution."""
    return _multichain_means(p, None, (m,))[0]


def is_CDE(p: FinitePoset) -> bool:
    return expectation_X(p) == expectation_Y(p)


def _multichain_means(p: FinitePoset, values, ms) -> list[Fraction]:
    """For each m in `ms`, the mean of `values` (n exact rationals, or None
    for the down-degrees) under the m-element multichain distribution:
    sum_k V_k C(m-1, k-1) / sum_k T_k C(m-1, k-1), with T_k, V_k the
    k-element chains through the elements, counted plainly and by value.
    The down-degree sums are kept with the chain table, so they read no row."""
    _require_nonempty(p)
    ms = _multichain_sizes(ms)
    size, rows, W, total, weighted = _chain_table(p, max(ms))
    if values is not None:
        weighted = [sum(map(mul, values, col)) for col in _columns(rows, W, size)]
    weights = [[comb(m - 1, k) for k in range(size)] for m in ms]
    return [Fraction(sum(map(mul, weighted, w)), sum(map(mul, total, w))) for w in weights]


def _multichain_expectations(p: FinitePoset, M: int) -> list[Fraction]:
    """E(X^(m)) for m = 1..M, all read from one table of chain counts."""
    (M,) = _integers((M,), "largest multichain size")
    if M < 1:
        return []
    _require_nonempty(p)
    _check_capacity(M, "multichain expectations")
    return _multichain_means(p, None, range(1, M + 1))


def is_mCDE_upto(p: FinitePoset, M: int) -> bool:
    """Bounded certificate: the multichain expectations agree for m = 1..M.

    This is a necessary condition for the (infinite) property that the
    expectation is constant for every m >= 1; it never certifies more.
    """
    (M,) = _integers((M,), "largest multichain size")
    base = expectation_X(p)
    return M < 2 or all(e == base for e in _multichain_expectations(p, M))


# ---------------------------------------------------------------------------
# builders


def chain(a: int) -> FinitePoset:
    (a,) = _integers((a,), "chain size")
    if a < 1:
        raise SizeError("chain needs a >= 1 element")
    _check_capacity(a, "poset elements")  # before the covers are listed
    return FinitePoset(a, {(i, i + 1) for i in range(a - 1)})


def antichain(a: int) -> FinitePoset:
    (a,) = _integers((a,), "antichain size")
    if a < 1:
        raise SizeError("antichain needs a >= 1 element")
    return FinitePoset(a, set())


def boolean(n: int) -> FinitePoset:
    """Lattice of subsets of an n-set ordered by inclusion."""
    (n,) = _integers((n,), "boolean lattice rank")
    if n < 0:
        raise SizeError("boolean needs n >= 0")
    _check_count(n + 1, f"2^{n}", lambda: 1 << n, "boolean lattice")
    covers = set()
    for s in range(1 << n):
        for i in range(n):
            if not (s >> i) & 1:
                covers.add((s, s | (1 << i)))
    labels = [format(s, f"0{max(n,1)}b")[::-1] for s in range(1 << n)]
    return FinitePoset(1 << n, covers, labels)


def product(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    """Cartesian product ordered componentwise."""
    _check_capacity(p.n * q.n, "poset product")
    covers = set()
    for a, b in p.covers:
        for y in range(q.n):
            covers.add((a * q.n + y, b * q.n + y))
    for a, b in q.covers:
        for x in range(p.n):
            covers.add((x * q.n + a, x * q.n + b))
    labels = [f"({p.label(x)},{q.label(y)})" for x in range(p.n) for y in range(q.n)]
    return FinitePoset(p.n * q.n, covers, labels)


def disjoint_union(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    covers = p.covers | {(a + p.n, b + p.n) for a, b in q.covers}
    labels = [p.label(x) for x in range(p.n)] + [q.label(y) for y in range(q.n)]
    return FinitePoset(p.n + q.n, covers, labels)


def ordinal_sum(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    """Everything in p below everything in q: their disjoint union plus the
    covers from the maximal elements of p to the minimal ones of q."""
    union = disjoint_union(p, q)
    p_max = [x for x in range(p.n) if not p.upper_covers[x]]
    q_min = [y + p.n for y in range(q.n) if not q.lower_covers[y]]
    covers = union.covers | {(x, y) for x in p_max for y in q_min}
    return FinitePoset(union.n, covers, union.labels)


def dual(p: FinitePoset) -> FinitePoset:
    return FinitePoset(p.n, {(b, a) for a, b in p.covers}, p.labels)


def pabcd(a: int, b: int, c: int, d: int) -> FinitePoset:
    """Chains w, x, y, z of lengths a, b, c, d laid end to end as one run of
    covers, with the x-to-y step cut and two cross covers, w's top below y's
    bottom and x's top below z's: x and y are parallel between w and z."""
    a, b, c, d = _integers((a, b, c, d), "pabcd size")
    if min(a, b, c, d) < 1:
        raise SizeError("pabcd needs four positive integers")
    n = a + b + c + d
    _check_capacity(n, "poset elements")  # before the covers are listed
    covers = {(i, i + 1) for i in range(n - 1) if i != a + b - 1}
    covers |= {(a - 1, a + b), (a + b - 1, a + b + c)}
    labels = [f"{s}{i + 1}" for s, k in zip("wxyz", (a, b, c, d)) for i in range(k)]
    return FinitePoset(n, covers, labels)


def _triangulations(n: int) -> list[tuple[tuple[int, int], ...]]:
    """The triangulations of the convex n-gon on vertices 1..n, each as its
    sorted diagonals, in lexicographic order.

    The side (i, j) of the polygon on vertices i..j lies in exactly one
    triangle (i, k, j); triangulating i..k and k..j independently and adding
    (i, k) and (k, j) where they are diagonals gives each triangulation once.
    """
    # C(n-2), at least 2^(n-3): each C(m+1)/C(m) = (4m+2)/(m+2) is at least 2
    _check_count(n - 2, f"C({n - 2})", lambda: comb(2 * n - 4, n - 2) // (n - 1), "tamari lattice")
    # polygon[i, j]: the triangulations of the polygon on vertices i..j
    polygon = {(i, i + 1): [()] for i in range(1, n)}
    for span in range(2, n):
        for i in range(1, n - span + 1):
            j = i + span
            polygon[i, j] = [
                left + right + tuple(d for d in ((i, k), (k, j)) if d[1] - d[0] > 1)
                for k in range(i + 1, j)
                for left in polygon[i, k]
                for right in polygon[k, j]
            ]
    return sorted(tuple(sorted(t)) for t in polygon[1, n])


def tamari(n: int) -> FinitePoset:
    """Triangulations of a convex n-gon ordered by diagonal flips.

    A flip inside a quadrangle with vertices i < j < k < l exchanges the
    diagonal {i,k} for {j,l}; that direction is the covering relation.

    A diagonal (a, c) lies in exactly two triangles, whose apexes are the
    two common neighbours of a and c: one b between a and c, and one d
    outside.  The flip {a,c} -> {b,d} is a cover exactly when d > c.
    """
    (n,) = _integers((n,), "polygon size")
    if n < 3:
        raise SizeError("tamari needs a polygon with n >= 3 vertices")
    tris = _triangulations(n)
    index = {t: i for i, t in enumerate(tris)}
    boundary = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    covers = set()
    for i, t in enumerate(tris):
        neighbours = [set() for _ in range(n + 1)]
        for a, c in boundary + list(t):
            neighbours[a].add(c)
            neighbours[c].add(a)
        for a, c in t:
            b, d = sorted(neighbours[a] & neighbours[c])
            if d > c:  # b < c < d: the apex inside is b, the one outside d
                flipped = tuple(sorted(set(t) - {(a, c)} | {(b, d)}))
                covers.add((i, index[flipped]))
    labels = ["{" + ",".join(f"{i}-{j}" for i, j in t) + "}" for t in tris]
    return FinitePoset(len(tris), covers, labels)


def _ideals(down: list[int]) -> tuple[list[int], list[tuple[int, ...]]]:
    """Every order ideal of the order `down` as a bitmask, and the lower
    covers of each in J(P), as indices into the masks.

    `down` is in order_relation()'s format, bit z of down[y] set iff z <= y.
    Element e can join ideal m exactly when down[e] & ~m is e alone, so any
    reflexive masks that generate the order by transitivity, such as each
    element with its lower covers, give the same walk.  Ideals come by size,
    then lexicographically on their sorted elements, so the indices are in
    order; lower[j] is an ascending tuple, and the element that ideal j adds
    to its lower cover i is the one bit of masks[j] ^ masks[i].  This is the
    one walk over ideals in the package.  Both are charged as they grow, an
    ideal as one unit and a cover as half of one, so a lattice of up to two
    covers per ideal fits the bound its ideals fit.
    """
    n = len(down)
    items = [(d, 1 << e) for e, d in enumerate(down)]
    cap = capacity()
    masks = [0]
    lower = [()]
    covers = 0
    start = 0
    while start < len(masks):
        end = len(masks)
        fresh = defaultdict(list)  # each ideal of the next layer: its lower covers
        for i in range(start, end):
            m = masks[i]
            outside = ~m
            for d, bit in items:
                if d & outside == bit:
                    fresh[m | bit].append(i)
                    covers += 1
                    if end + len(fresh) > cap:
                        _check_capacity(end + len(fresh), "order ideal enumeration")
            if covers > 2 * cap:
                _check_capacity((covers + 1) // 2, "order ideal cover pairs")
        # descending on the bits read from element 0 up: a smaller first
        # differing element comes first
        grown = sorted(fresh, key=lambda g: format(g, f"0{n}b")[::-1], reverse=True)
        masks += grown
        lower += map(tuple, map(fresh.pop, grown))  # each list goes as its tuple is made
        start = end
    return masks, lower


def _members(mask: int, n: int) -> list[int]:
    return [e for e in range(n) if (mask >> e) & 1]


def order_ideals(p: FinitePoset) -> list[frozenset[int]]:
    """All order ideals (down-closed subsets), by size, then lexicographically."""
    return [frozenset(_members(m, p.n)) for m in _ideals(p.order_relation())[0]]


def order_ideal_lattice(p: FinitePoset) -> FinitePoset:
    """Distributive lattice of order ideals, ordered by containment.

    Ideal i of J is the i-th of `order_ideals(p)`, so the walk's lower lists
    are handed to J as they are (`_from_graded`, whose ranks are the ideal
    sizes), and J's `order`, by level (the ideal's size), then index, is
    range(|J|).  J names an ideal by its elements' labels, on the first
    read of its `labels`.  p records the J returned, with the ideals as
    bitmasks, and `toggle_symmetry_check` and linear extension counts on p
    read them, or call this to record them (see `_lattice_of`).
    """
    masks, lower = _ideals(p.order_relation())
    name = partial(_ideal_label, tuple(map(p.label, range(p.n))))
    lattice = _from_graded(lower, Counter(map(int.bit_count, masks)).values(), masks, name)
    object.__setattr__(p, "_lattice", (lattice, masks))
    return lattice


def _ideal_label(names, mask: int) -> str:
    """The label of the ideal `mask` in J(P), P's elements named by `names`."""
    return "{" + ",".join(map(names.__getitem__, _members(mask, len(names)))) + "}"


def _lattice_of(p: FinitePoset) -> tuple[FinitePoset, list[int]]:
    """(J, masks) as `order_ideal_lattice` recorded them on p, while J's
    ideals and half its covers fit the current capacity bound; else it
    records them now.  The ideal walk charges both as it grows, so a p with
    none recorded, or one over the bound, walks and is refused as a fresh
    equal poset would be."""
    kept = p._lattice
    bound = capacity()
    if kept is None or kept[0].n > bound or sum(kept[0].down_degrees()) > 2 * bound:
        order_ideal_lattice(p)
        kept = p._lattice
    return kept


def toggle_symmetry_check(base: FinitePoset, m: int) -> bool:
    """In the ideal lattice of `base`, check that under the m-multichain
    distribution each base element is as likely to be maximal in the ideal as
    minimal in its complement.

    A cover of ideal i by ideal j = i + e says e is maximal in j and minimal
    in the complement of i, and every such incidence is one cover.  m is
    checked before the walk.  The covers and masks are those of the J that
    `order_ideal_lattice(base)` recorded, recorded here when base has none
    (see `_lattice_of`), and the counts are read from J's kept chain table.
    """
    _require_nonempty(base)
    (m,) = _multichain_sizes((m,))
    lattice, masks = _lattice_of(base)
    counts = multichain_counts(lattice, m)
    balance = [0] * base.n
    for j, lows in enumerate(lattice.lower_covers):
        for i in lows:
            balance[(masks[j] ^ masks[i]).bit_length() - 1] += counts[j] - counts[i]
    return not any(balance)


# ---------------------------------------------------------------------------
# isomorphism machinery


def _refine_colors(p: FinitePoset, q: FinitePoset):
    """Colour refinement of p and q from one colour, with one palette, so a
    colour names the same class in both: the first round splits the
    elements by their down- and up-degrees, and each later round by the
    colours of their lower and upper covers, until no class splits."""
    colors = [[0] * p.n, [0] * q.n]
    while True:
        sigs = [
            [
                (
                    c[x],
                    tuple(sorted(c[z] for z in r.lower_covers[x])),
                    tuple(sorted(c[z] for z in r.upper_covers[x])),
                )
                for x in range(r.n)
            ]
            for r, c in zip((p, q), colors)
        ]
        palette = {s: i for i, s in enumerate(sorted(set().union(*sigs)))}
        new = [[palette[s] for s in sig] for sig in sigs]
        if new == colors:
            return colors
        colors = new


def is_isomorphic(p: FinitePoset, q: FinitePoset) -> bool:
    """Backtracking isomorphism test after colour refinement of both posets
    with one palette, so posets whose colour multisets differ are told
    apart before any search.

    Raises CapacityError when the search visits more nodes than the
    capacity bound.
    """
    if p.n != q.n or sum(p.down_degrees()) != sum(q.down_degrees()):
        return False
    cp, cq = _refine_colors(p, q)
    if sorted(cp) != sorted(cq):
        return False
    by_color_q = {}
    for y, c in enumerate(cq):
        by_color_q.setdefault(c, []).append(y)
    order = sorted(range(p.n), key=lambda x: (len(by_color_q[cp[x]]), cp[x], x))
    q_lower = [set(s) for s in q.lower_covers]
    mapping = {}
    used = set()

    def fits(x: int, y: int) -> bool:
        return (
            y not in used
            and all(mapping[z] in q_lower[y] for z in p.lower_covers[x] if z in mapping)
            and all(y in q_lower[mapping[z]] for z in p.upper_covers[x] if z in mapping)
        )

    cap = capacity()
    nodes = 0
    # stack[k]: the untried candidates for order[k], each tested against
    # the images of order[:k] as it is drawn
    stack = []
    while len(stack) < p.n:
        nodes += 1  # one node per level entered
        if nodes > cap:
            _check_capacity(nodes, "isomorphism search")
        x = order[len(stack)]
        stack.append(filter(partial(fits, x), by_color_q[cp[x]]))
        while (y := next(stack[-1], None)) is None:
            stack.pop()
            if not stack:
                return False
            x = order[len(stack) - 1]  # back one level: undo its image
            used.remove(mapping.pop(x))
        mapping[x] = y
        used.add(y)
    return True


def canonical_key(p: FinitePoset) -> tuple:
    """Canonical form for small posets: the lexicographically least sorted
    cover list over all n! relabelings, tried exhaustively once n! fits the
    capacity bound."""
    return _canonical_key(p.n, p.covers)


def _canonical_key(n: int, covers) -> tuple:
    """canonical_key of the poset on n elements with these covers, unbuilt."""
    _check_count(n, f"{n}!", lambda: factorial(n), "canonical_key relabelings")
    best = None
    for perm in permutations(range(n)):
        relabeled = tuple(sorted((perm[a], perm[b]) for a, b in covers))
        if best is None or relabeled < best:
            best = relabeled
    return (n, best)


def self_dual_regular_check(p: FinitePoset) -> Fraction | None:
    """If p is self-dual and its Hasse diagram is regular of valence D,
    return D/2 (which is then the down-degree expectation under any of the
    distributions in play); otherwise return None."""
    _require_nonempty(p)
    degrees = {p.down_degree(x) + len(p.upper_covers[x]) for x in range(p.n)}
    if len(degrees) != 1:
        return None
    if not is_isomorphic(p, dual(p)):
        return None
    return Fraction(degrees.pop(), 2)


# ---------------------------------------------------------------------------
# linear extensions and quotients


def is_forest(p: FinitePoset) -> bool:
    """Each element covered by at most one other element."""
    return all(len(p.upper_covers[x]) <= 1 for x in range(p.n))


def _down_set_sizes(p: FinitePoset) -> list[int]:
    """The size of each element's down-set, for a forest only.  In a forest
    no element lies below two lower covers of x, so the down-set of x is x
    and the disjoint down-sets of its lower covers, all sized before x."""
    sizes = [1] * p.n
    for x in p.order:
        for z in p.lower_covers[x]:
            sizes[x] += sizes[z]
    return sizes


def linear_extension_count(p: FinitePoset) -> int:
    """Number of linear extensions.

    Forest posets use the hook-length product formula, with the down-set
    sizes as hook lengths; everything else falls back to a DP over order
    ideals (counting maximal chains of J(P)).
    """
    if is_forest(p):
        return _hook_quotient(p.n, _down_set_sizes(p))
    return _linear_extensions_by_ideals(p)


def _linear_extensions_by_ideals(p: FinitePoset) -> int:
    """Maximal chains of J(P): paths from the empty ideal to the full one,
    on the lower covers of the J that `order_ideal_lattice(p)` recorded (see
    `_lattice_of`)."""
    paths = [1]
    for lows in _lattice_of(p)[0].lower_covers[1:]:
        paths.append(sum(map(paths.__getitem__, lows)))
    return paths[-1]


def forest_merge_ratio(p: FinitePoset, i: int, j: int) -> Fraction:
    """For a forest poset and a cover i < j, the ratio of linear extension
    counts of the merged poset to the original, via telescoped hook products."""
    if not is_forest(p):
        raise MalformedInputError("forest_merge_ratio needs a forest poset")
    if (i, j) not in p.covers:
        raise NotCoverError(f"{(i, j)} is not a cover")
    sizes = _down_set_sizes(p)
    up = p.upper_covers
    above = [j]  # the elements above i: the one path up from j
    while up[above[-1]]:
        above.append(up[above[-1]][0])
    alpha = {k for k in above if k == j or len(p.lower_covers[k]) > 1}
    beta = [k for k in above if not up[k] or up[k][0] in alpha]
    return Fraction(
        sizes[i] * prod(sizes[k] for k in beta),
        p.n * prod(sizes[k] - 1 for k in alpha),
    )


def quotient_cover(p: FinitePoset, i: int, j: int) -> FinitePoset:
    """Merge the cover pair i < j into a single element and return the
    quotient poset on n-1 elements."""
    if (i, j) not in p.covers:
        raise NotCoverError(f"{(i, j)} is not a cover")
    masks = p.order_relation()
    keep = [x for x in range(p.n) if x != j]
    low = (1 << j) - 1
    down = []
    for y in keep:
        # x <= y in the quotient iff x <= y originally, or the chain may hop
        # through the merged pair: x <= j and i <= y
        mask = masks[y] | (masks[j] if (masks[y] >> i) & 1 else 0)
        mask &= ~(1 << j)
        down.append(mask & low | mask >> 1 & ~low)  # renumber past j as keep does
    labels = None
    if p.labels is not None:
        labels = [
            p.label(x) if x != i else f"{p.label(i)}={p.label(j)}" for x in keep
        ]
    return _from_order(down, labels)


# ---------------------------------------------------------------------------
# aggregate statistics and file format


@dataclass(frozen=True)
class PosetStats:
    EX: Fraction
    EY: Fraction
    edge_count: int
    maximal_chain_count: int
    rank: int | None

    @property
    def is_CDE(self) -> bool:
        return self.EX == self.EY


def stats(p: FinitePoset) -> PosetStats:
    _require_nonempty(p)
    up, down, weighted = _chain_counts(p.lower_covers, p.order)
    # down[x] of a minimal x counts the maximal chains with bottom x
    chains = sum(d for d, lows in zip(down, p.lower_covers) if not lows)
    # Σ up·down counts each maximal chain once per element on it, so it
    # reaches (longest length)·chains exactly when every maximal chain is longest
    through = sum(map(mul, up, down))
    top = max(p.level)
    edges = sum(p.down_degrees())
    return PosetStats(
        EX=Fraction(edges, p.n),
        EY=Fraction(weighted, through),
        edge_count=edges,
        maximal_chain_count=chains,
        rank=top if through == (top + 1) * chains else None,
    )


def load_poset(text: str) -> FinitePoset:
    """Parse the line-oriented poset format:

        n <count>
        cover <a> <b>
        label <a> <string>

    Blank lines and lines starting with '#' are ignored.  There is one `n`
    line, `n` and `cover` lines carry exactly their integers, every cover
    and label names elements of 0..n-1, and each element gets at most one
    label; any other line raises MalformedInputError naming it.  The result
    is validated before being returned.
    """
    n = None
    covers = {}  # cover -> the first line that gives it
    labels = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *args = line.split()
        if kind not in ("n", "cover", "label"):
            raise MalformedInputError(f"line {lineno}: unknown directive {kind!r}")
        if kind == "n" and n is not None:
            raise MalformedInputError(f"line {lineno}: second 'n' line")
        try:
            if kind == "label":
                x = int(args[0])
                if x in labels:
                    raise MalformedInputError(f"line {lineno}: second label for element {x}")
                labels[x] = (lineno, " ".join(args[1:]))
            elif len(args) != (1 if kind == "n" else 2):
                raise ValueError("wrong number of integers")
            elif kind == "n":
                n = int(args[0])
            else:
                covers.setdefault((int(args[0]), int(args[1])), lineno)
        except (IndexError, ValueError) as exc:
            raise MalformedInputError(f"line {lineno}: cannot parse {raw!r}") from exc
    if n is None:
        raise MalformedInputError("missing 'n <count>' line")
    for x, (lineno, _) in labels.items():
        if not 0 <= x < n:
            raise MalformedInputError(f"line {lineno}: label for element {x} outside 0..{n - 1}")
    for (a, b), lineno in covers.items():
        if not (0 <= a < n and 0 <= b < n):
            raise MalformedInputError(f"line {lineno}: cover {(a, b)} out of range")
    label_list = None
    if labels:
        label_list = [labels[x][1] if x in labels else str(x) for x in range(n)]
    return FinitePoset(n, covers.keys(), label_list)


def dump_poset(p: FinitePoset) -> str:
    lines = [f"n {p.n}"]
    lines += [f"cover {a} {b}" for a, b in sorted(p.covers)]
    if p.labels is not None:
        lines += [f"label {x} {p.labels[x]}" for x in range(p.n)]
    return "\n".join(lines) + "\n"
