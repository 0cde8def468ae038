"""Independent brute-force oracles for the test suite.

Everything here shares no code with the library, and all of it but
frontier_ssyt_by_total is deliberately naive: these routines define the
expected values that the fast implementations are checked against.
frontier_ssyt_by_total is a transfer-matrix count by a route of its own, for
flagged tableaux too many to list.
"""

from fractions import Fraction
from itertools import combinations, islice, permutations, product, zip_longest
from math import comb
from operator import mul


def set_partitions_into(n: int, j: int) -> int:
    """Count partitions of {0..n-1} into exactly j nonempty blocks by
    enumerating block assignments in restricted-growth form."""

    def grow(k, used):
        if k == n:
            return 1 if used == j else 0
        total = used * grow(k + 1, used)  # join one of the existing blocks
        if used < j:
            total += grow(k + 1, used + 1)  # open a new block
        return total

    if n == 0:
        return 1 if j == 0 else 0
    return grow(1, 1)


def subpartitions(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All partitions contained in `shape`, by direct recursive enumeration."""
    out = []

    def rec(i, cap, acc):
        out.append(tuple(acc))
        if i < len(shape):
            for part in range(1, min(shape[i], cap) + 1):
                acc.append(part)
                rec(i + 1, part, acc)
                acc.pop()

    rec(0, shape[0] if shape else 0, [])
    return sorted(set(out))


def interval(shape: tuple[int, ...], strict: bool = False):
    """The interval below `shape`: its subpartitions (only those with
    distinct parts when `strict`) sorted by (size, parts), and the covers
    (i, j) where element j is element i plus one cell."""
    elements = [m for m in subpartitions(shape) if not strict or len(set(m)) == len(m)]
    elements.sort(key=lambda m: (sum(m), m))

    def inside(small, big):
        return len(small) <= len(big) and all(a <= b for a, b in zip(small, big))

    covers = {
        (i, j)
        for i, small in enumerate(elements)
        for j, big in enumerate(elements)
        if sum(big) == sum(small) + 1 and inside(small, big)
    }
    return elements, covers


def standard_tableaux(shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """All standard Young tableaux of `shape`, values 1..n, by placing values
    in increasing order into cells whose left and upper neighbours are full."""
    n = sum(shape)
    rows = [[0] * r for r in shape]
    fill = [0] * len(shape)  # cells filled so far per row
    out = []

    def rec(v):
        if v > n:
            out.append(tuple(tuple(r) for r in rows))
            return
        for i in range(len(shape)):
            j = fill[i]
            if j >= shape[i]:
                continue
            if i > 0 and fill[i - 1] <= j:
                continue
            rows[i][j] = v
            fill[i] += 1
            rec(v + 1)
            fill[i] -= 1

    rec(1)
    return out


def standard_barely_set_valued(shape):
    """All standard barely set-valued tableaux of `shape` (values 1..n+1, one
    cell holding two of them), enumerated by increasing-value placement.

    A value may enter cell (i,j) only if the left and upper neighbours already
    hold something and the right and lower neighbours are still empty.
    """
    n = sum(shape)
    cells = [(i, j) for i, r in enumerate(shape) for j in range(r)]
    out = []

    for double in cells:
        content = {c: [] for c in cells}

        def ok(i, j):
            if j > 0 and not content[(i, j - 1)]:
                return False
            if i > 0 and j < shape[i - 1] and not content[(i - 1, j)]:
                return False
            if j + 1 < shape[i] and content[(i, j + 1)]:
                return False
            if i + 1 < len(shape) and j < shape[i + 1] and content[(i + 1, j)]:
                return False
            return True

        def rec(v):
            if v > n + 1:
                out.append(
                    tuple(
                        tuple(tuple(content[(i, j)]) for j in range(shape[i]))
                        for i in range(len(shape))
                    )
                )
                return
            for (i, j) in cells:
                cap = 2 if (i, j) == double else 1
                if len(content[(i, j)]) >= cap:
                    continue
                if not ok(i, j):
                    continue
                content[(i, j)].append(v)
                rec(v + 1)
                content[(i, j)].pop()

        rec(1)
    # keep only fillings where the doubled cell really got two values
    return sorted(t for t in set(out) if any(len(c) == 2 for r in t for c in r))


def column_strict_tableaux(shape, bound):
    """All column-strict fillings with entries <= bound (row-constant bound)."""
    rows = [[0] * r for r in shape]
    out = []

    def rec(i, j):
        if i == len(shape):
            out.append(tuple(tuple(r) for r in rows))
            return
        ni, nj = (i, j + 1) if j + 1 < shape[i] else (i + 1, 0)
        lo = 1
        if j > 0:
            lo = max(lo, rows[i][j - 1])
        if i > 0:
            lo = max(lo, rows[i - 1][j] + 1)
        for v in range(lo, bound + 1):
            rows[i][j] = v
            rec(ni, nj)

    rec(0, 0)
    return out


def set_valued_tableaux(shape, flag, total):
    """All column-strict set-valued tableaux flagged row-wise by `flag` with
    exactly `total` entries, as nested tuples of sorted value tuples."""
    cells = [(i, j) for i, r in enumerate(shape) for j in range(r)]
    out = []
    content = {}

    def rec(k, used):
        if k == len(cells):
            if used == total:
                out.append(
                    tuple(
                        tuple(content[(i, j)] for j in range(shape[i]))
                        for i in range(len(shape))
                    )
                )
            return
        i, j = cells[k]
        lo = 1
        if j > 0:
            lo = max(lo, content[(i, j - 1)][-1])
        if i > 0:
            lo = max(lo, content[(i - 1, j)][-1] + 1)
        hi = flag[i]
        remaining_cells = len(cells) - k - 1
        max_size = total - used - remaining_cells
        if max_size < 1:
            return
        pool = list(range(lo, hi + 1))
        for size in range(1, min(max_size, len(pool)) + 1):
            for combo in combinations(pool, size):
                content[(i, j)] = combo
                rec(k + 1, used + size)
        content.pop((i, j), None)

    rec(0, 0)
    return sorted(out)


def _accumulate(counts, key, vec):
    """Add the count vector `vec` into counts[key]; vectors are never
    changed in place, so one may be stored under several keys."""
    old = counts.get(key)
    counts[key] = vec if old is None else [a + b for a, b in zip(old, vec)]


def frontier_ssyt_by_total(shape, flag, max_total):
    """Counts of column-strict set-valued tableaux of the partition `shape`,
    flagged row-wise by `flag` (positive, at least one bound per row), keyed
    by total entry count up to `max_total`, one cell at a time.

    Not a brute force: a transfer-matrix pass that fills the cells in
    row-major order, so it reaches shapes and flags far past what
    set_valued_tableaux can list, by a route that shares nothing with the
    library's pass over the values.  The state is the frontier: one cell
    maximum per column of the current row, the new row's values left of the
    next cell and the row above's values from it on.  A column that no later
    cell reads is reset to 0, so that states which differ only there merge.
    Each state carries a vector of counts indexed by the extra entries so far
    (entries minus cells placed, at most `max_total` minus the number of
    cells).

    A cell whose entries must be at least lo (the maximum to its left, one
    more than the maximum above it) and whose maximum is v holds v and any
    subset of lo..v-1, so it multiplies the vector, read as a polynomial in
    y, by (1 + y)^(v - lo), truncated.  Frontiers that differ only in the
    value above the cell are swept together over v, one factor (1 + y) per
    step.
    """
    shape = tuple(shape)
    rows = len(shape)
    if rows == 0:
        return {0: 1} if max_total >= 0 else {}
    flag = tuple(flag)[:rows]
    ncells = sum(shape)
    if max_total < ncells:
        return {}
    states = {(0,) * shape[0]: [1] + [0] * (max_total - ncells)}
    for i in range(rows):
        keep = shape[i + 1] if i + 1 < rows else 0
        for j in range(shape[i]):
            # A cell with a cell below it leaves room for a larger maximum there.
            hi = min(flag[i], flag[i + 1] - 1) if j < keep else flag[i]
            columns = {}
            for front, vec in states.items():
                columns.setdefault((front[:j], front[j + 1 :]), []).append((front[j], vec))
            nxt = {}
            for (head, tail), column in columns.items():
                left = head[-1] if j else 0
                if j > keep:
                    head = head[:-1] + (0,)
                entering = {}
                for above, vec in column:
                    _accumulate(entering, max(left, above + 1), vec)
                start = min(entering)
                sweep = entering[start]
                for v in range(start, hi + 1):
                    if v > start:  # one more factor (1 + y)
                        sweep = sweep[:1] + [a + b for a, b in zip(sweep[1:], sweep)]
                        if v in entering:
                            sweep = [a + b for a, b in zip(sweep, entering[v])]
                    _accumulate(nxt, head + (v,) + tail, sweep)
            states = nxt
        # The next row reads only the columns it sits under.
        truncated = {}
        for front, vec in states.items():
            _accumulate(truncated, front[:keep], vec)
        states = truncated
    vec = states.get((), ())
    return {ncells + e: c for e, c in enumerate(vec) if c}


def multichains_through(leq, n, m):
    """For a poset given by its reflexive order relation `leq` (dict of sets),
    count for each element the m-element multichains containing it, by
    explicit enumeration of weakly increasing sequences."""
    counts = [0] * n
    seq = [0] * m

    def rec(k):
        if k == m:
            for e in set(seq):
                counts[e] += 1
            return
        if k == 0:
            choices = range(n)
        else:
            prev = seq[k - 1]
            choices = [y for y in range(n) if y in leq[prev]]
        for y in choices:
            seq[k] = y
            rec(k + 1)

    rec(0)
    return counts


def chain_table(p, size: int) -> list[list[int]]:
    """Row e: a(e, k), the number of k-element chains through e, for
    k = 1..size (shorter when no longer chain passes through e).

    A chain through e is a chain with top e joined at e to a chain with
    bottom e, so row e is the convolution of the two, truncated at `size`.
    The library's earlier list-convolution table, kept as the oracle for
    its packed-integer successor: rows as lists, summed column by column.
    It reads only the poset's topological order and cover lists.
    """
    order = p.topological_order()
    ends = []
    for walk, covers in ((order, p.lower_covers), (order[::-1], p.upper_covers)):
        # rows[x][k-1]: the k-element chains whose last element in `walk` is x
        passed = [None] * p.n
        rows = [None] * p.n
        for x in walk:
            near = covers[x]
            strict = passed[x] = set(near).union(*map(passed.__getitem__, near))
            sums = zip_longest(*map(rows.__getitem__, strict), fillvalue=0)
            rows[x] = [1, *map(sum, islice(sums, size - 1))]
        ends.append(rows)
    table = []
    for top, bottom in zip(*ends):
        width = min(size, len(top) + len(bottom) - 1)
        top += [0] * (width - len(top))
        bottom += [0] * (width - len(bottom))
        table.append([sum(map(mul, top[: k + 1], bottom[k::-1])) for k in range(width)])
    return table


def order_ideals(covers, n) -> list[frozenset[int]]:
    """All order ideals of the poset on 0..n-1 with the given covers: each of
    the 2^n subsets, by size and then lexicographically, kept when no cover
    leads down out of it."""
    out = []
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            chosen = set(subset)
            if all(a in chosen for a, b in covers if b in chosen):
                out.append(frozenset(chosen))
    return out


def hasse_reduction(rel) -> set[tuple[int, int]]:
    """The covers of a strict order given as an n x n boolean matrix: the
    pairs a < b with no z in between, by the triple loop."""
    n = len(rel)
    return {
        (a, b)
        for a in range(n)
        for b in range(n)
        if rel[a][b] and not any(rel[a][z] and rel[z][b] for z in range(n))
    }


def quotient_covers(covers, n, i, j) -> set[tuple[int, int]]:
    """The covers of the poset with the cover i < j merged into i, on the
    elements other than j numbered in order: x <= y afterwards iff x <= y
    before, or x <= j and i <= y.  The order is closed by Warshall's loop."""
    leq = [[x == y or (x, y) in covers for y in range(n)] for x in range(n)]
    for z in range(n):
        for x in range(n):
            for y in range(n):
                leq[x][y] = leq[x][y] or (leq[x][z] and leq[z][y])
    keep = [x for x in range(n) if x != j]
    rel = [[x != y and (leq[x][y] or (leq[x][j] and leq[i][y])) for y in keep] for x in keep]
    return hasse_reduction(rel)


def noninversion_covers(w) -> set[tuple[int, int]]:
    """The covers of the order on 0..n-1 keeping a < b when the values a+1
    and b+1 appear in that order in w."""
    n = len(w)
    pos = {v: k for k, v in enumerate(w)}
    rel = [[a < b and pos[a + 1] < pos[b + 1] for b in range(n)] for a in range(n)]
    return hasse_reduction(rel)


def linear_extensions(covers, n) -> int:
    """Count linear extensions by brute-force permutation filtering for tiny
    posets (n <= 8)."""
    rel = {(a, b) for a, b in covers}
    # transitive closure
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    count = 0
    for perm in permutations(range(n)):
        pos = {e: i for i, e in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in rel):
            count += 1
    return count


def hecke_words_bruteforce(w: tuple[int, ...], L: int) -> list[tuple[int, ...]]:
    """All words in {1..n-1}^L whose 0-Hecke product is w, by full enumeration."""
    n = len(w)

    def prod(word):
        cur = tuple(range(1, n + 1))
        for s in word:
            if cur[s - 1] < cur[s]:
                cur = cur[: s - 1] + (cur[s], cur[s - 1]) + cur[s + 1 :]
        return cur

    return [word for word in product(range(1, n), repeat=L) if prod(word) == w]


def hecke_weight_tables(n: int, max_L: int) -> list[dict[tuple[int, ...], tuple[int, ...]]]:
    """tables[L] maps each permutation of 1..n reachable by a length-L word
    to the coefficients, constant term first, of the sum of prod (x + letter)
    over those words.  Built level by level over all of S_n, applying every
    letter to every product of the level below."""

    def times_x_plus(coeffs, s):
        out = [0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            out[k] += s * c
            out[k + 1] += c
        return out

    tables = [{tuple(range(1, n + 1)): (1,)}]
    for _ in range(max_L):
        level = {}
        for u, coeffs in tables[-1].items():
            for s in range(1, n):
                v = u[: s - 1] + (u[s], u[s - 1]) + u[s + 1 :] if u[s - 1] < u[s] else u
                term = times_x_plus(coeffs, s)
                old = level.get(v, [0] * len(term))
                level[v] = [a + b for a, b in zip(old, term)]
        tables.append({v: tuple(c) for v, c in level.items()})
    return tables


def expectation_of(values, weights) -> Fraction:
    num = sum(Fraction(v) * wt for v, wt in zip(values, weights))
    den = sum(Fraction(wt) for wt in weights)
    return num / den


def rect_staircase(d: int, a: int, b: int) -> tuple[int, ...]:
    """The staircase (d-1, ..., 1) with every cell blown up to an a x b
    block: row i has b times the staircase row i // a."""
    return tuple(b * (d - 1 - i // a) for i in range(a * (d - 1)))


def rect_staircase_params(shape) -> list[tuple[int, int, int]]:
    """All (d, a, b) with d >= 2 whose staircase-of-rectangles equals shape,
    by searching every d whose C(d, 2) divides |shape| and every divisor a."""
    shape = tuple(shape)
    total = sum(shape)
    out = []
    for d in range(2, total + 2):
        if comb(d, 2) == 0 or total % comb(d, 2):
            continue
        rest = total // comb(d, 2)
        for a in range(1, rest + 1):
            if rest % a:
                continue
            b = rest // a
            if rect_staircase(d, a, b) == shape:
                out.append((d, a, b))
    return out


def triangulations(n: int) -> list[tuple[tuple[int, int], ...]]:
    """The triangulations of the convex n-gon on vertices 1..n as sorted
    diagonal tuples, in lexicographic order: every set of n-3 pairwise
    noncrossing diagonals, found by backtracking over the diagonal list.
    The library's earlier Tamari builder, kept as the oracle for the
    construction by apex."""
    diagonals = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 2, n + 1)
        if not (i == 1 and j == n)
    ]

    def crosses(d1, d2):
        i, j = d1
        k, l = d2
        return (i < k < j < l) or (k < i < l < j)

    out = []

    def backtrack(start, acc):
        if len(acc) == n - 3:
            out.append(tuple(acc))
            return
        for t in range(start, len(diagonals)):
            cand = diagonals[t]
            if all(not crosses(cand, d) for d in acc):
                acc.append(cand)
                backtrack(t + 1, acc)
                acc.pop()

    backtrack(0, [])
    return out


def tamari_covers(n: int):
    """The covers and labels of the Tamari lattice on the triangulations of
    the convex n-gon, numbered as `triangulations(n)` lists them.  For each
    diagonal, the scans over every vertex find the apexes of its two
    triangles, and the flip of the sorted quadrangle p < q < r < s from
    {p,r} to {q,s} is a cover.  The library's earlier Tamari flip loop, kept
    as the oracle for the flips read from common neighbours."""
    tris = triangulations(n)
    index = {t: i for i, t in enumerate(tris)}
    boundary = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    covers = set()
    for t in tris:
        edges = boundary | set(t)
        for diag in t:
            a, c = diag
            inner = [
                b
                for b in range(a + 1, c)
                if (min(a, b), max(a, b)) in edges and (min(b, c), max(b, c)) in edges
            ]
            outer = [
                b
                for b in list(range(1, a)) + list(range(c + 1, n + 1))
                if (min(a, b), max(a, b)) in edges and (min(b, c), max(b, c)) in edges
            ]
            if len(inner) != 1 or len(outer) != 1:
                continue
            p_, q_, r_, s_ = sorted([a, c, inner[0], outer[0]])
            if diag == (p_, r_):
                flipped = tuple(sorted(set(t) - {diag} | {(q_, s_)}))
                covers.add((index[t], index[flipped]))
    labels = tuple("{" + ",".join(f"{i}-{j}" for i, j in t) + "}" for t in tris)
    return covers, labels


def longest_chain_below(p) -> list[int]:
    """For each element x, the number of covers on the longest chain from a
    minimal element up to x, by depth-first search over every downward path
    along lower covers."""

    def deepest(x):
        return max((1 + deepest(z) for z in p.lower_covers[x]), default=0)

    return [deepest(x) for x in range(p.n)]


def maximal_chain_lengths(p) -> set[int]:
    """The element counts of the maximal chains of p, by depth-first search
    from each minimal element along upper covers to the maximal ones."""
    lengths = set()

    def climb(x, k):
        if not p.upper_covers[x]:
            lengths.add(k)
        for y in p.upper_covers[x]:
            climb(y, k + 1)

    for x in range(p.n):
        if not p.lower_covers[x]:
            climb(x, 1)
    return lengths


def maximal_chain_count(covers, n) -> int:
    """The number of maximal chains of the poset on 0..n-1 with these cover
    pairs, by depth-first search from each minimal element up along the
    pairs to the maximal ones."""
    above = [[b for a, b in covers if a == x] for x in range(n)]
    minimal = set(range(n)) - {b for _, b in covers}

    def climb(x):
        return sum(map(climb, above[x])) if above[x] else 1

    return sum(map(climb, minimal))


def slicing_weak_walk(w):
    """(elements, below, down) of the weak interval below w, walked down by
    descents breadth first, each step u * s sliced and concatenated: elements
    starts with w, below[i] indexes the lower covers of elements[i], and
    down[i] counts the paths from w down to elements[i].  The library's
    earlier walk, kept as the oracle for its upward walk."""
    n = len(w)
    elements = [w]
    index = {w: 0}
    below = []
    down = [1]
    for i, u in enumerate(elements):
        lower = []
        for s in range(1, n):
            if u[s - 1] > u[s]:
                v = u[: s - 1] + (u[s], u[s - 1]) + u[s + 1 :]
                j = index.get(v)
                if j is None:
                    j = index[v] = len(elements)
                    elements.append(v)
                    down.append(0)
                down[j] += down[i]
                lower.append(j)
        below.append(tuple(lower))
    return tuple(elements), tuple(below), tuple(down)


def member_set_expectation_X(elements) -> Fraction:
    """The edge density of the weak interval whose members are `elements`,
    w first, by the complementary count: each ascent step u * s whose result
    is not in the member set leaves the interval.  The library's earlier
    count, kept as the oracle for its inversion test."""
    members = set(elements)
    n = len(elements[0])
    missing = 0
    for u in members:
        for s in range(1, n):
            if u[s - 1] < u[s] and u[: s - 1] + (u[s], u[s - 1]) + u[s + 1 :] not in members:
                missing += 1
    return Fraction(1, 2) * ((n - 1) - Fraction(missing, len(members)))


def sorted_walk(walk):
    """(elements, below, down) of a finished walk, its elements in one global
    sort by (length, one-line notation): the identity first and w last.
    below[i] keeps the walk's own order, one lower cover per descent of
    elements[i] in increasing order, and down[i] still counts the paths from w
    down to elements[i].  The library's earlier ordering, kept as the oracle
    for its rank-by-rank sort."""
    elements, below, down = walk
    depth = [0] * len(below)
    for i, lower in enumerate(below):
        for j in lower:
            depth[j] = depth[i] + 1
    ordered = sorted(range(len(elements)), key=lambda i: (-depth[i], elements[i]))
    position = {i: k for k, i in enumerate(ordered)}
    return (
        tuple(elements[i] for i in ordered),
        tuple(tuple(position[j] for j in below[i]) for i in ordered),
        tuple(down[i] for i in ordered),
    )


def sorted_walk_poset(walk):
    """(n, covers, labels) of the weak interval of a finished walk, laid out
    by `sorted_walk`, labels run together up to n = 9 and comma separated
    beyond."""
    elements, below, _ = sorted_walk(walk)
    covers = {(j, i) for i, lower in enumerate(below) for j in lower}
    sep = "" if len(elements[0]) <= 9 else ","
    return len(elements), covers, [sep.join(map(str, u)) for u in elements]


def contains_pattern(w, pattern) -> bool:
    """Whether some entries of w, taken left to right at positions
    i_1 < ... < i_k, stand in the relative order of `pattern`: every k
    positions are tried."""
    k = len(pattern)
    for positions in combinations(range(len(w)), k):
        entries = [w[i] for i in positions]
        ranks = tuple(sorted(entries).index(v) + 1 for v in entries)
        if ranks == tuple(pattern):
            return True
    return False


def permutation_class(w):
    """(vexillary, dominant, grassmannian, inverse_grassmannian, shape) of w
    by definition: vexillary avoids 2143 and dominant avoids 132, the
    Grassmannian flags count the descents of w and of its inverse, and the
    shape, present when vexillary, is the sorted nonzero entries of the code
    c_i = #{j > i : w(j) < w(i)}."""
    n = len(w)
    inv = [0] * n
    for i, v in enumerate(w):
        inv[v - 1] = i + 1
    vexillary = not contains_pattern(w, (2, 1, 4, 3))
    code = [sum(1 for j in range(i + 1, n) if w[j] < w[i]) for i in range(n)]
    shape = tuple(sorted((c for c in code if c), reverse=True)) if vexillary else None
    return (
        vexillary,
        not contains_pattern(w, (1, 3, 2)),
        sum(1 for i in range(n - 1) if w[i] > w[i + 1]) <= 1,
        sum(1 for i in range(n - 1) if inv[i] > inv[i + 1]) <= 1,
        shape,
    )


def left_inversions(w) -> frozenset[tuple[int, int]]:
    """Value pairs (a, b), a < b, that w puts out of order, every pair
    tried.  u <= w in right weak order exactly when the pairs of u lie
    among those of w."""
    n = len(w)
    pos = {v: i for i, v in enumerate(w)}
    return frozenset(
        (a, b) for a in range(1, n) for b in range(a + 1, n + 1) if pos[a] > pos[b]
    )


def rothe_flag(w) -> tuple[int, ...]:
    """The row flag of a vexillary w read off its Rothe diagram, the cells
    (i, j) with w(i) > j and w^-1(j) > i.  The shape is the diagram's row
    lengths, sorted; mu_r is the largest column of a cell in rows r and
    below.  Row i of the shape, whose last cell has content d = shape_i - i,
    takes the last r >= max(1, 1 - d) in the run with r + d <= mu_r.  The
    library's earlier rule, kept as the oracle for its code-based flag."""
    n = len(w)
    pos = {v: i + 1 for i, v in enumerate(w)}
    diagram = [
        (i, j) for i in range(1, n + 1) for j in range(1, n + 1) if w[i - 1] > j and pos[j] > i
    ]
    row_len = [0] * (n + 1)
    row_max = [0] * (n + 2)
    for i, j in diagram:
        row_len[i] += 1
        row_max[i] = max(row_max[i], j)
    shape = sorted((c for c in row_len if c), reverse=True)
    mu = row_max[:]
    for i in range(n, 0, -1):
        mu[i] = max(mu[i], mu[i + 1])
    flag = []
    for i, part in enumerate(shape, start=1):
        d = part - i
        r = max(1, 1 - d)
        best = None
        while r <= n and r + d <= mu[r]:
            best = r
            r += 1
        if best is None:
            raise ValueError(f"no flag for row {i} of {w}")
        flag.append(best)
    return tuple(flag)


def strong_bruhat_covers(n: int) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The covers (u, v) of the strong Bruhat order on the permutations of
    1..n by the length criterion: v is u with two entries u(i) < u(j),
    i < j, swapped, and has exactly one inversion more than u.  The
    library's earlier rule, kept as the oracle for its one-line cover rule."""
    covers = set()
    for u in permutations(range(1, n + 1)):
        for i, j in combinations(range(n), 2):
            if u[i] < u[j]:
                v = list(u)
                v[i], v[j] = v[j], v[i]
                if len(left_inversions(v)) == len(left_inversions(u)) + 1:
                    covers.add((u, tuple(v)))
    return covers
