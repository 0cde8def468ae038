"""Partitions, Young-lattice intervals, and tableau enumeration.

Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ().  Cells and rows are 1-indexed in every public signature, so
an outside corner in row i, column j is written (i, j) exactly as on paper.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations

from .core import IntPolynomial, _hook_quotient, _integers
from .errors import (
    MalformedInputError,
    NotBarelySetValuedError,
    NotCornerError,
    RangeError,
    ReconciliationError,
)
from .poset import FinitePoset, _chain_counts, _check_capacity, _from_graded, _ideals, capacity

__all__ = [
    "check_partition",
    "parse_shape",
    "shape_label",
    "check_strict_partition",
    "transpose",
    "outside_corners",
    "removable_corners",
    "rect_staircase",
    "young_interval",
    "shifted_interval",
    "subpartitions",
    "strict_subpartitions",
    "rank_generating_function",
    "hook_lengths",
    "hook_f",
    "f_plus_one",
    "kerov_mean_zero_check",
    "default_flag",
    "count_ssyt",
    "count_ssyt_by_total",
    "enumerate_ssyt",
    "R_and_Rplus",
    "SetValuedTableau",
    "svt",
    "format_tableau",
    "uncrowd",
    "crowd",
    "enumerate_standard_tableaux",
    "enumerate_standard_barely",
    "standard_to_chain",
    "chain_to_standard",
    "barely_to_triple",
    "triple_to_barely",
    "barely_to_dual_triple",
    "dual_triple_to_barely",
    "flagged_to_partition",
    "partition_to_flagged",
    "flagged_barely_to_cover",
    "cover_to_flagged_barely",
    "hook_content_count",
]


# ---------------------------------------------------------------------------
# partitions


def check_partition(shape) -> tuple[int, ...]:
    shape = _integers(shape, "partition part")
    if shape and min(shape) <= 0:
        raise MalformedInputError(f"partition {shape} has a nonpositive part")
    if list(shape) != sorted(shape, reverse=True):
        raise MalformedInputError(f"partition {shape} is not weakly decreasing")
    return shape


def _ints(text: str, parts, what: str) -> list[int]:
    try:
        return [int(v) for v in parts]
    except ValueError as exc:
        raise MalformedInputError(f"{what} {text!r} is not a list of integers") from exc


def parse_shape(text: str) -> tuple[int, ...]:
    """Read a partition written as a comma or space separated list of parts
    ("3,1", "3 1", "3, 1"); "" and "0" are the empty partition."""
    if text in ("", "0"):
        return ()
    return check_partition(_ints(text, text.replace(",", " ").split(), "shape"))


def shape_label(shape) -> str:
    """The text form read back by parse_shape: "3,1", and "0" for ()."""
    return ",".join(map(str, shape)) if shape else "0"


def check_strict_partition(shape) -> tuple[int, ...]:
    shape = check_partition(shape)
    if any(shape[i] == shape[i + 1] for i in range(len(shape) - 1)):
        raise MalformedInputError(f"{shape} is not strictly decreasing")
    return shape


def transpose(shape) -> tuple[int, ...]:
    shape = tuple(shape)
    if not shape:
        return ()
    return tuple(sum(1 for p in shape if p > i) for i in range(shape[0]))


def outside_corners(shape) -> list[tuple[int, int]]:
    """Addable cells (i, j), 1-indexed, listed top to bottom."""
    shape = tuple(shape)
    out = []
    for i in range(1, len(shape) + 1):
        if i == 1 or shape[i - 1] < shape[i - 2]:
            out.append((i, shape[i - 1] + 1))
    out.append((len(shape) + 1, 1))
    return out


def removable_corners(shape) -> list[tuple[int, int]]:
    """Removable cells (i, j), 1-indexed, listed top to bottom."""
    shape = tuple(shape)
    return [
        (i, shape[i - 1])
        for i in range(1, len(shape) + 1)
        if i == len(shape) or shape[i] < shape[i - 1]
    ]


def add_corner(shape, corner) -> tuple[int, ...]:
    """Add the outside corner (i, j), 1-indexed; NotCornerError otherwise."""
    i, j = corner
    rows = list(shape) + [0]
    if not (1 <= i <= len(rows) and rows[i - 1] + 1 == j and (i == 1 or rows[i - 2] >= j)):
        raise NotCornerError(f"{corner} is not an outside corner of {tuple(shape)}")
    rows[i - 1] += 1
    if rows[-1] == 0:
        rows.pop()
    return tuple(rows)


def remove_corner(shape, corner) -> tuple[int, ...]:
    """Remove the corner (i, j), 1-indexed; NotCornerError otherwise."""
    i, j = corner
    rows = list(shape) + [0]
    if not (1 <= i < len(rows) and rows[i - 1] == j and rows[i] < j):
        raise NotCornerError(f"{corner} is not a removable corner of {tuple(shape)}")
    rows[i - 1] -= 1
    while rows and rows[-1] == 0:
        rows.pop()
    return tuple(rows)


def rect_staircase(d: int, a: int, b: int) -> tuple[int, ...]:
    """Staircase with d-1 steps in which every box becomes an a x b block."""
    d, a, b = _integers((d, a, b), "rect_staircase parameter")
    if d < 1 or a < 1 or b < 1:
        raise MalformedInputError("rect_staircase needs positive d, a, b")
    rows = []
    for block in range(d - 1):
        rows.extend([b * (d - 1 - block)] * a)
    return tuple(rows)


# ---------------------------------------------------------------------------
# Young-lattice intervals


def _diagram_ideals(shape, shifted: bool):
    """The partitions inside `shape`, strict ones when `shifted`, sorted by
    (size, parts), and the lower covers of each, as ascending tuples of
    indices.

    They are the order ideals of the diagram of `shape`, in which cell
    (i, j) lies below (i, j+1) and (i+1, j) and row i of a shifted diagram
    starts in column i.  poset._ideals walks them.  Row i's cells are a run
    of bits of each ideal's mask, and an ideal holds a prefix of each row,
    so the ideal's part in row i is the popcount of that run.
    """
    check = check_strict_partition if shifted else check_partition
    shape = check(shape)
    _check_capacity(sum(shape), "poset elements")  # before the cells are listed
    cells = [(i, i * shifted + j) for i, part in enumerate(shape) for j in range(part)]
    index = {c: e for e, c in enumerate(cells)}
    # down[e]: the cells weakly below cell e, which are e and the cells
    # weakly below its left and upper neighbours, both listed before it
    down = []
    for e, (i, j) in enumerate(cells):
        mask = 1 << e
        for c in ((i, j - 1), (i - 1, j)):
            if c in index:
                mask |= down[index[c]]
        down.append(mask)
    masks, lower = _ideals(down)
    runs = [((1 << part) - 1) << start for start, part in zip(accumulate(shape, initial=0), shape)]
    # the rows an ideal reaches come first, so dropping the empty ones leaves its parts
    parts = [tuple(k for run in runs if (k := (m & run).bit_count())) for m in masks]
    order = sorted(range(len(masks)), key=lambda a: (sum(parts[a]), parts[a]))
    position = {a: k for k, a in enumerate(order)}
    return [parts[a] for a in order], [tuple(sorted(map(position.__getitem__, lower[a]))) for a in order]


def subpartitions(shape) -> list[tuple[int, ...]]:
    """All partitions contained in `shape`, sorted by (size, parts)."""
    return _diagram_ideals(shape, shifted=False)[0]


def _diagram_interval(shape, shifted: bool) -> FinitePoset:
    """The poset of `_diagram_ideals`, whose ranks are the partition sizes."""
    elements, lower = _diagram_ideals(shape, shifted)
    return _from_graded(lower, Counter(map(sum, elements)).values(), elements, shape_label)


def young_interval(shape) -> FinitePoset:
    """The interval below `shape` in the containment order on partitions."""
    return _diagram_interval(shape, shifted=False)


def strict_subpartitions(shape) -> list[tuple[int, ...]]:
    return _diagram_ideals(shape, shifted=True)[0]


def shifted_interval(shape) -> FinitePoset:
    """The interval below a strict partition in the order induced on strict
    partitions by diagram containment."""
    return _diagram_interval(shape, shifted=True)


# ---------------------------------------------------------------------------
# counting by corner recurrences


def rank_generating_function(shape) -> IntPolynomial:
    """Generating function sum_{mu inside shape} q^|mu|, via the outside
    corner recurrence, filled smallest first by `_rank_table`."""
    shape = check_partition(shape)
    return _rank_table(shape)[shape]


def _corner_splits(shape) -> list[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
    """(i, j, the rows under row i, the rows above it right of column j) for
    each outside corner (i, j) of `shape`; both parts are smaller shapes."""
    return [
        (i, j, shape[i:], tuple(r - j for r in shape[: i - 1] if r > j))
        for (i, j) in outside_corners(shape)
    ]


def _rank_table(shape) -> dict[tuple[int, ...], IntPolynomial]:
    """The rank generating function of each subshape the corner recurrence
    reaches from `shape`, with no recursion and no memo between calls.

    A subshape of m cells holds m + 1 coefficients, charged against the
    capacity bound before the recurrence splits it: one row of N cells
    reaches N + 1 subshapes, so the table holds about N^2 / 2 coefficients."""
    cap = capacity()
    terms = 0
    reached, stack = {shape}, [shape]
    while stack:
        sub = stack.pop()
        terms += sum(sub) + 1
        if terms > cap:
            _check_capacity(terms, "rank generating function coefficients")
        for _, _, below, right in _corner_splits(sub):
            for part in {below, right} - reached:
                reached.add(part)
                stack.append(part)
    table = {(): IntPolynomial.one()}
    for sub in sorted(reached - {()}, key=sum):
        total = [0] * (sum(sub) + 1)
        for i, j, below, right in _corner_splits(sub):
            for k, c in enumerate((table[below] * table[right]).coeffs, start=i * (j - 1)):
                total[k] += c
        table[sub] = IntPolynomial(tuple(total))
    return table


def hook_lengths(shape) -> list[list[int]]:
    return _hook_lengths(check_partition(shape))


def _hook_lengths(shape) -> list[list[int]]:
    """hook_lengths of a shape already checked by check_partition."""
    _check_capacity(sum(shape), "hook lengths")  # one per cell, before they are listed
    conj = transpose(shape)
    return [
        [shape[i] + conj[j] - i - j - 1 for j in range(shape[i])]
        for i in range(len(shape))
    ]


def hook_f(shape) -> int:
    """Number of standard Young tableaux, by the hook-length product."""
    return _hook_f(check_partition(shape))


def _hook_f(shape) -> int:
    """hook_f of a shape already checked by check_partition, such as one
    that add_corner returns for a checked shape."""
    hooks = _hook_lengths(shape)
    return _hook_quotient(sum(shape), (h for row in hooks for h in row))


def f_plus_one(shape) -> int:
    """Number of standard barely set-valued tableaux, via the corner
    recurrence sum_x (i-1) f(shape + x)."""
    shape = check_partition(shape)
    return sum((i - 1) * _hook_f(add_corner(shape, (i, j))) for i, j in outside_corners(shape))


def _f_plus_by_chains(shape) -> int:
    """Number of standard barely set-valued tableaux, by chain counts.

    The triple map pairs them with (maximal chain of the interval below
    `shape`, element mu on it, lower cover of mu), so the count is
    sum_mu dd(mu) f^mu f^(shape/mu), the weighted sum of poset._chain_counts
    on the interval's cover lists, read in their (size, parts) order.
    """
    lower = _diagram_ideals(shape, shifted=False)[1]
    return _chain_counts(lower, range(len(lower)))[2]


def kerov_mean_zero_check(shape) -> bool:
    """Check that corner contents j-i average to zero against the growth
    weights f(shape + x)."""
    shape = check_partition(shape)
    total = sum((j - i) * _hook_f(add_corner(shape, (i, j))) for i, j in outside_corners(shape))
    return total == 0


def default_flag(shape) -> tuple[int, ...]:
    """The flag (2, 3, 4, ...) truncated to the number of rows."""
    return tuple(range(2, len(tuple(shape)) + 2))


# ---------------------------------------------------------------------------
# flagged set-valued tableau counting and enumeration


def _checked_flag(shape, flag) -> tuple[int, ...]:
    rows = len(shape)
    flag = _integers(flag, "flag bound")
    if len(flag) < rows:
        raise MalformedInputError(
            f"flag {flag} shorter than the {rows} rows of {shape}"
        )
    if any(b < 1 for b in flag):
        raise MalformedInputError(f"flag {flag} has a nonpositive bound")
    return flag[:rows]


def _ssyt_counts_by_shift(shape, flag, max_total: int, shifts) -> tuple[dict[int, int], ...]:
    """count_ssyt_by_total(shape, flag shifted up by x, max_total) for each
    x >= 0 in `shifts`, in order, from one pass over the values.

    The values are placed largest first (EC1 4.7).  Read value v as the step
    t = max(flag) + x + 1 - v: row i may hold v exactly when
    t >= max(flag) - flag[i] + 1, whatever x is, and the values 1.. run out
    at step max(flag) + x.  So one pass up to the largest shift, read at
    step max(flag) + x, counts for every x.

    The state c is the unplaced part of the shape: c[i] is the first column
    of row i whose largest entry is already placed, so c is a partition
    inside `shape` and starts at `shape`.  In one step the cells that get
    the current value as their largest entry form a horizontal strip: row i
    moves to some c'[i] in [c[i+1], c[i]].  The cell at column c[i], the
    leftmost placed one, may also take the value as a smaller entry, when
    nothing stands above it after the step (c'[i-1] > c[i]); that is one
    factor (1 + y) on the state's vector, whose entry e counts the
    tableaux so far with e more entries than cells placed, truncated at
    `max_total` minus the number of cells.  The rows are swept top down
    within a step, so row i reads c'[i-1] and c[i+1]; all sources that
    share the other rows reach c'[i] through one running sum.  The live
    states of each step are charged against the capacity bound.
    """
    shape = check_partition(shape)
    if not shape:
        return tuple({0: 1} if max_total >= 0 else {} for _ in shifts)
    flag = _checked_flag(shape, flag)
    ncells = sum(shape)
    if max_total < ncells or not shifts:
        return tuple({} for _ in shifts)
    rows, top = len(shape), max(flag)
    first = [top - b + 1 for b in flag]  # the first step row i may use
    done = (0,) * rows
    found = {}
    states = {shape: [1] + [0] * (max_total - ncells)}
    last = top + max(shifts)
    for t in range(1, last + 1):
        for i in range(rows):
            if t < first[i]:
                continue
            columns = {}
            for c, vec in states.items():
                j = c[i]
                if j < shape[i] and (i == 0 or c[i - 1] > j):  # times (1 + y)
                    vec = vec[:1] + [a + b for a, b in zip(vec[1:], vec)]
                columns.setdefault((c[:i], c[i + 1 :]), {})[j] = vec
            states = {}
            for (head, tail), column in columns.items():
                acc = None
                for j in range(max(column), tail[0] - 1 if tail else -1, -1):
                    vec = column.get(j)
                    if vec is not None:
                        acc = vec if acc is None else [a + b for a, b in zip(acc, vec)]
                    states[head + (j,) + tail] = acc
        # An unplaced cell in row i needs i + 1 more values down its column.
        room = last - t
        if room < rows:
            states = {c: vec for c, vec in states.items() if not c[room]}
        _check_capacity(len(states), "flagged tableau DP states")
        if t - top in shifts:
            vec = states.get(done, ())
            found[t - top] = {ncells + e: n for e, n in enumerate(vec) if n}
    return tuple(found[x] for x in shifts)


def count_ssyt_by_total(shape, flag, max_total: int) -> dict[int, int]:
    """Counts of column-strict set-valued tableaux of `shape`, flagged
    row-wise by `flag`, keyed by total entry count up to `max_total`.

    The x = 0 view of _ssyt_counts_by_shift, whose one pass over the values
    gives the counts for every flag shift x at once.
    """
    (max_total,) = _integers((max_total,), "tableau total")
    return _ssyt_counts_by_shift(shape, flag, max_total, (0,))[0]


def count_ssyt(shape, flag, total: int) -> int:
    """Number of column-strict set-valued tableaux of `shape` flagged by
    `flag` with exactly `total` entries."""
    return count_ssyt_by_total(shape, flag, total).get(total, 0)


def _lex_subsets(pool, max_size):
    """Nonempty subsets of the sorted pool with at most max_size elements, in
    lexicographic order of their sorted tuples (each before its extensions)."""
    sizes = range(1, min(max_size, len(pool)) + 1)
    return sorted(subset for k in sizes for subset in combinations(pool, k))


def enumerate_ssyt(shape, flag, total: int) -> list["SetValuedTableau"]:
    """All tableaux counted by count_ssyt, in row-major order with cells
    compared lexicographically as sorted entry tuples."""
    (total,) = _integers((total,), "tableau total")
    shape = check_partition(shape)
    if not shape:
        return [SetValuedTableau(())] if total == 0 else []
    flag = _checked_flag(shape, flag)
    cells = [(i, j) for i in range(len(shape)) for j in range(shape[i])]
    content: dict[tuple[int, int], tuple[int, ...]] = {}
    out = []

    def rec(k, used):
        if k == len(cells):
            if used == total:
                rows = tuple(
                    tuple(content[(i, j)] for j in range(shape[i]))
                    for i in range(len(shape))
                )
                out.append(SetValuedTableau(rows))
                _check_capacity(len(out), "set-valued tableau enumeration")
            return
        i, j = cells[k]
        lo = 1
        if j > 0:
            lo = max(lo, content[(i, j - 1)][-1])
        if i > 0 and j < shape[i - 1]:
            lo = max(lo, content[(i - 1, j)][-1] + 1)
        budget = total - used - (len(cells) - k - 1)
        if budget < 1:
            return
        pool = list(range(lo, flag[i] + 1))
        for subset in _lex_subsets(pool, budget):
            content[(i, j)] = subset
            rec(k + 1, used + len(subset))
        content.pop((i, j), None)

    rec(0, 0)
    return out


def R_and_Rplus(shape) -> tuple[int, int]:
    """Element and cover counts of the interval below `shape`, by the
    outside-corner recurrence.  The verify `recurrences` suite checks them
    against the flagged tableau count and the interval's ideal walk."""
    shape = check_partition(shape)
    table = _rank_table(shape)
    splits = _corner_splits(shape)
    return table[shape](1), sum((i - 1) * table[b](1) * table[r](1) for i, _, b, r in splits)


# ---------------------------------------------------------------------------
# set-valued tableaux as values


@dataclass(frozen=True)
class SetValuedTableau:
    """Column-strict set-valued filling; each cell is a sorted tuple."""

    rows: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    @property
    def total_entries(self) -> int:
        return sum(len(c) for r in self.rows for c in r)

    def cell(self, i: int, j: int) -> tuple[int, ...]:
        """1-indexed cell access."""
        return self.rows[i - 1][j - 1]

    def doubleton_cells(self) -> list[tuple[int, int]]:
        return [
            (i + 1, j + 1)
            for i, row in enumerate(self.rows)
            for j, c in enumerate(row)
            if len(c) == 2
        ]

    def is_barely(self) -> bool:
        """Exactly one cell holds two entries and every other cell one."""
        sizes = [len(c) for r in self.rows for c in r]
        return sizes.count(2) == 1 and set(sizes) <= {1, 2}

    def is_standard(self) -> bool:
        values = [v for r in self.rows for c in r for v in c]
        return sorted(values) == list(range(1, len(values) + 1))

    def check(self) -> "SetValuedTableau":
        shape = self.shape
        check_partition(shape)
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if not c or tuple(sorted(set(c))) != c:
                    raise MalformedInputError(f"cell ({i+1},{j+1}) is not a sorted set")
                if j > 0 and row[j - 1][-1] > c[0]:
                    raise MalformedInputError(f"row {i+1} violates weak increase")
                if i > 0 and self.rows[i - 1][j][-1] >= c[0]:
                    raise MalformedInputError(f"column {j+1} violates strict increase")
        return self

    def __str__(self) -> str:
        return format_tableau(self)


def svt(rows) -> SetValuedTableau:
    """Build and validate a SetValuedTableau from nested iterables; plain
    integers are accepted as singleton cells."""
    norm = []
    for row in rows:
        cells = []
        for c in row:
            if isinstance(c, int):
                cells.append((c,))
            else:
                cells.append(tuple(sorted(c)))
        norm.append(tuple(cells))
    return SetValuedTableau(tuple(norm)).check()


def format_tableau(t) -> str:
    """Text grid: rows top to bottom, cells as {a,b} sets, tab separated."""
    if isinstance(t, SetValuedTableau):
        rows = t.rows
    else:
        rows = tuple(tuple((v,) if isinstance(v, int) else tuple(v) for v in row) for row in t)
    return "\n".join(
        "\t".join("{" + ",".join(map(str, c)) + "}" for c in row) for row in rows
    )


# ---------------------------------------------------------------------------
# uncrowding and crowding


def uncrowd(t: SetValuedTableau):
    """Move the larger entry of the unique two-entry cell out by row
    insertion into the rows strictly below it.

    Returns (ordinary tableau, new corner cell (i, j), row index of the
    doubleton), with cells 1-indexed.
    """
    if not t.is_barely():
        raise NotBarelySetValuedError("expected exactly one two-entry cell")
    ((i0, j0),) = t.check().doubleton_cells()  # a malformed t is refused here
    rows = [list(v[0] for v in row) for row in t.rows]
    carried = t.cell(i0, j0)[1]
    rows[i0 - 1][j0 - 1] = t.cell(i0, j0)[0]
    r = i0  # insert into row i0+1 first (0-indexed r)
    while True:
        if r == len(rows):
            rows.append([carried])
            corner = (r + 1, 1)
            break
        row = rows[r]
        bump = next((k for k, v in enumerate(row) if v > carried), None)
        if bump is None:
            row.append(carried)
            corner = (r + 1, len(row))
            break
        carried, row[bump] = row[bump], carried
        r += 1
    out = tuple(tuple(row) for row in rows)
    svt([[(v,) for v in row] for row in out])  # column-strictness assertion
    return out, corner, i0


def crowd(t_plus, corner, i0: int) -> SetValuedTableau:
    """Inverse of uncrowd: reverse row insertion out of `corner`, stopping in
    row i0 where the carried value joins a cell instead of bumping."""
    svt([[(v,) for v in row] for row in t_plus])  # input must be column-strict
    rows = [list(row) for row in t_plus]
    coords = _integers(corner, "corner coordinate")
    if len(coords) != 2:
        raise MalformedInputError(f"corner {corner!r} is not two coordinates")
    i, j = coords
    (i0,) = _integers((i0,), "target row")
    if not (1 <= i <= len(rows)) or j != len(rows[i - 1]):
        raise NotCornerError(f"{corner} is not the end of row {i}")
    if i < len(rows) and len(rows[i]) >= j:
        raise NotCornerError(f"{corner} is not an inner corner")
    if not (1 <= i0 <= i - 1):
        raise RangeError(f"target row {i0} not in 1..{i - 1}")
    carried = rows[i - 1].pop()
    if not rows[i - 1]:
        rows.pop()
    for r in range(i - 2, i0 - 1, -1):
        row = rows[r]
        bump = max(k for k, v in enumerate(row) if v < carried)
        carried, row[bump] = row[bump], carried
    row = rows[i0 - 1]
    bump = max(k for k, v in enumerate(row) if v < carried)
    out = [[(v,) for v in rr] for rr in rows]
    out[i0 - 1][bump] = (row[bump], carried)
    return svt(out)


# ---------------------------------------------------------------------------
# standard enumeration and the chain bijections


def _increasing_fills(shape, barely: bool, count: int, what: str):
    """The standard fillings of `shape` (barely set-valued ones when
    `barely`) as rows of entry tuples, sorted.

    One search places the values 1..n (1..n+1 when `barely`) in increasing
    order.  Value v goes either into the next cell of row i, when row i is
    not full and the row above is longer, or, once per barely tableau, as
    the second entry of the last filled cell of row i, when the row below
    is shorter (that cell is a corner of the filled shape).  No later value
    can break strictness: when v goes in, the cells left of and above its
    cell hold only smaller values, and the cells right of and below it are
    still empty, so every value they get later is larger.  Each filling
    comes from exactly one placement sequence, so nothing is found twice.

    The closed-form `count` is compared with the capacity bound before the
    search, so the search never grows past it.
    """
    _check_capacity(count, what)
    k = len(shape)
    top = sum(shape) + barely
    rows = [[] for _ in shape]
    out = []

    def rec(v, doubled):
        if v > top:
            out.append(tuple(map(tuple, rows)))
            return
        for i in range(k):
            row = rows[i]
            j = len(row)
            if j < shape[i] and (i == 0 or len(rows[i - 1]) > j):
                row.append((v,))
                rec(v + 1, doubled)
                row.pop()
            if not doubled and j and (i + 1 == k or len(rows[i + 1]) < j):
                last = row[-1]
                row[-1] = (last[0], v)
                rec(v + 1, True)
                row[-1] = last

    rec(1, not barely)
    return sorted(out)


def enumerate_standard_tableaux(shape) -> list[tuple[tuple[int, ...], ...]]:
    """All standard Young tableaux, sorted by their row tuples.

    Raises CapacityError before the search when the hook-length count is
    over the capacity bound."""
    shape = check_partition(shape)
    fills = _increasing_fills(shape, False, hook_f(shape), "standard tableau enumeration")
    return [tuple(tuple(v for (v,) in row) for row in t) for t in fills]


def enumerate_standard_barely(shape) -> list[SetValuedTableau]:
    """All standard barely set-valued tableaux, sorted by their row-major
    cell tuples (the documented output order), from `_increasing_fills`.

    Raises CapacityError before the search when the closed-form count
    f_plus_one(shape) is over the capacity bound.  The `recurrences` suite
    compares f_plus_one with the chain count `_f_plus_by_chains` for every
    shape up to size 10 and with this search for the shapes up to size 8;
    the `bijections` suite and Tier-1 check the listed tableaux themselves.
    """
    shape = check_partition(shape)
    fills = _increasing_fills(
        shape, True, f_plus_one(shape), "barely set-valued tableau enumeration"
    )
    return [SetValuedTableau(t) for t in fills]


def _added_row(small, big, what: str) -> int:
    """The row (0-indexed) of the one cell that `big` has beyond the
    partition `small`, an outside corner of it; MalformedInputError(what)
    when `big` is not `small` plus such a cell."""
    big = tuple(big)
    for i, j in outside_corners(small):
        if add_corner(small, (i, j)) == big:
            return i - 1
    raise MalformedInputError(what)


def _value_cells(rows) -> dict[int, tuple[int, int]]:
    """Each value of a filling -> its cell (i, j), 1-indexed; a cell is an
    int or a tuple of ints."""
    return {
        v: (i, j)
        for i, row in enumerate(rows, start=1)
        for j, c in enumerate(row, start=1)
        for v in ((c,) if isinstance(c, int) else c)
    }


def _grow(cells) -> list[tuple[int, ...]]:
    """The chain of shapes from () that adds `cells` one at a time;
    MalformedInputError unless each is an outside corner of the shape before."""
    chain = [()]
    for cell in cells:
        try:
            chain.append(add_corner(chain[-1], cell))
        except NotCornerError as exc:
            raise MalformedInputError("cells do not form a partition diagram") from exc
    return chain


def standard_to_chain(t) -> tuple[tuple[int, ...], ...]:
    """Standard tableau -> the saturated chain of shapes grown one value at
    a time."""
    cells = _value_cells(t)
    n = len(cells)
    if sorted(cells) != list(range(1, n + 1)):
        raise MalformedInputError("a standard tableau holds the values 1..n")
    return tuple(_grow(cells[v] for v in range(1, n + 1)))


def chain_to_standard(chain) -> tuple[tuple[int, ...], ...]:
    chain = tuple(map(tuple, chain))
    if not chain or chain[0]:
        raise MalformedInputError("a chain of shapes starts at ()")
    rows = []
    for v in range(1, len(chain)):
        i = _added_row(chain[v - 1], chain[v], "not a saturated containment chain")
        if i == len(rows):
            rows.append([])
        rows[i].append(v)
    return tuple(map(tuple, rows))


def _drop_entry(t: SetValuedTableau, k: int):
    """(chain, mu, cell) for a standard barely set-valued tableau: the chain
    grown by every value but entry k of the doubleton, in increasing order;
    mu, the shape that the values below that entry fill; the doubleton."""
    t.check()
    if not (t.is_barely() and t.is_standard()):
        raise MalformedInputError("expected a standard barely set-valued tableau")
    cell = t.doubleton_cells()[0]
    v = t.cell(*cell)[k]
    cells = _value_cells(t.rows)
    chain = _grow(cells[u] for u in range(1, len(cells) + 1) if u != v)
    return chain, chain[v - 1], cell


def _with_entry(chain, mu, small, big) -> SetValuedTableau:
    """Inverse of _drop_entry: the standard tableau of `chain` with its
    values from v on raised by one, where mu is the v-th shape of the chain,
    and v put into the cell that `big` has beyond `small`."""
    chain = tuple(map(tuple, chain))
    mu = tuple(mu)
    if mu not in chain:
        raise MalformedInputError(f"{mu} is not a shape of the chain")
    v = chain.index(mu) + 1
    rows = [[(u if u < v else u + 1,) for u in row] for row in chain_to_standard(chain)]
    i = _added_row(small, big, f"{tuple(big)} is not {tuple(small)} plus one cell")
    j = big[i] - 1
    if i >= len(rows) or j >= len(rows[i]):
        raise MalformedInputError(f"{tuple(big)} is not inside {chain[-1]}")
    rows[i][j] = tuple(sorted(rows[i][j] + (v,)))
    return svt(rows)


def barely_to_triple(t: SetValuedTableau):
    """Standard barely set-valued tableau -> (chain, element, extra cover
    below it) in the interval under its shape."""
    chain, mu, (i, j) = _drop_entry(t, 1)
    nu = remove_corner(mu, (i, mu[i - 1]))
    if mu[i - 1] != j:
        raise MalformedInputError("doubleton cell is not a corner of its step")
    return tuple(chain), mu, nu


def triple_to_barely(chain, mu, nu) -> SetValuedTableau:
    return _with_entry(chain, mu, nu, mu)


def barely_to_dual_triple(t: SetValuedTableau):
    """Dual variant: reading the chain downward from the full shape, keyed by
    the smaller entry of the doubleton."""
    chain, mu, (i, j) = _drop_entry(t, 0)
    if not (i <= len(mu) + 1 and (mu + (0,))[i - 1] + 1 == j):
        raise MalformedInputError("doubleton cell is not addable to its step")
    return tuple(chain[::-1]), mu, add_corner(mu, (i, j))


def dual_triple_to_barely(chain, mu, nu) -> SetValuedTableau:
    return _with_entry(chain[::-1], mu, mu, nu)


def flagged_to_partition(t) -> tuple[int, ...]:
    """Tableau flagged by (2,3,4,...) -> the subdiagram of cells holding
    their own row index.  A cell is an int or a tuple read by its first
    entry; an empty tuple is malformed."""
    cells = []
    for i, row in enumerate(t, start=1):
        for j, v in enumerate(row, start=1):
            val = v if isinstance(v, int) or not v else v[0]
            if val == i:
                cells.append((i, j))
            elif val != i + 1:
                raise MalformedInputError(
                    f"cell ({i},{j}) holds {val}, expected {i} or {i+1}"
                )
    return _grow(cells)[-1]


def partition_to_flagged(mu, shape) -> tuple[tuple[int, ...], ...]:
    mu = tuple(mu)
    rows = []
    for i, length in enumerate(tuple(shape), start=1):
        cut = mu[i - 1] if i - 1 < len(mu) else 0
        rows.append(tuple(i if j <= cut else i + 1 for j in range(1, length + 1)))
    return tuple(rows)


def flagged_barely_to_cover(t: SetValuedTableau):
    """Barely set-valued tableau flagged by (2,3,4,...) -> the cover
    (nu, mu) it encodes: nu is the flagged tableau read with the two-entry
    cell (i, i+1) at its larger entry, and mu is nu plus that cell."""
    if not t.is_barely():
        raise NotBarelySetValuedError("expected exactly one two-entry cell")
    ((i, j),) = t.doubleton_cells()
    if t.cell(i, j) != (i, i + 1):
        raise MalformedInputError(f"cell ({i},{j}) holds {t.cell(i, j)}")
    nu = flagged_to_partition([[c[-1:] for c in row] for row in t.rows])
    try:
        return nu, add_corner(nu, (i, j))
    except NotCornerError as exc:
        raise MalformedInputError("cells do not form a partition diagram") from exc


def cover_to_flagged_barely(nu, mu, shape) -> SetValuedTableau:
    """Inverse of flagged_barely_to_cover: the flagged tableau of nu with
    the cell that mu adds, in row i, set to (i, i+1)."""
    nu, mu, shape = tuple(nu), tuple(mu), tuple(shape)
    k = _added_row(nu, mu, "nu is not covered by mu")
    if len(mu) > len(shape) or any(m > s for m, s in zip(mu, shape)):
        raise MalformedInputError(f"{mu} does not fit in {shape}")
    rows = [list(row) for row in partition_to_flagged(nu, shape)]
    rows[k][mu[k] - 1] = (k + 1, k + 2)
    return svt(rows)


# ---------------------------------------------------------------------------
# hook-content counting


def hook_content_count(shape, t: int) -> int:
    """Number of column-strict tableaux with entries at most t, by the
    hook-content product."""
    shape = check_partition(shape)
    (t,) = _integers((t,), "entry bound")
    t = max(t, 0)  # a negative bound admits no entry, as 0 does: cell (1, 1) gives the factor 0
    out = Fraction(1)
    hooks = _hook_lengths(shape)
    for i in range(len(shape)):
        for j in range(shape[i]):
            out *= Fraction(t + (j - i), hooks[i][j])
    if out.denominator != 1:
        raise ReconciliationError(f"hook-content product {out} is not an integer")
    return int(out)
