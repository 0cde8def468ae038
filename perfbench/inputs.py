"""Seeded input generators for the benchmark workloads.

They use only the standard library and never import ``cde``, so a change to
the program cannot change the inputs it is measured on.  The same seed
always gives the same stream.

Query cost is heavy-tailed in the size of the object a query builds (the
ideal lattice J(P), the weak interval [e, w]), so a plain random stream of a
few hundred queries would make the seed, not the program, the main source of
run-to-run spread.  Each stream is therefore stratified twice.  The strata
(poset size and edge probability; permutation size) get equal shares of the
stream.  Within a stratum, the mix of sizes follows a pinned profile: the
size percentiles of a large reference sample, stored in size_profile.json.
The generator draws POOL_FACTOR fresh uniform candidates per query, computes
each one's size with its own code, and for every profile quantile keeps the
candidate nearest to it in size.  Draws above the profile's top percentile
(the 98.5th) are drawn again, so one rare huge object cannot decide a run's
slowest queries or peak memory.  The inputs change with the seed; the mix
of sizes, and with it most of the cost, does not.

Regenerate the profile with ``python3 perfbench/inputs.py`` (about a
minute); that changes the workloads, so it is a benchmark change.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

POSET_SIZES = (8, 9, 10, 11, 12)
EDGE_PROBABILITIES = (0.2, 0.3, 0.4)
POSET_STRATA = [(n, p) for p in EDGE_PROBABILITIES for n in POSET_SIZES]
PERM_SIZES = (7, 8, 9)
TOGGLE_M = (2, 8)
POOL_FACTOR = 3
PROFILE_PATH = Path(__file__).with_name("size_profile.json")
PROFILE_POINTS = 100  # percentiles at (i + 0.5) / 100; the last one is only a record
PROFILE_DRAWS = 4000


def random_reduced_dag(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """Cover pairs of a random poset on n elements.

    Each pair i < j becomes a relation with probability p; the transitive
    reduction of that DAG is returned, with the elements relabelled by a
    random permutation so that labels carry no order information.
    """
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    above = [0] * n  # bit j set when j is strictly above i
    for i in range(n - 1, -1, -1):
        for a, b in edges:
            if a == i:
                above[i] |= (1 << b) | above[b]
    reduced = []
    for a, b in edges:
        # a < b is a cover unless some c with a < c < b sits between them
        if not any((above[a] >> c) & 1 and (above[c] >> b) & 1 for c in range(a + 1, b)):
            reduced.append((a, b))
    relabel = list(range(n))
    rng.shuffle(relabel)
    return sorted((relabel[a], relabel[b]) for a, b in reduced)


def ideal_count(n: int, covers) -> int:
    """Number of order ideals, by breadth-first search over bitmasks."""
    below = [0] * n
    for a, b in covers:
        below[b] |= 1 << a
    seen = {0}
    frontier = [0]
    while frontier:
        grown = []
        for ideal in frontier:
            for e in range(n):
                bigger = ideal | (1 << e)
                if bigger != ideal and below[e] & ~ideal == 0 and bigger not in seen:
                    seen.add(bigger)
                    grown.append(bigger)
        frontier = grown
    return len(seen)


def weak_interval_size(w: tuple[int, ...]) -> int:
    """Number of permutations below w in right weak order, found by
    undoing adjacent descents."""
    seen = {w}
    stack = [w]
    while stack:
        u = stack.pop()
        for i in range(len(u) - 1):
            if u[i] > u[i + 1]:
                v = u[:i] + (u[i + 1], u[i]) + u[i + 2 :]
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return len(seen)


def poset_text(n: int, covers) -> str:
    """The poset text format read by ``cde.poset.load_poset``."""
    return "".join([f"n {n}\n"] + [f"cover {a} {b}\n" for a, b in covers])


def _quotas(count: int, strata: int) -> list[int]:
    return [count // strata + (s < count % strata) for s in range(strata)]


def _profile() -> dict[str, list[int]]:
    return json.loads(PROFILE_PATH.read_text())


def _nearest_to_profile(pool: list, profile: list[int], count: int) -> list:
    """``count`` of the (size, item) pairs: for each of ``count`` evenly
    spaced quantiles of the profile, the unused pair nearest to it in size
    ratio.  Targets and pool are both taken in ascending order, so each
    pick lies above the previous one and one pair is left for every later
    target."""
    ranked = sorted(pool, key=lambda pair: pair[0])  # stable: ties keep draw order
    targets = [profile[int((j + 0.5) / count * (len(profile) - 1))] for j in range(count)]
    picks, i = [], 0
    for k, target in enumerate(targets):
        last = len(ranked) - (count - k)
        while i < last and abs(math.log(ranked[i + 1][0] / target)) <= abs(math.log(ranked[i][0] / target)):
            i += 1
        picks.append(ranked[i])
        i += 1
    return picks


def _poset_draw(rng, n, p, cap=math.inf):
    while True:
        covers = random_reduced_dag(rng, n, p)
        size = ideal_count(n, covers)
        if size <= cap:
            return size, covers


def _perm_draw(rng, n, cap=math.inf):
    while True:
        w = tuple(rng.sample(range(1, n + 1), n))
        size = weak_interval_size(w)
        if size <= cap:
            return size, w


def poset_queries(seed: int, count: int) -> list[tuple[str, int, int]]:
    """``count`` poset queries as (poset text, toggle m, |J(P)|), in the
    (n, p) strata of POSET_SIZES x EDGE_PROBABILITIES, with the toggle
    multichain size m drawn from TOGGLE_M."""
    rng = random.Random(f"poset-queries:{seed}")
    profile = _profile()["poset-queries"]
    out = []
    for (n, p), quota in zip(POSET_STRATA, _quotas(count, len(POSET_STRATA))):
        sizes = profile[f"{n},{p}"]
        pool = [_poset_draw(rng, n, p, sizes[-2]) for _ in range(POOL_FACTOR * quota)]
        for size, covers in _nearest_to_profile(pool, sizes, quota):
            out.append((poset_text(n, covers), rng.randint(*TOGGLE_M), size))
    rng.shuffle(out)
    return out


def perm_queries(seed: int, count: int) -> list[tuple[tuple[int, ...], int]]:
    """``count`` permutation queries as (w, |[e, w]|), uniform random
    permutations in the strata of PERM_SIZES."""
    rng = random.Random(f"perm-queries:{seed}")
    profile = _profile()["perm-queries"]
    out = []
    for n, quota in zip(PERM_SIZES, _quotas(count, len(PERM_SIZES))):
        sizes = profile[str(n)]
        pool = [_perm_draw(rng, n, sizes[-2]) for _ in range(POOL_FACTOR * quota)]
        out += [(w, size) for size, w in _nearest_to_profile(pool, sizes, quota)]
    rng.shuffle(out)
    return out


def _percentiles(sizes: list[int]) -> list[int]:
    ranked = sorted(sizes)
    return [ranked[int((i + 0.5) / PROFILE_POINTS * len(ranked))] for i in range(PROFILE_POINTS)]


def write_profile() -> None:
    """Size percentiles of PROFILE_DRAWS uniform draws per stratum, from a
    fixed reference seed, written to size_profile.json."""
    rng = random.Random("size-profile")
    profile = {
        "poset-queries": {
            f"{n},{p}": _percentiles([_poset_draw(rng, n, p)[0] for _ in range(PROFILE_DRAWS)])
            for n, p in POSET_STRATA
        },
        "perm-queries": {
            str(n): _percentiles([_perm_draw(rng, n)[0] for _ in range(PROFILE_DRAWS)])
            for n in PERM_SIZES
        },
    }
    PROFILE_PATH.write_text(json.dumps(profile, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    write_profile()
