"""Batch verification campaigns over fixed parameter grids.

Each suite replays one cluster of claims: golden expectation values, poset
laws, recurrence/enumeration agreements, word-count identities, and the open
conjectures.  Conjecture checks can only come back `conjecture-consistent` or
`conjecture-violated`; the `pass` status is reserved for settled facts.
Grids live in suites_manifest.txt next to this module so reruns are
reproducible.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import lru_cache, partial
from inspect import signature
from itertools import combinations_with_replacement, count, islice, permutations as iperm
from pathlib import Path

from . import permutations as perm
from . import poset as ps
from . import tableaux as tb
from .errors import CapacityError, MalformedInputError, SizeError, UnknownSuiteError

__all__ = [
    "CheckReport",
    "run_suite",
    "run_all",
    "suite_ids",
    "search_mcde_product_counterexample",
    "all_posets_upto_iso",
    "build_poset",
    "format_reports",
]

_MANIFEST_PATH = Path(__file__).with_name("suites_manifest.txt")

_STATUSES = {
    "pass",
    "fail",
    "conjecture-consistent",
    "conjecture-violated",
    "skipped(capacity)",
    "skipped(budget)",
    "error",
}


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    instance: dict
    expected: str
    computed: str
    status: str
    elapsed: float = 0.0

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise MalformedInputError(f"unknown status {self.status!r}")
        if self.status == "pass" and self.expected == "conjectural":
            raise MalformedInputError("a conjectural check can never 'pass'")
        if self.status.startswith("conjecture") and self.expected != "conjectural":
            raise MalformedInputError(
                "conjecture-* statuses are reserved for conjectural checks"
            )

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "elapsed": round(self.elapsed, 6)}, sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "CheckReport":
        data = json.loads(line)
        return CheckReport(*(data[f.name] for f in fields(CheckReport)))


@dataclass
class _Check:
    """A single grid point: an instance record plus a deferred evaluation
    returning (expected, computed, ok).  run_suite stamps each report with
    the suite's registry key, and on a conjectural check it replaces the
    expected value and reads ok as conjecture-consistent or -violated."""

    instance: dict
    run: callable
    conjectural: bool = False


# ---------------------------------------------------------------------------
# small shared helpers


def _grid(first, *rest) -> ps.FinitePoset:
    out = ps.chain(first)
    for a in rest:
        out = ps.product(out, ps.chain(a))
    return out


def _zigzag(n) -> ps.FinitePoset:
    ps._check_capacity(n, "poset elements")  # before the covers are listed
    covers = set()
    for i in range(1, n, 2):
        covers.add((i - 1, i))
        if i + 1 < n:
            covers.add((i + 1, i))
    return ps.FinitePoset(n, covers)


#: spec name -> builder; a spec's integer arguments must bind to its signature
_BUILDERS = {
    "chain": ps.chain,
    "antichain": ps.antichain,
    "boolean": ps.boolean,
    "tamari": ps.tamari,
    "pabcd": ps.pabcd,
    "grid": _grid,
    "young": lambda *shape: tb.young_interval(shape),
    "shifted": lambda *shape: tb.shifted_interval(shape),
    "weak-order": perm.weak_order_full,
    "strong-bruhat": perm.strong_bruhat,
    "ordinal-sum-antichains": lambda a, b: ps.ordinal_sum(ps.antichain(a), ps.antichain(b)),
    "zigzag": _zigzag,
    "v": lambda: ps.FinitePoset(3, {(0, 1), (0, 2)}),
    "m3": lambda: ps.FinitePoset(5, {(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)}),
}


def build_poset(spec: str) -> ps.FinitePoset:
    """Build a poset from a compact spec like 'tamari:6' or 'young:3,1,1'.

    Raises MalformedInputError for an unknown name, for arguments that are
    not integers, and for too few or too many of them.
    """
    name, _, arg = spec.partition(":")
    if name not in _BUILDERS:
        raise MalformedInputError(f"unknown poset spec {spec!r}")
    builder = _BUILDERS[name]
    try:
        args = [int(v) for v in arg.split(",")] if arg else []
        signature(builder).bind(*args)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"poset spec {spec!r}: {exc}") from exc
    return builder(*args)


def _partitions_upto(n: int) -> list[tuple[int, ...]]:
    out = [()]

    def rec(remaining, cap, acc):
        for part in range(1, min(remaining, cap) + 1):
            out.append(tuple(acc + [part]))
            rec(remaining - part, part, acc + [part])

    rec(n, n, [])
    return sorted(out, key=lambda m: (sum(m), m))


def _census():
    """Yield the posets of 1, 2, 3, ... elements, one list per size and one
    poset per isomorphism class, each list grown from the one before by a new
    maximal element on top of an order ideal, deduplicated by canonical form."""
    layer = [ps.FinitePoset(1, frozenset())]
    for size in count(2):
        yield layer
        seen = {}
        for p in layer:
            (masks, lower), pairs = ps._ideals(p.order_relation()), p.covers
            for m, lows in zip(masks, lower):
                # the new element covers the maxima of ideal m, one per lower cover
                covers = pairs | {((m ^ masks[i]).bit_length() - 1, size - 1) for i in lows}
                key = ps._canonical_key(size, covers)
                if key not in seen:  # only a new class's representative is built
                    seen[key] = ps.FinitePoset(size, covers)
        layer = [seen[k] for k in sorted(seen)]


def all_posets_upto_iso(n: int) -> list[ps.FinitePoset]:
    """All posets with exactly n elements, one per isomorphism class: the
    census layer of size n (n <= 7 only)."""
    (n,) = ps._integers((n,), "poset size")
    if n < 0:
        raise SizeError(f"n must be nonnegative, got {n}")
    layers = _census()
    layer = next(layers) if n else [ps.FinitePoset(0, frozenset())]
    for _ in range(2, n + 1):
        layer = next(layers)
    return layer


def search_mcde_product_counterexample(max_elems: int, m_max: int = 6):
    """Look for two posets, multichain-constant up to m_max, whose product is
    not.  Returns (p, q, m) for the first violation found, else None."""
    (max_elems,) = ps._integers((max_elems,), "poset size")
    candidates = []
    for _, layer in zip(range(max_elems), _census()):  # max_elems < 1 reads no layer
        for p in layer:
            if ps.is_mCDE_upto(p, m_max):
                candidates.append(p)
    for i, p in enumerate(candidates):
        for q in candidates[i:]:
            values = ps._multichain_expectations(ps.product(p, q), m_max)
            for m, value in enumerate(values, start=1):
                if value != values[0]:
                    return p, q, m
    return None


def _enumerate_multichain_expectation(p: ps.FinitePoset, m: int, values) -> Fraction:
    """Brute-force route: list every m-element multichain and weight each
    element by the number of multichains containing it.

    Listed along a linear extension (elements by down-set size), a multichain
    is a weakly increasing sequence whose consecutive entries are comparable.
    """
    leq_masks = p.order_relation()
    line = sorted(range(p.n), key=lambda x: leq_masks[x].bit_count())
    weights = [0] * p.n
    for seq in combinations_with_replacement(line, m):
        if all((leq_masks[y] >> x) & 1 for x, y in zip(seq, seq[1:])):
            for e in set(seq):
                weights[e] += 1
    num = sum(Fraction(v) * wt for v, wt in zip(values, weights))
    return num / sum(weights)


def _staircase_params(shape) -> tuple[int, int, int] | None:
    """The (d, a, b) whose staircase-of-rectangles is shape, else None.

    The parts of rect_staircase(d, a, b) are b(d-1), ..., 2b, b, each
    repeated a times, so b is the last part, a its multiplicity and
    d = len(shape)/a + 1; the triple is unique when it exists."""
    if not shape:
        return None
    b = shape[-1]
    a = shape.count(b)
    d = len(shape) // a + 1
    return (d, a, b) if tb.rect_staircase(d, a, b) == tuple(shape) else None


# ---------------------------------------------------------------------------
# suite definitions; each returns a list of _Check


def _young_EX(shape) -> Fraction:
    r, rp = tb.R_and_Rplus(shape)
    return Fraction(rp, r)


def _young_EY(shape) -> Fraction:
    return Fraction(tb.f_plus_one(shape), (sum(shape) + 1) * tb.hook_f(shape))


def _thm_main(params, statistic, young_value, classes):
    """Theorem (a) or (b) on one w: statistic(w) equals young_value of its
    shape when w is in one of `classes` (`perm.classify` fields); any other w
    fails, naming the precondition, and only a vexillary w gets a shape."""
    w = perm.parse_perm(params["w"])
    cls = perm.classify(w)
    instance = {"w": params["w"]}
    if cls.vexillary:
        instance["shape"] = tb.shape_label(cls.shape)

    def run():
        if not any(getattr(cls, c) for c in classes):
            found = " ".join(f"{c}={getattr(cls, c)}" for c in classes)
            return (" or ".join(classes), found, False)
        got, want = statistic(w), young_value(cls.shape)
        return (str(want), str(got), got == want)

    return [_Check(instance, run)]


def _suite_thm_main_a(params):
    return _thm_main(params, perm.expectation_Y_words, _young_EY, ("vexillary",))


def _suite_thm_main_b(params):
    classes = ("grassmannian", "inverse_grassmannian")
    return _thm_main(params, perm.expectation_X_complementary, _young_EX, classes)


def _suite_thm_main_c(params):
    d, a, b = int(params["d"]), int(params["a"]), int(params["b"])
    lam = tb.rect_staircase(d, a, b)
    target = Fraction((d - 1) * a * b, a + b)
    instance = {"d": d, "a": a, "b": b, "shape": tb.shape_label(lam)}

    def run():
        values = {}
        young = tb.young_interval(lam)
        values["EX[young]"] = ps.expectation_X(young)
        values["EY[young]"] = ps.expectation_Y(young)
        dual_young = ps.dual(young)
        values["EX[young*]"] = ps.expectation_X(dual_young)
        values["EY[young*]"] = ps.expectation_Y(dual_young)
        witnesses = {
            "dominant": perm.dominant_of_shape(lam),
            "grassmannian": perm.grassmannian_of_shape(lam),
            "inverse-grassmannian": perm.inverse_grassmannian_of_shape(lam),
        }
        for kind, w in witnesses.items():
            values[f"EX[{kind}]"] = perm.expectation_X_complementary(w)
            values[f"EY[{kind}]"] = perm.expectation_Y_words(w)
            values[f"EY[{kind}*]"] = perm.expectation_Y_words(perm.inverse(w))
        ok = all(v == target for v in values.values())
        computed = " ".join(f"{k}={v}" for k, v in sorted(values.items()))
        return (str(target), computed, ok)

    return [_Check(instance, run)]


def _suite_prop_products(params):
    p = build_poset(params["p"])
    q = build_poset(params["q"])
    instance = {"p": params["p"], "q": params["q"]}

    def run():
        prod = ps.product(p, q)
        ex_ok = ps.expectation_X(prod) == ps.expectation_X(p) + ps.expectation_X(q)
        ey_ok = ps.expectation_Y(prod) == ps.expectation_Y(p) + ps.expectation_Y(q)
        cde_ok = True
        if ps.is_CDE(p) and ps.is_CDE(q):
            cde_ok = ps.is_CDE(prod)
        ok = ex_ok and ey_ok and cde_ok
        return (
            "EX and EY additive; CDE preserved",
            f"EX additive={ex_ok} EY additive={ey_ok} CDE preserved={cde_ok}",
            ok,
        )

    return [_Check(instance, run)]


def _suite_prop_chain_products(params):
    sizes = [int(v) for v in params["chains"].split(",")]
    m = int(params["m"])
    seed = int(params["seed"])
    instance = {"chains": params["chains"], "m": m, "seed": seed}

    def run():
        rng = random.Random(seed)
        chain_values = [
            [Fraction(rng.randint(-4, 4)) for _ in range(a)] for a in sizes
        ]
        prod = _grid(*sizes)
        # a product element's value is the sum of its coordinates' values;
        # element x * |Q| + y of P x Q is (x, y), so sum one chain at a time
        summed = [0]
        for vals in chain_values:
            summed = [s + v for s in summed for v in vals]
        rhs = sum(
            ps.expectation_under_multichain(ps.chain(a), m, vals)
            for a, vals in zip(sizes, chain_values)
        )
        lhs = ps.expectation_under_multichain(prod, m, summed)
        brute = _enumerate_multichain_expectation(prod, m, summed)
        ok = lhs == rhs == brute
        return (str(rhs), f"dp={lhs} brute={brute}", ok)

    return [_Check(instance, run)]


def _self_dual_expectations(p):
    """E(X), E(Y), E(X^(2)) and E(X^(3)) of p, which coincide when p is
    self-dual with a regular Hasse diagram."""
    return [ps.expectation_X(p), ps.expectation_Y(p), ps.expectation_Xm(p, 2), ps.expectation_Xm(p, 3)]


def _suite_prop_self_dual(params):
    spec, expect = params["builder"], params["expect"]
    instance = {"builder": spec}

    def run():
        p = build_poset(spec)
        got = ps.self_dual_regular_check(p)
        if expect == "none":
            return ("none", str(got), got is None)
        want = Fraction(expect)
        ok = got == want and all(v == want for v in _self_dual_expectations(p))
        return (expect, str(got), ok)

    return [_Check(instance, run)]


def _suite_cor_tamari(params):
    n = int(params["n"])
    want = Fraction(n - 3, 2)

    def run():
        t = ps.tamari(n)
        vals = [*_self_dual_expectations(t), ps.self_dual_regular_check(t)]
        return (str(want), " ".join(map(str, vals)), all(v == want for v in vals))

    return [_Check({"n": n}, run)]


def _suite_prop_toggle(params):
    m = int(params["m"])
    if "all_n" in params:
        n = int(params["all_n"])
        cases = [
            ({"n": n, "index": idx, "covers": str(sorted(base.covers)), "m": m}, base)
            for idx, base in enumerate(all_posets_upto_iso(n))
        ]
    else:
        cases = [({"base": params["base"], "m": m}, params["base"])]

    def run(base):  # a builder spec is built when its check runs
        p = build_poset(base) if isinstance(base, str) else base
        ok = ps.toggle_symmetry_check(p, m)
        return ("toggle-symmetric", str(ok), ok)

    return [_Check(instance, partial(run, base)) for instance, base in cases]


# `recurrences kind=fplus` compares the corner recurrence with the chain count
# for every shape, and with the barely set-valued enumeration up to this size
# (66 shapes); the enumerator is also gated by brute force in Tier-1 and by
# `bijections kind=roundtrip`.
_FPLUS_ENUMERATION_MAX_SIZE = 8


def _suite_recurrences(params):
    kind = params["kind"]
    max_size = int(params["max_size"])
    shapes = [s for s in _partitions_upto(max_size) if s]
    checks = []
    for shape in shapes:
        instance = {"kind": kind, "shape": tb.shape_label(shape)}
        if kind == "fplus":
            def run(shape=shape):
                rec = tb.f_plus_one(shape)
                chains = tb._f_plus_by_chains(shape)
                ok = rec == chains
                computed = str(rec)
                if sum(shape) <= _FPLUS_ENUMERATION_MAX_SIZE:
                    enum = len(tb.enumerate_standard_barely(shape))
                    if enum != chains:  # the pinned strings leave the enumeration out
                        ok = False
                        computed += f" enumerated={enum}"
                return (str(chains), computed, ok)
        elif kind == "rankgf":
            def run(shape=shape):
                by_size = {}
                for mu in tb.subpartitions(shape):
                    by_size[sum(mu)] = by_size.get(sum(mu), 0) + 1
                direct = tuple(by_size.get(k, 0) for k in range(max(by_size) + 1))
                rec = tb.rank_generating_function(shape).coeffs
                return (str(direct), str(rec), rec == direct)
        elif kind == "rplus":
            def run(shape=shape):
                r, rp = tb.R_and_Rplus(shape)
                n = sum(shape)
                counts = tb.count_ssyt_by_total(shape, tb.default_flag(shape), n + 1)
                flagged = (counts.get(n, 0), counts.get(n + 1, 0))
                # the interval's elements and covers, read off its ideal walk
                elements, lower = tb._diagram_ideals(shape, shifted=False)
                walked = (len(elements), sum(map(len, lower)))
                ok = (r, rp) == flagged == walked
                computed = f"({r},{rp})"
                if not ok:  # the pinned strings leave the flagged count out
                    computed += " flagged=({},{})".format(*flagged)
                return ("({},{})".format(*walked), computed, ok)
        elif kind == "kerov":
            def run(shape=shape):
                ok = tb.kerov_mean_zero_check(shape)
                return ("0", "0" if ok else "nonzero", ok)
        else:
            raise MalformedInputError(f"unknown recurrences kind {kind!r}")
        checks.append(_Check(instance, run))
    return checks


def _suite_bijections(params):
    kind = params["kind"]
    checks = []
    if kind in ("roundtrip", "flagged-roundtrip"):
        flagged = kind == "flagged-roundtrip"
        for shape in _partitions_upto(int(params["max_size"]))[1:]:  # () comes first
            def run(shape=shape):
                if flagged:
                    listed = tb.enumerate_ssyt(shape, tb.default_flag(shape), sum(shape) + 1)
                else:
                    listed = tb.enumerate_standard_barely(shape)
                for t in listed:
                    t_plus, corner, i0 = tb.uncrowd(t)
                    if tb.crowd(t_plus, corner, i0) != t:
                        return ("identity", f"broken at {t.rows}", False)
                if flagged:
                    return ("identity", f"{len(listed)} round trips", True)
                want = tb.f_plus_one(shape)
                return (str(want), str(len(listed)), len(listed) == want)

            checks.append(_Check({"kind": kind, "shape": tb.shape_label(shape)}, run))
    elif kind == "chain-maps":
        shape = tb.parse_shape(params["shape"])

        def run():
            standard = tb.enumerate_standard_tableaux(shape)
            for t in standard:
                if tb.chain_to_standard(tb.standard_to_chain(t)) != t:
                    return ("identity", "standard chain map broke", False)
            barely = tb.enumerate_standard_barely(shape)
            triples = set()
            dual_triples = set()
            for t in barely:
                trip = tb.barely_to_triple(t)
                if tb.triple_to_barely(*trip) != t:
                    return ("identity", "triple map broke", False)
                triples.add(trip)
                dtrip = tb.barely_to_dual_triple(t)
                if tb.dual_triple_to_barely(*dtrip) != t:
                    return ("identity", "dual triple map broke", False)
                dual_triples.add(dtrip)
            interval = tb.young_interval(shape)
            flagged = tb.enumerate_ssyt(shape, tb.default_flag(shape), sum(shape))
            images = {tb.flagged_to_partition(t.rows) for t in flagged}
            barely_flagged = tb.enumerate_ssyt(shape, tb.default_flag(shape), sum(shape) + 1)
            covers = {tb.flagged_barely_to_cover(t) for t in barely_flagged}
            ok = (
                len(standard) == tb.hook_f(shape) == ps.stats(interval).maximal_chain_count
                and len(triples) == len(barely) == tb.f_plus_one(shape)
                and len(dual_triples) == len(barely)
                and len(images) == len(flagged) == interval.n
                and len(covers) == len(barely_flagged) == sum(interval.down_degrees())
            )
            return (
                "all five correspondences bijective",
                f"f={len(standard)} f+={len(barely)} R={len(flagged)} R+={len(barely_flagged)}",
                ok,
            )

        checks.append(_Check({"kind": kind, "shape": params["shape"]}, run))
    elif kind == "fixtures":
        def run():
            t = tb.svt([[1, (2, 5), 6], [3, 7], [4]])
            chain_, mu, nu = tb.barely_to_triple(t)
            ok = (
                chain_ == ((), (1,), (2,), (2, 1), (2, 1, 1), (3, 1, 1), (3, 2, 1))
                and (mu, nu) == ((2, 1, 1), (1, 1, 1))
            )
            t_plus, corner, i0 = tb.uncrowd(
                tb.svt([[1, 1, 2, 2, 4], [2, 3, (3, 4), 4], [4, 5, 5, 7], [5, 6, 6], [6]])
            )
            ok = ok and corner == (5, 2) and i0 == 2
            ok = ok and tb.flagged_to_partition(((1, 2, 2), (2, 3), (4,))) == (1, 1)
            return ("worked examples reproduce", "ok" if ok else "mismatch", ok)

        checks.append(_Check({"kind": kind}, run))
    else:
        raise MalformedInputError(f"unknown bijections kind {kind!r}")
    return checks


def _suite_vexillary(params):
    if params.get("kind") == "grassmannian-iso":
        shape = tb.parse_shape(params["shape"])

        def run():
            w = perm.grassmannian_of_shape(shape)
            ok = ps.is_isomorphic(
                perm.weak_interval(w), ps.dual(tb.young_interval(shape))
            )
            wi = perm.inverse_grassmannian_of_shape(shape)
            ok = ok and ps.is_isomorphic(
                perm.weak_interval(wi), tb.young_interval(shape)
            )
            return ("interval isomorphic to shape interval", str(ok), ok)

        return [_Check({"kind": "grassmannian-iso", "shape": params["shape"]}, run)]

    n = int(params["n"])
    checks = []
    for w, shape in perm.vexillary_permutations(n):
        if not shape:
            continue

        def run(w=w, shape=shape):
            summary = perm.interval_summary(w)
            red_ok = summary.reduced == tb.hook_f(shape)
            nearly_ok = summary.nearly == tb.f_plus_one(shape)
            ey_ok = summary.EY == _young_EY(shape)
            ok = red_ok and nearly_ok and ey_ok
            return (
                "word counts match tableau counts",
                f"red={red_ok} nearly={nearly_ok} EY={ey_ok}",
                ok,
            )

        instance = {"n": n, "w": perm.perm_label(w), "shape": tb.shape_label(shape)}
        checks.append(_Check(instance, run))
    return checks


def _suite_forest(params):
    kind = params["kind"]
    if kind == "criterion":
        n = int(params["n"])

        def run():
            for w in iperm(range(1, n + 1)):
                if ps.is_forest(perm.noninversion_poset(w)) != perm.classify(w).dominant:
                    return ("forest iff dominant", f"fails at {w}", False)
            return ("forest iff dominant", f"all {n}! permutations agree", True)

        return [_Check({"kind": kind, "n": n}, run)]
    if kind == "hook":
        max_n = int(params["max_n"])
        catalog = [
            [None, 0, 0, 1],
            [None, None, 0, 1, 1, 2],
            [None, 0, 1, 1, None, 4, 4, 5],
            [None, 0, 1, 2, 3, None, 5, 6, 7],
            [None, 0, 0, 0, 1, 1, 2, None, 7],
            [None] * 6,
            [None, 0, 1, 2, 3, 4, 5, 6, 7],
        ]

        def run():
            tested = 0
            for parents in catalog:
                if len(parents) > max_n:
                    continue
                covers = {(i, p) for i, p in enumerate(parents) if p is not None}
                f = ps.FinitePoset(len(parents), frozenset(covers))
                formula = ps.linear_extension_count(f)
                dp = ps._linear_extensions_by_ideals(f)
                if not ps.is_forest(f) or formula != dp:
                    return ("hook formula equals ideal DP", f"fails on {parents}", False)
                tested += 1
            for layer in islice(_census(), 5):
                for p in layer:
                    if not ps.is_forest(p):
                        continue
                    if ps.linear_extension_count(p) != ps._linear_extensions_by_ideals(p):
                        return ("hook formula equals ideal DP", f"fails on {p.covers}", False)
                    tested += 1
            return ("hook formula equals ideal DP", f"{tested} forests agree", True)

        return [_Check({"kind": kind, "max_n": max_n}, run)]
    if kind == "merge-ratio":
        def run():
            tested = 0
            fixtures = [
                ps.FinitePoset(6, frozenset({(0, 1), (1, 2), (3, 2), (4, 5)})),
                perm.noninversion_poset(perm.dominant_of_shape(tb.rect_staircase(2, 3, 4))),
                perm.noninversion_poset(perm.dominant_of_shape(tb.rect_staircase(3, 1, 2))),
            ]
            for f in fixtures:
                base = ps.linear_extension_count(f)
                for (i, j) in sorted(f.covers):
                    want = Fraction(
                        ps.linear_extension_count(ps.quotient_cover(f, i, j)), base
                    )
                    if ps.forest_merge_ratio(f, i, j) != want:
                        return ("telescoped ratio equals quotient ratio", f"fails at {(i, j)}", False)
                    tested += 1
            return ("telescoped ratio equals quotient ratio", f"{tested} covers agree", True)

        return [_Check({"kind": kind}, run)]
    raise MalformedInputError(f"unknown forest kind {kind!r}")


def _suite_fk_theorem(params):
    if params.get("kind") == "leading":
        w = perm.parse_perm(params["w"])
        L = int(params["L"])

        def run():
            pol = perm.fk_polynomial(w, L)
            lead = pol.coefficient(L)
            brute = len(perm.enumerate_hecke_words(w, L))
            return (str(brute), str(lead), lead == brute)

        return [_Check({"kind": "leading", "w": params["w"], "L": L}, run)]

    n = int(params["n"])
    checks = []
    for w, _ in perm.vexillary_permutations(n):
        ell = perm.length(w)

        def run(w=w, ell=ell):
            Ls = (ell, ell + 1, ell + 2)
            words = perm.fk_polynomials(w, Ls, via="words")
            tab = perm.fk_polynomials(w, Ls, via="tableaux")
            for L, by_words, by_tableaux in zip(Ls, words, tab):
                if by_words != by_tableaux:
                    return ("two routes agree", f"differ at L={L}", False)
            return ("two routes agree", f"L={ell}..{ell+2} agree", True)

        checks.append(_Check({"n": n, "w": perm.perm_label(w)}, run))
    return checks


def _suite_conj_fk(params):
    d, a, b = int(params["d"]), int(params["a"]), int(params["b"])
    instance = {"d": d, "a": a, "b": b}

    def run():
        rep = perm.conjecture_fk_check(d, a, b)
        quotient = "none"
        if rep.quotient is not None:
            num, den = rep.quotient
            quotient = str(num) if den == 1 else f"({num})/{den}"
        predicted = f"C({rep.ell + 1},2)*(4x/{d * (a + b)}+1)"
        computed = (
            f"divides={rep.divides} quotient={quotient} "
            f"quotient_matches={rep.quotient_matches} ssyt_ratio_ok={rep.ssyt_ratio_ok}"
        )
        return (predicted, computed, rep.consistent)

    return [_Check(instance, run, conjectural=d >= 3)]


def _shifted_interval_check(instance, lam, want) -> _Check:
    """The conjecture that E(X) = E(Y) = want on the shifted interval of lam."""
    def run():
        p = tb.shifted_interval(lam)
        ex, ey = ps.expectation_X(p), ps.expectation_Y(p)
        return (str(want), f"EX={ex} EY={ey} predicted={want}", ex == ey == want)

    return _Check(instance, run, conjectural=True)


def _suite_conj_shifted_1(params):
    ell, k = int(params["l"]), int(params["k"])
    lam = tuple(ell - 2 * i for i in range(k + 1))
    instance = {"l": ell, "k": k, "shape": tb.shape_label(lam)}
    return [_shifted_interval_check(instance, lam, Fraction(sum(lam), ell + 1))]


def _shifted2_shape(a, d, e):
    staircase = tuple(range(d - 1, 0, -1))
    block = tb.rect_staircase(e, a, a)
    block = block + (0,) * (len(staircase) - len(block))
    return tuple(s + t for s, t in zip(staircase, block))


def _suite_conj_shifted_2(params):
    if params.get("kind") == "overlap":
        N = int(params["N"])

        def run():
            lam1 = tuple(2 * N - 1 - 2 * i for i in range(N))
            lam2 = _shifted2_shape(1, N + 1, N)
            v1 = Fraction(sum(lam1), 2 * N)
            v2 = Fraction(N + 1 + (N - 1), 4)
            ok = lam1 == lam2 and v1 == v2 == Fraction(N, 2)
            return (
                f"shapes coincide with value {Fraction(N, 2)}",
                f"{tb.shape_label(lam1)} vs {tb.shape_label(lam2)}: {v1} vs {v2}",
                ok,
            )

        return [_Check({"kind": "overlap", "N": N}, run)]

    a, d, e = int(params["a"]), int(params["d"]), int(params["e"])
    if d <= a * (e - 1) + 1:
        raise MalformedInputError("need d > a(e-1)+1")
    lam = _shifted2_shape(a, d, e)
    instance = {"a": a, "d": d, "e": e, "shape": tb.shape_label(lam)}
    return [_shifted_interval_check(instance, lam, Fraction(d + a * (e - 1), 4))]


def _suite_conj_vexillary_staircase(params):
    n = int(params["n"])
    checks = []
    for w, shape in perm.vexillary_permutations(n):
        dab = _staircase_params(shape)
        if dab is None:
            continue
        d, a, b = dab
        target = Fraction((d - 1) * a * b, a + b)
        cls = perm.classify(w)
        settled = cls.dominant or cls.grassmannian or cls.inverse_grassmannian
        instance = {
            "n": n,
            "w": perm.perm_label(w),
            "shape": tb.shape_label(shape),
            "params": str(dab),
            "settled": str(settled),
        }

        def run(w=w, shape=shape, target=target):
            ex, ey = perm.expectation_X_complementary(w), _young_EY(shape)
            return (str(target), f"EX={ex} EY={ey} predicted={target}", ex == ey == target)

        checks.append(_Check(instance, run, conjectural=not settled))
    return checks


def _suite_conj_mcde_product(params):
    max_elems = int(params["max_elems"])
    m_max = int(params.get("m", 6))
    instance = {"max_elems": max_elems, "m": m_max}

    def run():
        witness = search_mcde_product_counterexample(max_elems, m_max)
        if witness is None:
            return ("no counterexample", f"no counterexample up to {max_elems} elements", True)
        p, q, m = witness
        return (
            "no counterexample",
            f"violated by {sorted(p.covers)} x {sorted(q.covers)} at m={m}",
            False,
        )

    return [_Check(instance, run, conjectural=True)]


_NEGATIVE_CASES = {
    "strong-bruhat-3": ("strong-bruhat:3", Fraction(4, 3), Fraction(5, 4)),
    "ordinal-sum": ("ordinal-sum-antichains:1,2", Fraction(2, 3), Fraction(1, 2)),
    "m3": ("m3", Fraction(6, 5), Fraction(4, 3)),
}


def _suite_negatives(params):
    case = params["case"]
    instance = {"case": case}
    if case in _NEGATIVE_CASES:
        spec, want_x, want_y = _NEGATIVE_CASES[case]

        def run():
            p = build_poset(spec)
            ex, ey = ps.expectation_X(p), ps.expectation_Y(p)
            ok = ex == want_x and ey == want_y and not ps.is_CDE(p)
            return (f"EX={want_x} EY={want_y} not CDE", f"EX={ex} EY={ey}", ok)

        return [_Check(instance, run)]
    if case == "j-cube":
        def run():
            j = ps.order_ideal_lattice(_grid(2, 2, 2))
            ex, ey = ps.expectation_X(j), ps.expectation_Y(j)
            ok = ex != ey
            return ("EX != EY (not CDE)", f"EX={ex} EY={ey}", ok)

        return [_Check(instance, run)]
    raise MalformedInputError(f"unknown negative case {case!r}")


_SUITES = {
    "thm-main-a": _suite_thm_main_a,
    "thm-main-b": _suite_thm_main_b,
    "thm-main-c": _suite_thm_main_c,
    "prop-products": _suite_prop_products,
    "prop-chain-products": _suite_prop_chain_products,
    "prop-self-dual": _suite_prop_self_dual,
    "cor-tamari": _suite_cor_tamari,
    "prop-toggle": _suite_prop_toggle,
    "recurrences": _suite_recurrences,
    "bijections": _suite_bijections,
    "vexillary": _suite_vexillary,
    "forest": _suite_forest,
    "fk-theorem": _suite_fk_theorem,
    "conj-fk": _suite_conj_fk,
    "conj-shifted-1": _suite_conj_shifted_1,
    "conj-shifted-2": _suite_conj_shifted_2,
    "conj-vexillary-staircase": _suite_conj_vexillary_staircase,
    "conj-mcde-product": _suite_conj_mcde_product,
    "negatives": _suite_negatives,
}


@lru_cache(maxsize=1)
def _manifest_rows() -> tuple[tuple[str, tuple[tuple[str, str], ...]], ...]:
    rows = []
    for raw in _MANIFEST_PATH.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        params = tuple(tuple(p.split("=", 1)) for p in parts[1:])
        rows.append((parts[0], params))
    return tuple(rows)


def suite_ids() -> list[str]:
    seen = []
    for suite, _ in _manifest_rows():
        if suite not in seen:
            seen.append(suite)
    return seen


def _not_run(suite_id, instance, exc=None, conjectural=False) -> CheckReport:
    """The report of a check that gave no verdict: skipped(budget) when the
    time budget ran out before it started (exc is None), skipped(capacity)
    with the CapacityError's message, which names the layer and the size,
    when the capacity bound tripped, and error with the exception's type and
    message when it raised anything else."""
    if exc is None:
        expected, computed, status = "skipped", "not run", "skipped(budget)"
    elif isinstance(exc, CapacityError):
        expected, computed, status = "skipped", str(exc), "skipped(capacity)"
    else:
        expected, computed, status = "no exception", f"{type(exc).__name__}: {exc}", "error"
    return CheckReport(
        suite_id, instance, "conjectural" if conjectural else expected, computed, status, 0.0
    )


def run_suite(suite_id: str, budget: float = 600.0) -> list[CheckReport]:
    """Run every check of one suite, in manifest order, within a time
    budget; checks the budget leaves no time for are reported as
    skipped(budget), one report each, and a check (or a row whose checks
    cannot be built) that raises is reported as error without stopping the
    rest.  Every row's checks are built, however little budget is left."""
    if suite_id not in _SUITES:
        raise UnknownSuiteError(f"no suite named {suite_id!r}")
    rows = [(s, p) for s, p in _manifest_rows() if s == suite_id]
    if not rows:
        raise UnknownSuiteError(f"suite {suite_id!r} has no manifest rows")
    deadline = time.monotonic() + budget
    reports = []
    for _, raw_params in rows:
        params = dict(raw_params)
        try:
            checks = _SUITES[suite_id](params)
        except Exception as exc:
            reports.append(_not_run(suite_id, params, exc))
            continue
        for check in checks:
            if time.monotonic() > deadline:
                reports.append(_not_run(suite_id, check.instance, None, check.conjectural))
                continue
            start = time.monotonic()
            try:
                expected, computed, ok = check.run()
            except Exception as exc:
                reports.append(_not_run(suite_id, check.instance, exc, check.conjectural))
                continue
            elapsed = time.monotonic() - start
            if check.conjectural:
                status = "conjecture-consistent" if ok else "conjecture-violated"
                expected = "conjectural"
            else:
                status = "pass" if ok else "fail"
            reports.append(
                CheckReport(suite_id, check.instance, expected, computed, status, elapsed)
            )
    return reports


def run_all(budget: float = 600.0) -> list[CheckReport]:
    """Run every suite in manifest order under one shared budget."""
    ids = suite_ids()
    deadline = time.monotonic() + budget
    reports = []
    for suite in ids:
        remaining = deadline - time.monotonic()
        reports.extend(run_suite(suite, max(remaining, 0.0)))
    return reports


def format_reports(reports) -> str:
    """Human table, one line per report."""
    lines = []
    width = max((len(r.check_id) for r in reports), default=10)
    for r in reports:
        inst = " ".join(f"{k}={v}" for k, v in r.instance.items())
        lines.append(
            f"{r.status:<22} {r.check_id:<{width}} {inst}  expected: {r.expected}  computed: {r.computed}"
        )
    counts = {}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    lines.append(f"-- {len(reports)} checks ({summary})")
    return "\n".join(lines)
