"""Per-layer tracing of ``cde`` from outside the program.

The tracer rebinds the public entry points of each ``cde`` module to
wrappers, in every namespace that bound the same object (``from .poset
import _check_capacity`` makes a second binding in ``tableaux`` and
``permutations``; ``__rmul__ = __mul__`` a second one on the class).  The
layers are the package's modules.

Three kinds of entry point:

- spanned: counts calls and records a span (name, start, end, parent,
  request) for each outermost call; busy time is inclusive and counted for
  outermost calls only, so recursion is not double counted;
- enumerators: spanned, and also count the length of each result;
- counted: hot or recursive entry points that only count calls, because a
  span per call would cost more than the work it measures.

Spans stay in memory and are written out once, at the end of the run.
A module's self time is the time of its spans minus the part covered by
their child spans.
"""

from __future__ import annotations

import json
import sys
import types
from collections import defaultdict
from time import perf_counter

LIBRARY = ("tableaux", "permutations", "poset", "core")
MODULES = LIBRARY + ("verify", "cli")

SPANNED = (
    "tableaux.count_ssyt_by_total",
    "tableaux.uncrowd",
    "tableaux.crowd",
    "tableaux.R_and_Rplus",
    "tableaux.rank_generating_function",
    "tableaux.young_interval",
    "tableaux.shifted_interval",
    "permutations.weak_interval",
    "permutations.count_nearly_reduced",
    "permutations.expectation_X_complementary",
    "permutations.expectation_Y_words",
    "permutations.classify",
    "permutations.conjecture_fk_check",
    "poset.multichain_counts",
    "poset.expectation_Xm",
    "poset.is_mCDE_upto",
    "poset.stats",
    "poset.order_ideal_lattice",
    "poset.toggle_symmetry_check",
    "poset.linear_extension_count",
    "poset.validate",
    "poset.load_poset",
    "poset.product",
    "poset.canonical_key",
    "core.interpolate_integer_polynomial",
    "core.poly_divides",
)
ENUMERATORS = (
    "tableaux.enumerate_standard_barely",
    "tableaux.enumerate_ssyt",
    "permutations.weak_interval_elements",
    "permutations.enumerate_hecke_words",
    "poset.order_ideals",
)
COUNTED = (
    "poset._check_capacity",
    "permutations.count_reduced",
    "core.IntPolynomial.__mul__",
)
FK_ROUTES = ("words", "tableaux")
SUITES = (
    "fk-theorem",
    "recurrences",
    "conj-vexillary-staircase",
    "vexillary",
    "conj-fk",
    "bijections",
)


def metric_units() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for key in SPANNED + ENUMERATORS + tuple(f"permutations.fk_polynomial.{r}" for r in FK_ROUTES):
        out += [(f"{key}.calls", "count", "lower"), (f"{key}.busy_s", "s", "lower")]
        if key in ENUMERATORS:
            out.append((f"{key}.items", "count", "lower"))
    out += [(f"{key}.calls", "count", "lower") for key in COUNTED]
    out += [(f"verify.suite.{s}.wall_s", "s", "lower") for s in SUITES + ("other",)]
    out += [(f"{m}.self_s", "s", "lower") for m in MODULES]
    out.sort(key=lambda row: (MODULES.index(row[0].split(".")[0]), row[0]))
    return out + [
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.covered_share", "ratio", "higher"),
    ]


class Tracer:
    """Installs wrappers on construction; ``uninstall`` puts the originals
    back.  The owner sets ``request`` to tag the spans of each query."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.items = defaultdict(int)
        self.busy = defaultdict(float)
        self.spans: list = []
        self.request = 0
        self._stack: list[int] = []
        self._active: set[str] = set()
        self._undo: list = []
        mods = {name.split(".")[-1]: mod for name, mod in sys.modules.items() if name.startswith("cde.")}
        self._modules = list(mods.values())
        for key in SPANNED + ENUMERATORS:
            module, name = key.split(".")
            self._rebind(mods[module], name, self._spanned(key in ENUMERATORS, lambda a, k, key=key: key))
        for key in COUNTED:
            module, *path = key.split(".")
            owner = mods[module] if len(path) == 1 else getattr(mods[module], path[0])
            self._rebind(owner, path[-1], self._counted(key))
        self._rebind(mods["permutations"], "fk_polynomial", self._spanned(False, _fk_key))
        self._rebind(mods["verify"], "run_suite", self._spanned(False, _suite_key))
        self._rebind(mods["cli"], "main", self._spanned(False, lambda a, k: "cli.main"))

    def _rebind(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` by a wrapper wherever the same object is
        bound: in every ``cde`` module for a function, in the class for a
        method."""
        original = vars(owner)[name]
        wrapper = make(original)
        scope = self._modules if isinstance(owner, types.ModuleType) else [owner]
        for obj in scope:
            for attr, value in list(vars(obj).items()):
                if value is original:
                    self._undo.append((obj, attr, value))
                    setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    def _counted(self, key: str):
        calls = self.calls

        def make(fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def _spanned(self, count_items: bool, key_of):
        calls, items, busy = self.calls, self.items, self.busy
        spans, stack, active = self.spans, self._stack, self._active

        def make(fn):
            def spanned(*args, **kwargs):
                key = key_of(args, kwargs)
                calls[key] += 1
                if key in active:  # re-entrant: only the outermost call is timed
                    return fn(*args, **kwargs)
                active.add(key)
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    active.discard(key)
                    spans[index] = (key, start, end, parent, self.request)
                    busy[key] += end - start
                if count_items:
                    items[key] += len(result)
                return result

            return spanned

        return make

    def self_times(self) -> dict[str, float]:
        inner = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        out = dict.fromkeys(MODULES, 0.0)
        for i, (key, start, end, _, _) in enumerate(self.spans):
            out[key.split(".")[0]] += end - start - inner[i]
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of ``metric_units``."""
        self_s = self.self_times()
        out = {}
        for name, _, _ in metric_units():
            if name.startswith("trace."):
                continue  # filled in by run.py, which sees both runs
            key, field = name.rsplit(".", 1)
            if field == "self_s":
                out[name] = self_s[key]
            elif field == "calls":
                out[name] = self.calls[key]
            elif field == "items":
                out[name] = self.items[key]
            else:  # busy_s, and wall_s of a suite
                out[name] = self.busy[key]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for key, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": key, "start": start, "end": end, "parent": parent, "request": request}) + "\n")


def _fk_key(args, kwargs) -> str:
    via = kwargs.get("via", args[2] if len(args) > 2 else "words")
    return f"permutations.fk_polynomial.{via}"


def _suite_key(args, kwargs) -> str:
    suite = kwargs.get("suite_id", args[0] if args else None)
    return f"verify.suite.{suite if suite in SUITES else 'other'}"
