"""Every library check raises a real error, so none is lost under python -O."""

import ast
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    # neither `assert` nor `raise AssertionError`: a library check raises a
    # CdeError, and comparing two routes is the verify suites' job
    for path in sorted((SRC / "cde").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert) or _raises_assertion_error(node)
        ]
        assert not lines, f"{path.name} asserts on lines {lines}"


def test_library_reads_every_name_it_imports():
    # a module-level import that nothing reads, nor __all__ exports, is dead
    for path in sorted((SRC / "cde").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {
            elt.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for elt in node.value.elts
        }
        unused = sorted(name for name in bound if name not in read | exported)
        assert not unused, f"{path.name} imports {unused} and never reads them"


def test_sources_parse_under_the_oldest_supported_grammar():
    # pyproject.toml admits Python 3.10, so no 3.11+ syntax (except*, def
    # f[T], ...); this reads the grammar only, not which library calls exist
    for path in sorted((SRC / "cde").rglob("*.py")) + sorted(TESTS.rglob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_every_module_stays_under_the_parser_token_array():
    # CPython 3.11's parser holds a module's tokens in an array that doubles
    # once it passes 8,192 of them; a module compiled from source (with no
    # bytecode cache) then peaks ~0.46 MB higher, and poset.py at 8,269
    # tokens raised the campaign benchmark's peak_rss_mb by 0.27 MB.  Comments
    # and blank lines never reach the parser, so they are not counted
    unparsed = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    for path in sorted((SRC / "cde").glob("*.py")):
        with path.open("rb") as source:
            count = sum(tok.type not in unparsed for tok in tokenize.tokenize(source.readline))
        assert count < 8192, (
            f"{path.name} has {count} tokens: past 8,192, CPython 3.11 doubles its parser "
            "token array, and campaign peak_rss_mb rose 0.27 MB when poset.py crossed it"
        )


def test_library_imports_only_at_module_level():
    # an import inside a function runs on every call and hides a dependency
    for path in sorted((SRC / "cde").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [
            inner.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node)
            if isinstance(inner, (ast.Import, ast.ImportFrom))
        ]
        assert not lines, f"{path.name} imports inside a function on lines {lines}"


def test_only_construction_the_chain_table_and_the_lattice_write_to_a_poset():
    # a poset is immutable once built; its chain table and the J(P) last
    # returned for it are two values filled in later, each by the one
    # function that keeps it, and each of those sets only its own attribute.
    # Construction has two entries, pairs (__init__) and graded lower lists
    # (_from_graded); they set construction fields only.  The other two
    # values filled in later are the class's cached properties, which the
    # property itself stores on first read
    tree = ast.parse((SRC / "cde" / "poset.py").read_text())
    cls = next(node for node in tree.body if getattr(node, "name", None) == "FinitePoset")
    cached = {
        node.name
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and any(getattr(d, "id", None) == "cached_property" for d in node.decorator_list)
    }
    assert cached == {"labels", "upper_covers"}
    writers = [node for node in cls.body if getattr(node, "name", None) == "__init__"]
    writers += [
        node
        for node in tree.body
        if getattr(node, "name", None) in ("_from_graded", "_chain_table", "order_ideal_lattice")
    ]
    assert len(writers) == 4
    construction = {"n", "labels", "lower_covers", "order", "level", "_items", "_name"}
    own = {"_chain_table": {"_chains"}, "order_ideal_lattice": {"_lattice"}}

    def writer(node) -> str | None:
        return next((f.name for f in writers if f.lineno <= node.lineno <= f.end_lineno), None)

    writes = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    ]
    lines = [node.lineno for node in writes if writer(node) is None]
    assert not lines, f"poset.py writes to an object after construction on lines {lines}"
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in writes:
        call = calls.get(id(node))
        attr = call.args[1] if call is not None and len(call.args) == 3 else None
        allowed = own.get(writer(node), construction)
        assert getattr(attr, "value", None) in allowed, (writer(node), node.lineno)


def test_only_the_chain_table_builds_chain_tables():
    # the kept table is the one build, toggle symmetry reading J(P)'s; every
    # packed row is read through `_columns`, and no other reader is left
    tree = ast.parse((SRC / "cde" / "poset.py").read_text())
    builders = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        for inner in ast.walk(node)
        if isinstance(inner, ast.Call) and getattr(inner.func, "id", None) == "_build_chain_table"
    }
    assert builders == {"_chain_table"}
    for path in sorted((SRC / "cde").rglob("*.py")):
        assert "_unpack_rows" not in path.read_text(), path.name


def test_library_reads_the_stored_topological_order():
    # a poset derives its order once, on construction; the library reads
    # `p.order`, and `topological_order()` is a copy for callers outside it
    for path in sorted((SRC / "cde").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [
            inner.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node)
            if isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Attribute)
            and inner.func.attr == "topological_order"
        ]
        assert not lines, f"{path.name} calls .topological_order( on lines {lines}"


def test_only_the_permutations_module_reads_the_interval_layout():
    # the private fields of IntervalSummary are the walk's layout, "read only
    # in this module"; every other module reads the public fields
    path = SRC / "cde" / "permutations.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    cls = next(node for node in tree.body if getattr(node, "name", None) == "IntervalSummary")
    private = {
        node.target.id
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and node.target.id.startswith("_")
    }
    assert private == {"_below", "_starts"}
    for path in sorted((SRC / "cde").rglob("*.py")):
        if path.name == "permutations.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in private
        ]
        assert not lines, f"{path.name} reads the interval layout on lines {lines}"


# (setup, call, error): after `setup`, `call` must raise `error`
_CHECKS = [
    ("", "tb.add_corner((2, 1), (1, 2))", "NotCornerError"),
    ("", "tb.add_corner((2, 2), (2, 3))", "NotCornerError"),
    ("", "tb.remove_corner((2, 2), (1, 2))", "NotCornerError"),
    ("tb._hook_lengths = lambda shape: [[7]]", "tb.hook_f((2, 1))", "ReconciliationError"),
    (
        "tb._hook_lengths = lambda shape: [[7, 1], [1]]",
        "tb.hook_content_count((2, 1), 2)",
        "ReconciliationError",
    ),
    (
        "ps._down_set_sizes = lambda p: [7] * p.n",
        "ps.linear_extension_count(ps.chain(3))",
        "ReconciliationError",
    ),
    ("", "tb.chain_to_standard(((), (1,), (1, 1), (2,)))", "MalformedInputError"),
    ("", "tb.triple_to_barely(((), (1,), (2,)), (3,), (2,))", "MalformedInputError"),
    ("", "ps.expectation_under_multichain(ps.chain(2), 1, [0.5, 1])", "MalformedInputError"),
    ("", "ps.expectation_under_multichain(ps.chain(3), 2, None)", "MalformedInputError"),
    ("import cde.permutations as pm", "pm.grassmannian_of_shape((1, 3))", "MalformedInputError"),
    ("", "ps.load_poset('n 2\\nlabel 5 x\\n')", "MalformedInputError"),
    ("", "ps.FinitePoset(3, {(0, 3)})", "MalformedInputError"),
    ("", "ps.FinitePoset(3, {(-1, 0)})", "MalformedInputError"),
    ("import cde.permutations as pm", "pm.classify((1, 1))", "MalformedInputError"),
    (
        "import os, cde.permutations as pm; os.environ['CDE_CAPACITY'] = '40400'",
        "pm.fk_polynomial((2, 1), 200, via='tableaux')",
        "CapacityError",
    ),
    ("", "ps.boolean(20000)", "CapacityError"),
    ("import cde.permutations as pm", "pm.fk_polynomial((2, 1), 99999999999999)", "CapacityError"),
    ("import cde.permutations as pm", "pm.left_factor_check((1, 2), (1, 2, 3))", "MalformedInputError"),
    ("import cde.permutations as pm", "pm.check_permutation((2.5, 1))", "MalformedInputError"),
    ("", "tb.check_partition((2.9, 1))", "MalformedInputError"),
    ("", "tb.count_ssyt_by_total((2, 1), (2.9, 3), 4)", "MalformedInputError"),
    ("", "tb.count_ssyt_by_total((2, 1), (2, 3), 2.5)", "MalformedInputError"),
    ("", "tb.uncrowd(tb.SetValuedTableau((((1, 2), (1,)),)))", "MalformedInputError"),
    (
        "from fractions import Fraction; from cde.core import IntPolynomial",
        "IntPolynomial((Fraction(1, 2), 1))",
        "MalformedInputError",
    ),
    ("", "tb.young_interval(None)", "MalformedInputError"),
    ("import cde.permutations as pm", "pm.enumerate_hecke_words((2, 1), 2.5)", "MalformedInputError"),
    (
        "from fractions import Fraction; import cde.permutations as pm",
        "pm.fk_polynomials((2, 1), (3, Fraction(7, 2)))",
        "MalformedInputError",
    ),
    ("", "ps.multichain_counts(ps.chain(3), 1.0)", "MalformedInputError"),
    ("", "ps._multichain_expectations(ps.chain(3), 2.0)", "MalformedInputError"),
    ("", "ps.is_mCDE_upto(ps.chain(3), 1.5)", "MalformedInputError"),
    ("", "ps.toggle_symmetry_check(ps.antichain(30), 0)", "SizeError"),
    ("", "ps.FinitePoset(2, {(0.0, 1)})", "MalformedInputError"),
    # the graded hand-off: a descending list, a cover that skips a level, one
    # within a level, an element above level 0 with no lower cover, rank
    # sizes that miss the element count, and the wrong label count
    ("", "ps._from_graded(((), (), (1, 0)), (2, 1), 'abc')", "MalformedInputError"),
    ("", "ps._from_graded(((), (0,), (0,)), (1, 1, 1), 'abc')", "MalformedInputError"),
    ("", "ps._from_graded(((), (0,), (1,)), (1, 2), 'abc')", "MalformedInputError"),
    ("", "ps._from_graded(((), (0,), ()), (1, 2), 'abc')", "MalformedInputError"),
    ("", "ps._from_graded(((), (0,)), (1, 2), 'ab')", "MalformedInputError"),
    ("", "ps._from_graded(((), (0,)), (1, 1), 'a')", "MalformedInputError"),
]


def _run_optimized(script: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize("setup, call, error", _CHECKS)
def test_check_raises_under_optimize(setup, call, error):
    script = (
        "import cde.poset as ps\n"
        "import cde.tableaux as tb\n"
        f"from cde.errors import {error}\n"
        "if __debug__:\n"
        "    raise SystemExit('not running under -O')\n"
        f"{setup}\n"
        "try:\n"
        f"    {call}\n"
        f"except {error}:\n"
        "    raise SystemExit(0)\n"
        f"raise SystemExit({call!r} + ' raised nothing')\n"
    )
    run = _run_optimized(script)
    assert run.returncode == 0, run.stderr


def test_perm_text_round_trip_under_optimize():
    # labels run together up to n = 9 and take commas from n = 10 on
    script = (
        "import random\n"
        "from cde.permutations import parse_perm, perm_label\n"
        "if __debug__:\n"
        "    raise SystemExit('not running under -O')\n"
        "rng = random.Random(12)\n"
        "for n in range(1, 13):\n"
        "    for _ in range(20):\n"
        "        w = tuple(rng.sample(range(1, n + 1), n))\n"
        "        text = perm_label(w)\n"
        "        if parse_perm(text) != w or (',' in text) != (n >= 10):\n"
        "            raise SystemExit(f'{w} -> {text!r}')\n"
    )
    run = _run_optimized(script)
    assert run.returncode == 0, run.stderr + run.stdout


def test_cli_fuzz_under_optimize():
    # the exit-code fuzz of test_cli, once, with every assert stripped
    script = (
        "import os, sys\n"
        f"sys.path.insert(0, {str(TESTS)!r})\n"
        "import cli_fuzz\n"
        "if __debug__:\n"
        "    raise SystemExit('not running under -O')\n"
        "os.environ['CDE_CAPACITY'] = '3000'\n"
        "bad = cli_fuzz.fuzz(seed=7, calls=1000)\n"
        "if bad:\n"
        "    raise SystemExit(repr(bad[:3]))\n"
    )
    run = _run_optimized(script)
    assert run.returncode == 0, run.stderr + run.stdout
