import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cde.cli import main
from cde.errors import MalformedInputError, SizeError, UnknownSuiteError
from cde import permutations, tableaux, verify
from cde import poset as ps
from cde.permutations import parse_perm, perm_label
from cde.poset import expectation_Xm, is_forest, is_mCDE_upto, product
from cde.verify import (
    CheckReport,
    all_posets_upto_iso,
    build_poset,
    format_reports,
    run_suite,
    search_mcde_product_counterexample,
    suite_ids,
)
from cde.tableaux import parse_shape, shape_label

import bruteforce

SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_suite_ids_order():
    ids = suite_ids()
    assert ids[0] == "thm-main-a"
    assert "negatives" in ids
    assert "conj-fk" in ids
    assert len(ids) == 19


def test_every_registry_entry_has_manifest_rows_and_back():
    # a report's id is its suite's registry key, so neither side may be orphaned
    assert set(verify._SUITES) == set(suite_ids())


def test_verify_output_matches_the_pinned_campaign_digests(monkeypatch):
    # the benchmark's campaign gate, replayed in-process: every report but
    # its elapsed time matches the digests pinned in perfbench/campaign.sha256;
    # the posets it validates are counted too, a work count that no machine
    # changes, so a route that builds a poset only to walk it shows here.
    # Graded posets (J(P) and the weak, Young and shifted intervals) are
    # checked by _from_graded as they are built and make no validate call
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delenv("CDE_CAPACITY", raising=False)
    import run as bench

    validated = []
    real = ps.validate
    monkeypatch.setattr(ps, "validate", lambda p: validated.append(p.n) or real(p))
    lines = [r.to_json() for r in verify.run_all()]
    attempted, failed, _, gates = bench.check_campaign({"exit_code": 0}, lines)
    assert (attempted, failed) == (2511, 0)
    assert gates["digest_matches"], gates
    assert len(validated) == 1225


def test_recurrences_builds_no_young_interval(monkeypatch):
    # kind=rplus reads the interval's elements and covers off its ideal walk
    built = []
    real = tableaux.young_interval
    monkeypatch.setattr(tableaux, "young_interval", lambda shape: built.append(shape) or real(shape))
    reports = verify.run_suite("recurrences")
    assert reports and all(r.status == "pass" for r in reports)
    assert built == []


def test_counting_routes_build_no_poset_they_do_not_return(monkeypatch):
    # J(P), the Young interval and the census candidates are counted or keyed
    # on their cover lists; the census builds one poset per class it keeps
    validated = []
    real = ps.validate
    monkeypatch.setattr(ps, "validate", lambda p: validated.append(p.n) or real(p))
    grid = ps.product(ps.chain(3), ps.chain(3))
    validated.clear()
    assert ps.toggle_symmetry_check(grid, 3)
    assert tableaux._f_plus_by_chains((4, 3, 2, 1)) == tableaux.f_plus_one((4, 3, 2, 1))
    assert validated == []
    kept = [q.n for n in range(1, 6) for q in all_posets_upto_iso(n)]
    validated.clear()
    assert len(all_posets_upto_iso(5)) == 63
    assert sorted(validated) == kept  # 1 + 2 + 5 + 16 + 63 classes


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("no-such-suite", 1)


def test_check_report_invariants():
    with pytest.raises(MalformedInputError):
        CheckReport("x", {}, "conjectural", "1", "pass", 0.0)
    with pytest.raises(MalformedInputError):
        CheckReport("x", {}, "1", "1", "conjecture-consistent", 0.0)
    with pytest.raises(MalformedInputError):
        CheckReport("x", {}, "1", "1", "bogus", 0.0)
    ok = CheckReport("x", {"a": 1}, "conjectural", "1", "conjecture-consistent", 0.1)
    assert CheckReport.from_json(ok.to_json()) == ok
    for status in ("skipped(budget)", "skipped(capacity)"):
        skipped = CheckReport("x", {"a": 1}, "skipped", "not run", status, 0.0)
        assert CheckReport.from_json(skipped.to_json()) == skipped


def test_negatives_suite():
    reports = run_suite("negatives", 60)
    assert len(reports) == 4
    assert all(r.status == "pass" for r in reports)
    sb = next(r for r in reports if r.instance["case"] == "strong-bruhat-3")
    assert "EX=4/3" in sb.computed and "EY=5/4" in sb.computed


def test_conjecture_suites_never_pass():
    for sid in ("conj-shifted-1", "conj-mcde-product"):
        for r in run_suite(sid, 120):
            assert r.status != "pass" or r.instance.get("kind") == "overlap"


def test_conj_fk_statuses():
    reports = run_suite("conj-fk", 300)
    for r in reports:
        if int(r.instance["d"]) == 2:
            assert r.status == "pass", r
        else:
            assert r.status == "conjecture-consistent", r


def test_budget_skipping():
    # one report per check, as in a full run, not one per manifest row
    reports = run_suite("recurrences", 0.0)
    assert len(reports) == 685
    # no bound tripped: the skip names the budget as its cause
    assert all(r.status == "skipped(budget)" and r.computed == "not run" for r in reports)


def test_rerun_is_deterministic():
    a = run_suite("thm-main-a", 60)
    b = run_suite("thm-main-a", 60)
    strip = lambda rs: [(r.check_id, tuple(sorted(r.instance.items())), r.expected, r.computed, r.status) for r in rs]
    assert strip(a) == strip(b)


def test_all_posets_upto_iso_counts():
    # unlabeled poset counts on 1..5 points
    for n, want in [(1, 1), (2, 2), (3, 5), (4, 16), (5, 63)]:
        assert len(all_posets_upto_iso(n)) == want


def test_all_posets_upto_iso_of_no_elements_and_of_a_negative_count():
    assert [(p.n, p.covers) for p in all_posets_upto_iso(0)] == [(0, frozenset())]
    with pytest.raises(SizeError):
        all_posets_upto_iso(-3)


@pytest.mark.parametrize("search", [all_posets_upto_iso, search_mcde_product_counterexample])
def test_census_sizes_are_read_as_integers(search):
    with pytest.raises(MalformedInputError, match="^poset size 2.5 is not an integer$"):
        search(2.5)


def test_census_layers_are_the_posets_of_each_size(monkeypatch):
    # the searches read the census layers in one pass; layer k is the list
    # all_posets_upto_iso(k) returns, representatives and order alike.  The
    # layers are kept from the one pass that all_posets_upto_iso(6) makes, so
    # layer 6, which takes most of the time, is grown once
    layers = []
    real = verify._census

    def census():
        for layer in real():
            layers.append(layer)
            yield layer

    monkeypatch.setattr(verify, "_census", census)
    top = all_posets_upto_iso(6)
    monkeypatch.setattr(verify, "_census", real)
    assert len(layers) == 6 and layers[-1] is top
    for k, layer in enumerate(layers[:-1], start=1):
        want = all_posets_upto_iso(k)
        assert [(p.n, p.covers, p.labels) for p in layer] == [(q.n, q.covers, q.labels) for q in want]


def test_all_posets_upto_iso_representatives_pinned():
    # prop-toggle reports carry each representative's covers, so the first
    # poset seen per isomorphism class must not change
    assert [sorted(p.covers) for p in all_posets_upto_iso(4)] == [
        [],
        [(0, 3)],
        [(0, 2), (0, 3)],
        [(0, 1), (0, 2), (0, 3)],
        [(0, 1), (0, 2), (1, 3)],
        [(0, 1), (0, 2), (1, 3), (2, 3)],
        [(0, 1), (1, 2), (1, 3)],
        [(0, 2), (0, 3), (1, 3)],
        [(0, 2), (0, 3), (1, 2), (1, 3)],
        [(0, 2), (2, 3)],
        [(0, 1), (1, 2), (2, 3)],
        [(0, 2), (1, 2), (2, 3)],
        [(0, 2), (1, 3), (2, 3)],
        [(0, 3), (1, 3)],
        [(0, 3), (1, 3), (2, 3)],
        [(0, 2), (1, 3)],
    ]


def test_mcde_product_search_small():
    assert search_mcde_product_counterexample(1, 4) is None
    assert search_mcde_product_counterexample(3, 4) is None
    # chains are multichain-constant, and so are their pairwise products
    for n in range(1, 4):
        for p in all_posets_upto_iso(n):
            if is_mCDE_upto(p, 4):
                q = product(p, p)
                assert all(
                    expectation_Xm(q, m) == expectation_Xm(q, 1) for m in range(2, 5)
                )


def test_mcde_product_search_returns_the_first_witness(monkeypatch):
    # with every poset a candidate, the first witness pairs the one-point
    # poset with the 3-element poset whose one cover is (0, 2)
    monkeypatch.setattr(verify.ps, "is_mCDE_upto", lambda p, M: True)
    p, q, m = search_mcde_product_counterexample(3, 4)
    assert (p.n, sorted(p.covers), q.n, sorted(q.covers), m) == (1, [], 3, [(0, 2)], 2)
    pq = product(p, q)
    values = [expectation_Xm(pq, k) for k in range(1, m + 1)]
    assert values[:-1] == [values[0]] * (m - 1) and values[-1] != values[0]


def test_staircase_params_invert_the_search():
    shapes = set(verify._partitions_upto(12))
    for n in range(9):
        shapes |= {shape for _, shape in permutations.vexillary_permutations(n)}
    for shape in shapes:
        found = bruteforce.rect_staircase_params(shape)
        assert len(found) <= 1, shape
        assert verify._staircase_params(shape) == (found[0] if found else None), shape


def test_thm_main_c_reports_an_oversized_witness_as_skipped(monkeypatch):
    monkeypatch.setenv("CDE_CAPACITY", "60")
    reports = run_suite("thm-main-c")
    assert len(reports) == 14
    skipped = {
        (r.instance["d"], r.instance["a"], r.instance["b"])
        for r in reports
        if r.status == "skipped(capacity)"
    }
    assert skipped == {(3, 2, 2), (4, 1, 2), (4, 2, 1)}
    # a capacity skip carries the CapacityError: the layer and the size
    for r in reports:
        if r.status == "skipped(capacity)":
            assert r.computed.startswith("weak order interval needs 61 > capacity 60"), r
    assert sum(r.status == "pass" for r in reports) == 11


def test_build_poset_specs():
    assert build_poset("chain:4").n == 4
    assert build_poset("grid:2,3").n == 6
    assert build_poset("young:3,1,1").n == 10
    assert build_poset("zigzag:6").n == 6
    assert build_poset("m3").n == 5
    assert is_forest(build_poset("chain:5"))
    with pytest.raises(MalformedInputError):
        build_poset("nope:3")
    assert build_poset("zigzag:4").covers == {(0, 1), (2, 1), (2, 3)}
    assert build_poset("v").covers == {(0, 1), (0, 2)}
    assert build_poset("pabcd:1,1,2,1").n == 5
    assert build_poset("young").n == 1
    for bad in ("chain", "chain:x", "chain:3,4", "grid", "pabcd:1,2", "m3:1",
                "ordinal-sum-antichains:2", "young:3,a"):
        with pytest.raises(MalformedInputError):
            build_poset(bad)
    # hand-built posets are validated like every other builder's
    with pytest.raises(SizeError):
        build_poset("zigzag:-1")


def test_thm_main_b_precondition_is_part_of_the_verdict(monkeypatch):
    # 1432 is vexillary but neither Grassmannian nor inverse Grassmannian
    (check,) = verify._suite_thm_main_b({"w": "1432"})
    assert check.instance == {"w": "1432", "shape": "2,1"}
    assert check.run() == (
        "grassmannian or inverse_grassmannian",
        "grassmannian=False inverse_grassmannian=False",
        False,
    )
    (check,) = verify._suite_thm_main_b({"w": "2413"})
    assert check.run()[2] is True
    # 2143 is not vexillary: it has no shape, and either theorem's check
    # fails on it, naming the precondition, where it used to raise
    for builder in (verify._suite_thm_main_a, verify._suite_thm_main_b):
        (check,) = builder({"w": "2143"})
        assert check.instance == {"w": "2143"}
        assert check.run()[2] is False
    (check,) = verify._suite_thm_main_a({"w": "2143"})
    assert check.run() == ("vexillary", "vexillary=False", False)
    rows = (("thm-main-a", (("w", "2143"),)), ("thm-main-a", (("w", "321"),)))
    monkeypatch.setattr(verify, "_manifest_rows", lambda: rows)
    assert [r.status for r in run_suite("thm-main-a")] == ["fail", "pass"]


def test_format_reports_table():
    reports = run_suite("negatives", 60)
    text = format_reports(reports)
    assert "pass" in text and "4 checks" in text


def test_vexillary_staircase_instances_have_settled_flag():
    reports = run_suite("conj-vexillary-staircase", 30)
    seen_settled = seen_conj = False
    for r in reports:
        if r.status in ("skipped(budget)", "skipped(capacity)"):
            continue
        if r.instance["settled"] == "True":
            assert r.status in ("pass", "fail")
            seen_settled = True
        else:
            assert r.status in ("conjecture-consistent", "conjecture-violated")
            seen_conj = True
    assert seen_settled and seen_conj


def _counting(monkeypatch, module, name):
    """Wrap module.name so that every call is counted; returns the count list.

    The memoised interval summary is dropped first, so that a walk an earlier
    test left behind can neither hide a walk from the count nor stand in
    for one."""
    permutations._summary_at.cache_clear()
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_vexillary_staircase_makes_no_walk(monkeypatch):
    rows = [row for row in verify._manifest_rows()
            if row == ("conj-vexillary-staircase", (("n", "6"),))]
    assert len(rows) == 1
    monkeypatch.setattr(verify, "_manifest_rows", lambda: tuple(rows))
    walks = _counting(monkeypatch, permutations, "_weak_walk")
    classified = _counting(monkeypatch, permutations, "classify")
    reports = run_suite("conj-vexillary-staircase")
    assert len(reports) == 92
    assert all(r.status in ("pass", "conjecture-consistent") for r in reports)
    # E(X) comes off the ideals of N(w) and E(Y) off the shape, so no
    # interval is walked; classify runs only for the instances kept
    assert walks == []
    assert len(classified) == len(reports)


def test_fk_theorem_runs_one_dp_and_one_walk_per_instance(monkeypatch):
    rows = [row for row in verify._manifest_rows() if row == ("fk-theorem", (("n", "4"),))]
    assert len(rows) == 1
    monkeypatch.setattr(verify, "_manifest_rows", lambda: tuple(rows))
    dps = _counting(monkeypatch, permutations, "_ssyt_counts_by_shift")
    walks = _counting(monkeypatch, permutations, "_weak_walk")
    reports = run_suite("fk-theorem")
    assert len(reports) == 23
    assert all(r.status == "pass" for r in reports)
    # the tableaux route: one pass for x = 1..length+3 for each of the 23
    # vexillary w in S_4
    assert len(dps) == len(reports) == 23
    assert [tuple(args[3]) for args in dps] == [
        tuple(range(1, permutations.length(parse_perm(r.instance["w"])) + 4)) for r in reports
    ]
    # the words route: one walk per instance for L = length..length+2
    assert [perm_label(args[0]) for args in walks] == [r.instance["w"] for r in reports]


def test_flagged_dp_bound_skips_no_report_at_the_default(monkeypatch):
    # the suites that reach the flagged tableau DP, charged against the
    # default bound: none is skipped, and the largest step holds 53 states
    monkeypatch.delenv("CDE_CAPACITY", raising=False)
    charged = []
    real = tableaux._check_capacity

    def check(count, what):
        if what == "flagged tableau DP states":
            charged.append(count)
        real(count, what)

    monkeypatch.setattr(tableaux, "_check_capacity", check)
    statuses = {}
    for suite in ("recurrences", "fk-theorem", "conj-fk"):
        for r in run_suite(suite):
            statuses[r.status] = statuses.get(r.status, 0) + 1
    assert statuses == {"pass": 823, "conjecture-consistent": 6}
    assert max(charged) == 53


def _wrong_flagged_count(shape, flag, max_total):
    return {}


def _assert_rplus_fails_alone(reports):
    assert len(reports) == 685  # every report, none lost to the disagreement
    for r in reports:
        want = "fail" if r.instance["kind"] == "rplus" else "pass"
        assert r.status == want, r
    assert sum(r.status == "fail" for r in reports) == 138


def test_recurrences_report_a_wrong_flagged_count_as_rplus_failures(monkeypatch):
    monkeypatch.setattr(tableaux, "count_ssyt_by_total", _wrong_flagged_count)
    reports = run_suite("recurrences")
    _assert_rplus_fails_alone(reports)
    first = next(r for r in reports if r.status == "fail")
    assert first.computed == "(2,1) flagged=(0,0)"


def test_recurrences_report_a_wrong_flagged_count_under_optimize():
    script = (
        "import json\n"
        "import cde.tableaux as tb\n"
        "from cde.verify import run_suite\n"
        "if __debug__:\n"
        "    raise SystemExit('not running under -O')\n"
        "tb.count_ssyt_by_total = lambda shape, flag, max_total: {}\n"
        "for r in run_suite('recurrences'):\n"
        "    print(r.to_json())\n"
    )
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    _assert_rplus_fails_alone([CheckReport.from_json(line) for line in run.stdout.splitlines()])


def _raise(*args):
    raise ValueError("boom")


def test_a_raising_instance_is_an_error_report_and_the_campaign_goes_on(monkeypatch, capsys):
    rows = [row for row in verify._manifest_rows()
            if row[0] in ("cor-tamari", "negatives", "prop-self-dual")]
    monkeypatch.setattr(verify, "_manifest_rows", lambda: tuple(rows))
    monkeypatch.setitem(verify._SUITES, "negatives", _raise)  # the suite builder raises
    monkeypatch.setattr(verify.ps, "tamari", _raise)  # each cor-tamari check raises
    reports = verify.run_all(60)
    assert len(reports) == 5 + 7 + 4
    by_suite = {}
    for r in reports:
        by_suite.setdefault(r.check_id, set()).add(r.status)
    assert by_suite == {"prop-self-dual": {"pass"}, "cor-tamari": {"error"}, "negatives": {"error"}}
    errors = [r for r in reports if r.status == "error"]
    assert all(r.computed == "ValueError: boom" for r in errors)
    assert {r.instance.get("case") for r in errors} >= {"strong-bruhat-3", "j-cube"}
    assert CheckReport.from_json(errors[0].to_json()) == errors[0]
    assert main(["verify", "--suite", "all", "--budget", "60"]) == 1
    assert "error" in capsys.readouterr().out


def test_manifest_perms_and_shapes_print_back_unchanged():
    seen = 0
    for _, params in verify._manifest_rows():
        for key, text in params:
            if key == "w":
                assert perm_label(parse_perm(text)) == text
                seen += 1
            elif key == "shape":
                assert shape_label(parse_shape(text)) == text
                seen += 1
    assert seen == 24


def test_fplus_row_enumerates_up_to_size_8_and_counts_chains_for_all(monkeypatch):
    enumerated = _counting(monkeypatch, tableaux, "enumerate_standard_barely")
    by_chains = _counting(monkeypatch, tableaux, "_f_plus_by_chains")
    checks = verify._suite_recurrences({"kind": "fplus", "max_size": "10"})
    assert all(check.run()[2] for check in checks)
    assert len(checks) == len(by_chains) == 138
    assert len(enumerated) == 66
    assert max(sum(shape) for (shape,) in enumerated) == 8


def test_staircase_suite_reads_EX_off_the_ideals_and_EY_off_the_shape(monkeypatch):
    routes = _counting(monkeypatch, permutations, "expectation_X_complementary")
    shapes = _counting(monkeypatch, verify, "_young_EY")
    summaries = _counting(monkeypatch, permutations, "_summary_at")  # last: it clears the memo
    checks = verify._suite_conj_vexillary_staircase({"n": "6"})
    assert all(check.run()[2] for check in checks)
    assert len(checks) == 92
    assert summaries == []
    assert [perm_label(w) for (w,) in routes] == [c.instance["w"] for c in checks]
    assert [shape_label(shape) for (shape,) in shapes] == [c.instance["shape"] for c in checks]


def test_the_walks_EY_equals_the_shape_value_on_every_staircase_row():
    # the staircase suite reads E(Y) off the shape, which the vexillary word
    # counts settle; this keeps the walk's own E(Y) checked on its 828 w
    count = 0
    for n in range(3, 9):
        for check in verify._suite_conj_vexillary_staircase({"n": str(n)}):
            w, shape = parse_perm(check.instance["w"]), parse_shape(check.instance["shape"])
            assert permutations.interval_summary(w).EY == verify._young_EY(shape), w
            count += 1
    assert count == 828


