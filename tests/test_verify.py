from fractions import Fraction

import pytest

from cde.errors import MalformedInputError, SizeError, UnknownSuiteError
from cde import verify
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


def test_suite_ids_order():
    ids = suite_ids()
    assert ids[0] == "thm-main-a"
    assert "negatives" in ids
    assert "conj-fk" in ids
    assert len(ids) == 19


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
    reports = run_suite("recurrences", 0.0)
    assert reports
    assert all(r.status == "skipped(capacity)" for r in reports)


def test_rerun_is_deterministic():
    a = run_suite("thm-main-a", 60)
    b = run_suite("thm-main-a", 60)
    strip = lambda rs: [(r.check_id, tuple(sorted(r.instance.items())), r.expected, r.computed, r.status) for r in rs]
    assert strip(a) == strip(b)


def test_all_posets_upto_iso_counts():
    # unlabeled poset counts on 1..5 points
    for n, want in [(1, 1), (2, 2), (3, 5), (4, 16), (5, 63)]:
        assert len(all_posets_upto_iso(n)) == want


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


def test_thm_main_b_precondition_is_part_of_the_verdict():
    # 1432 is vexillary but neither Grassmannian nor inverse Grassmannian
    (check,) = verify._suite_thm_main_b({"w": "1432"})
    assert check.run()[2] is False
    (check,) = verify._suite_thm_main_b({"w": "2413"})
    assert check.run()[2] is True


def test_format_reports_table():
    reports = run_suite("negatives", 60)
    text = format_reports(reports)
    assert "pass" in text and "4 checks" in text


def test_vexillary_staircase_instances_have_settled_flag():
    reports = run_suite("conj-vexillary-staircase", 30)
    seen_settled = seen_conj = False
    for r in reports:
        if r.status == "skipped(capacity)":
            continue
        if r.instance["settled"] == "True":
            assert r.status in ("pass", "fail")
            seen_settled = True
        else:
            assert r.status in ("conjecture-consistent", "conjecture-violated")
            seen_conj = True
    assert seen_settled and seen_conj
