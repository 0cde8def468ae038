"""Acceptance gate: every criterion below runs at its stated budget and
prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`
(or `-rP`) to see the lines."""

import random
import time
from fractions import Fraction

from cde.core import IntPolynomial, chu_vandermonde_check, poly_divides
from cde.permutations import (
    classify,
    expectation_X_complementary,
    expectation_Y_words,
    fk_polynomial,
    weak_interval,
)
from cde.poset import expectation_X, expectation_Xm, expectation_Y
from cde.tableaux import (
    enumerate_standard_barely,
    f_plus_one,
    hook_f,
    rect_staircase,
    young_interval,
)
from cde.verify import run_suite


def _report(criterion: str, ok: bool, elapsed: float, budget: float):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {criterion} failed"
    assert elapsed < budget, f"criterion {criterion} overran its budget"


def test_criterion_1_shape_21_golden():
    start = time.monotonic()
    ok = hook_f((2, 1)) == 2
    ok = ok and f_plus_one((2, 1)) == 8
    listed = enumerate_standard_barely((2, 1))
    paper_list = {
        (((1, 2), (3,)), ((4,),)),
        (((1, 2), (4,)), ((3,),)),
        (((1,), (2, 3)), ((4,),)),
        (((1,), (4,)), ((2, 3),)),
        (((1,), (2, 4)), ((3,),)),
        (((1,), (3,)), ((2, 4),)),
        (((1,), (2,)), ((3, 4),)),
        (((1,), (3, 4)), ((2,),)),
    }
    ok = ok and {t.rows for t in listed} == paper_list
    # documented ordering: sorted row-major cell tuples
    ok = ok and [t.rows for t in listed] == sorted(paper_list)
    # (|shape|+1) * (d-1)ab/(a+b) * f at (d,a,b)=(3,1,1)
    ok = ok and (3 + 1) * Fraction(2 * 1 * 1, 1 + 1) * 2 == 8
    _report("1 (shape 2,1 golden values)", ok, time.monotonic() - start, 1.0)


def test_criterion_2_rectangular_staircase_grid():
    start = time.monotonic()
    reports = run_suite("thm-main-c", budget=590)
    grid = {
        (d, a, b)
        for d in range(2, 5)
        for a in range(1, 3)
        for b in range(1, 4)
        if sum(rect_staircase(d, a, b)) <= 16
    }
    covered = {
        (int(r.instance["d"]), int(r.instance["a"]), int(r.instance["b"]))
        for r in reports
    }
    ok = covered == grid and all(r.status == "pass" for r in reports)
    _report("2 (staircase-of-rectangles grid)", ok, time.monotonic() - start, 600.0)


def test_criterion_3_example_golden_quadruple():
    start = time.monotonic()
    p = young_interval((3, 1, 1))
    ok = expectation_X(p) == Fraction(13, 10) and expectation_Y(p) == Fraction(23, 18)
    for w, want_x in [
        ((2, 3, 6, 1, 4, 5), Fraction(13, 10)),
        ((4, 2, 3, 1), Fraction(5, 4)),
        ((2, 5, 3, 1, 4), Fraction(14, 11)),
    ]:
        ok = ok and expectation_X_complementary(w) == want_x
        ok = ok and expectation_Y_words(w) == Fraction(23, 18)
    _report("3 (golden expectation quadruple)", ok, time.monotonic() - start, 5.0)


def test_criterion_4_multichain_closed_form():
    start = time.monotonic()
    p = weak_interval((5, 3, 1, 2, 4))
    ok = True
    for m in range(1, 11):
        want = Fraction(
            2 * (14 * m**3 + 111 * m**2 + 199 * m + 76),
            21 * m**3 + 168 * m**2 + 299 * m + 112,
        )
        ok = ok and expectation_Xm(p, m) == want
    _report("4 (multichain expectation closed form)", ok, time.monotonic() - start, 30.0)


def test_criterion_5_fk_identities():
    start = time.monotonic()
    x1, x2, q = IntPolynomial.x_plus(1), IntPolynomial.x_plus(2), IntPolynomial((3, 2))
    fk3 = fk_polynomial((3, 2, 1), 3)
    fk4 = fk_polynomial((3, 2, 1), 4)
    ok = fk3 == x1 * x2 * q and fk4 == 2 * x1 * x2 * q * q
    division = poly_divides(fk3, fk4)
    ok = ok and division == (IntPolynomial((6, 4)), 1)
    reports = run_suite("fk-theorem", budget=110)
    ok = ok and all(r.status == "pass" for r in reports)
    ns = {int(r.instance["n"]) for r in reports if "n" in r.instance}
    ok = ok and ns == {4, 5}
    _report("5 (FK identities and two-route agreement)", ok, time.monotonic() - start, 120.0)


def test_criterion_6_fk_conjecture_statuses():
    start = time.monotonic()
    reports = run_suite("conj-fk", budget=290)
    ok = bool(reports)
    d2 = [r for r in reports if int(r.instance["d"]) == 2]
    d3 = [r for r in reports if int(r.instance["d"]) >= 3]
    pairs = {(int(r.instance["a"]), int(r.instance["b"])) for r in d2}
    ok = ok and pairs == {(a, b) for a in range(1, 4) for b in range(1, 4)}
    ok = ok and all(r.status == "pass" for r in d2)
    ok = ok and d3 and all(
        r.status in ("conjecture-consistent", "conjecture-violated") for r in d3
    )
    _report("6 (FK divisibility: theorem at d=2, reports at d=3)", ok, time.monotonic() - start, 300.0)


def test_criterion_7_property_suites():
    start = time.monotonic()
    ok = True
    # uncrowd/crowd round trips |shape| <= 7 and flagged variants
    for r in run_suite("bijections", budget=580):
        ok = ok and r.status == "pass"
    # recurrences against brute force: R(shape,q) <= 10, f+ recurrence vs
    # chain count <= 10, vs enumeration <= 8, R/R+ <= 10, corner-content mean
    # zero <= 12
    reports = run_suite("recurrences", budget=580)
    ok = ok and all(r.status == "pass" for r in reports)
    sizes = {
        r.instance["kind"]: max(
            sum(int(v) for v in r2.instance["shape"].split(","))
            for r2 in reports
            if r2.instance["kind"] == r.instance["kind"]
        )
        for r in reports
    }
    ok = ok and sizes["fplus"] >= 10 and sizes["rankgf"] >= 10
    ok = ok and sizes["rplus"] >= 10 and sizes["kerov"] >= 12
    # toggle symmetry on ideal lattices, bases up to 8 elements, m <= 4
    toggles = run_suite("prop-toggle", budget=580)
    ok = ok and all(r.status == "pass" for r in toggles)
    # forest hook-length formula vs the ideal DP, <= 9 elements
    ok = ok and all(r.status == "pass" for r in run_suite("forest", budget=580))
    # word counts match tableau counts for vexillary permutations in S5
    vex = run_suite("vexillary", budget=580)
    ok = ok and all(r.status == "pass" for r in vex)
    ok = ok and any(r.instance.get("n") == 5 for r in vex)
    # Chu-Vandermonde random checks
    rng = random.Random(321)
    done = 0
    while done < 100:
        m = rng.randint(0, 8)
        B = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        C = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if any(C + k == 0 for k in range(m)):
            continue
        ok = ok and chu_vandermonde_check(m, B, C)
        done += 1
    _report("7 (property suites)", ok, time.monotonic() - start, 600.0)


def test_criterion_8_negative_examples():
    start = time.monotonic()
    reports = run_suite("negatives", budget=9)
    ok = len(reports) == 4 and all(r.status == "pass" for r in reports)
    cases = {r.instance["case"] for r in reports}
    ok = ok and cases == {"strong-bruhat-3", "ordinal-sum", "m3", "j-cube"}
    _report("8 (negative examples reproduce)", ok, time.monotonic() - start, 10.0)
