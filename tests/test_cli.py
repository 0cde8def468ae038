import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cde import permutations, poset, verify
from cde.cli import main
from cde.core import IntPolynomial
from cde.poset import dump_poset, pabcd

import cli_fuzz


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--emit", "json", *argv)
    assert code == 0, err
    return json.loads(out)


def test_poset_help_names_every_builder(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the help to this width
    with pytest.raises(SystemExit) as exc:
        main(["poset", "stats", "--help"])
    assert exc.value.code == 0
    named = set(capsys.readouterr().out.split())
    assert set(verify._BUILDERS) <= named, set(verify._BUILDERS) - named


def test_young_stats(capsys):
    data = run_json(capsys, "young", "stats", "--shape", "2,1")
    assert data["f"] == 2
    assert data["f_plus"] == 8
    assert data["EX"] == "1"
    assert data["EY"] == "1"


def test_young_stats_311(capsys):
    data = run_json(capsys, "young", "stats", "--shape", "3,1,1")
    assert data["EX"] == "13/10"
    assert data["EY"] == "23/18"
    assert data["R"] == 10 and data["R_plus"] == 13
    assert data["f"] == 6


def test_perm_stats(capsys):
    data = run_json(capsys, "perm", "stats", "--w", "25314")
    assert data["vexillary"] is True
    assert data["shape"] == "3,1,1"
    assert data["EX"] == "14/11"
    assert data["EY"] == "23/18"
    data = run_json(capsys, "perm", "stats", "--w", "4231")
    assert data["EX"] == "5/4"
    assert data["dominant"] is True


def test_perm_stats_xm(capsys):
    data = run_json(capsys, "perm", "stats", "--w", "53124", "--xm", "3")
    assert data["EX^(1)"] == "4/3"
    assert data["EX^(2)"] == "206/155"
    assert data["is_mCDE_upto_3"] is False


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ("--w", "25314"),
            (
                '{"EX": "14/11", "EY": "23/18", "code": "1,3,1,0,0", "descents": "2,3", '
                '"dominant": false, "flag": "2,2,3", "grassmannian": false, '
                '"interval_size": 11, "inverse_grassmannian": false, "is_CDE": false, '
                '"length": 5, "n": 5, "nearly_reduced_words": 46, "reduced_words": 6, '
                '"shape": "3,1,1", "vexillary": true, "w": "25314"}'
            ),
        ),
        (
            ("--w", "53124", "--xm", "3"),
            (
                '{"EX": "4/3", "EX^(1)": "4/3", "EX^(2)": "206/155", '
                '"EX^(3)": "1025/772", "EY": "4/3", "code": "4,2,0,0,0", '
                '"descents": "1,2", "dominant": true, "flag": "1,2", '
                '"grassmannian": false, "interval_size": 15, '
                '"inverse_grassmannian": false, "is_CDE": true, "is_mCDE_upto_3": false, '
                '"length": 6, "n": 5, "nearly_reduced_words": 84, "reduced_words": 9, '
                '"shape": "4,2", "vexillary": true, "w": "53124"}'
            ),
        ),
        (
            ("--word", "1,2,1,1"),
            (
                '{"EX": "1", "EY": "1", "code": "2,1,0", "descents": "1,2", '
                '"dominant": true, "flag": "1,2", "grassmannian": false, '
                '"interval_size": 6, "inverse_grassmannian": false, "is_CDE": true, '
                '"length": 3, "n": 3, "nearly_reduced_words": 8, "reduced_words": 2, '
                '"shape": "2,1", "vexillary": true, "w": "321"}'
            ),
        ),
    ],
    ids=["w-25314", "w-53124-xm-3", "word-1,2,1,1"],
)
def test_perm_stats_walks_the_interval_once(capsys, monkeypatch, argv, line):
    permutations._summary_at.cache_clear()  # no summary memoised by an earlier test
    walks = []
    real = permutations._weak_walk
    monkeypatch.setattr(permutations, "_weak_walk", lambda w: walks.append(w) or real(w))
    code, out, _ = run_cli(capsys, "--emit", "json", "perm", "stats", *argv)
    assert code == 0
    assert out == line + "\n"
    assert len(walks) == 1


def test_poset_stats_xm_builds_one_chain_table(capsys, monkeypatch):
    sizes = []
    real = poset._chain_table
    monkeypatch.setattr(poset, "_chain_table", lambda p, size: sizes.append(size) or real(p, size))
    data = run_json(capsys, "poset", "stats", "--builder", "boolean", "--n", "3", "--xm", "8")
    assert [data[f"EX^({m})"] for m in range(1, 9)] == ["3/2"] * 8
    assert data["is_mCDE_upto_8"] is True
    assert sizes == [8]


def test_fk_command(capsys):
    data = run_json(capsys, "fk", "--w", "321", "--L", "3")
    assert data["coefficients"] == [6, 13, 9, 2]
    data = run_json(capsys, "fk", "--w", "321", "--L", "4", "--via", "both")
    assert data["agreement"] is True
    # 2(x+1)(x+2)(2x+3)^2, constant term first
    assert data["coefficients"] == [36, 102, 106, 48, 8]


_FK_BOTH = {
    ("321", "4"): ([36, 102, 106, 48, 8], "8x^4+48x^3+106x^2+102x+36"),
    ("2413", "6"): ([2640, 8656, 11508, 8000, 3080, 624, 52], "52x^6+624x^5+3080x^4+8000x^3+11508x^2+8656x+2640"),
}


@pytest.mark.parametrize("w, L", sorted(_FK_BOTH))
def test_fk_via_both_prints_the_pinned_table_and_json(capsys, w, L):
    # --via both prints the single-route payload, then the tableaux
    # coefficients and the agreement, in this key order
    coefficients, polynomial = _FK_BOTH[w, L]
    code, out, _ = run_cli(capsys, "fk", "--w", w, "--L", L, "--via", "both")
    assert code == 0
    assert out == (
        f"w: {w}\nL: {L}\nvia: both\ncoefficients: {coefficients}\npolynomial: {polynomial}\n"
        f"tableaux_coefficients: {coefficients}\nagreement: True\n"
    )
    code, out, _ = run_cli(capsys, "--emit", "json", "fk", "--w", w, "--L", L, "--via", "both")
    assert code == 0
    assert out == (
        f'{{"L": {L}, "agreement": true, "coefficients": {coefficients}, "polynomial": "{polynomial}", '
        f'"tableaux_coefficients": {coefficients}, "via": "both", "w": "{w}"}}\n'
    )


def test_fk_via_both_exits_1_when_the_routes_disagree(capsys, monkeypatch):
    real = permutations.fk_polynomial

    def off_by_one(w, L, via="words"):
        pol = real(w, L, via=via)
        return pol + IntPolynomial((1,)) if via == "tableaux" else pol

    monkeypatch.setattr(permutations, "fk_polynomial", off_by_one)
    code, out, _ = run_cli(capsys, "--emit", "json", "fk", "--w", "321", "--L", "4", "--via", "both")
    assert code == 1
    data = json.loads(out)
    assert data["agreement"] is False
    assert data["coefficients"] == [36, 102, 106, 48, 8]
    assert data["tableaux_coefficients"] == [37, 102, 106, 48, 8]


def test_fk_with_a_long_word_length_runs_without_recursion():
    # the words route is a loop over L, so L = 1200 needs no deep call stack;
    # it sweeps the 2 elements of [e, 21] for 1,199 steps past the length,
    # 2 * 1199^2 = 2,875,202 coefficient terms, over the default bound
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "cde.cli", "--emit", "json", "fk", "--w", "21", "--L", "1200"],
        env={**os.environ, "PYTHONPATH": path, "CDE_CAPACITY": "2875202"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr, done.stderr
    coefficients = json.loads(done.stdout)["coefficients"]
    assert len(coefficients) == 1201
    # s_1 has one word of each length, 1...1, so the polynomial is (x+1)^1200
    assert coefficients[:3] == [1, 1200, 719400] and coefficients[-1] == 1


def test_fk_tableaux_route_over_capacity_exits_2_before_the_dp(capsys, monkeypatch):
    # 5001 points of up to 5001 Stirling terms each: 25,010,001 > 2,000,000
    monkeypatch.delenv("CDE_CAPACITY", raising=False)
    code, out, err = run_cli(capsys, "fk", "--w", "21", "--L", "5000", "--via", "tableaux")
    assert code == 2 and out == ""
    assert "FK tableaux point terms needs 25010001 > capacity 2000000" in err


def test_perm_stats_and_fk_tableaux_build_no_rothe_diagram(capsys, monkeypatch):
    # the shape and the row flag come from the Lehmer code alone
    def refuse(w):
        raise RuntimeError(f"rothe_diagram({w}) called")

    monkeypatch.setattr(permutations, "rothe_diagram", refuse)
    data = run_json(capsys, "perm", "stats", "--w", "14253")
    assert (data["shape"], data["flag"], data["reduced_words"]) == ("2,1", "2,4", 2)
    data = run_json(capsys, "fk", "--w", "14253", "--L", "5", "--via", "tableaux")
    assert data["coefficients"] == [4800, 8368, 5760, 1960, 330, 22]
    assert data["coefficients"] == list(permutations.fk_polynomial((1, 4, 2, 5, 3), 5).coeffs)


_N = 99999999999999  # a size far past any bound


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("poset", "stats", "--builder", "boolean:20000"),
            "boolean lattice needs a 20001-bit count > capacity 2000000",
        ),
        (
            ("poset", "stats", "--builder", "tamari:12345"),
            "tamari lattice needs a 24665-bit count > capacity 2000000",
        ),
        (
            ("fk", "--w", "21", "--L", "99999999999999"),
            "FK words coefficient terms needs 9999999999999800000000000001 > capacity 2000000",
        ),
        (
            # |[e, w0]| * (L - 15)^2 = 720 * 53^2 terms; L = 67 runs
            ("fk", "--w", "654321", "--L", "68"),
            "FK words coefficient terms needs 2022480 > capacity 2000000",
        ),
        *[
            (("poset", "stats", "--builder", f"{name}:{_N}"), f"poset elements needs {_N} > capacity 2000000")
            for name in ("chain", "grid", "zigzag", "young", "shifted")
        ],
        (
            ("poset", "stats", "--builder", f"pabcd:1,1,1,{_N}"),
            f"poset elements needs {_N + 3} > capacity 2000000",
        ),
        (
            ("poset", "stats", "--builder", f"weak-order:{_N}"),
            f"weak order interval needs {_N}! > capacity 2000000",
        ),
        (
            ("poset", "stats", "--builder", f"boolean:{_N}"),
            f"boolean lattice needs 2^{_N} > capacity 2000000",
        ),
        (
            ("poset", "stats", "--builder", f"strong-bruhat:{_N}"),
            f"strong Bruhat order needs {_N}! > capacity 2000000",
        ),
        (
            ("poset", "stats", "--builder", f"tamari:{_N}"),
            f"tamari lattice needs C({_N - 2}) > capacity 2000000",
        ),
        (
            ("poset", "stats", "--builder", "grid:2,2", "--xm", str(_N)),
            f"multichain expectations needs {_N} > capacity 2000000",
        ),
        (
            ("perm", "stats", "--w", "321", "--xm", str(_N)),
            f"multichain expectations needs {_N} > capacity 2000000",
        ),
        (
            # n·⌈size·W/64⌉ words of packed rows, W = 1995 bits per entry
            ("poset", "stats", "--builder", "chain:2000", "--xm", "2000"),
            "multichain table words needs 124688000 > capacity 2000000",
        ),
        (
            ("perm", "stats", "--word", "1", "--n", str(_N)),
            f"permutation entries needs {_N} > capacity 2000000",
        ),
        (
            ("perm", "stats", "--word", str(_N)),
            f"permutation entries needs {_N + 1} > capacity 2000000",
        ),
        (
            ("fk", "--word", "1", "--n", str(_N), "--L", "2"),
            f"permutation entries needs {_N} > capacity 2000000",
        ),
        (
            ("young", "stats", "--shape", str(_N)),
            f"rank generating function coefficients needs {_N + 1} > capacity 2000000",
        ),
        (
            ("shifted", "stats", "--shape", str(_N)),
            f"poset elements needs {_N} > capacity 2000000",
        ),
    ],
    ids=[
        "boolean-20000", "tamari-12345", "fk-words-huge-L", "fk-words-w0-S6-L68",
        "chain-N", "grid-N", "zigzag-N", "young-N", "shifted-N", "pabcd-N", "weak-order-N",
        "boolean-N", "strong-bruhat-N", "tamari-N", "poset-xm-N", "perm-xm-N", "poset-xm-chain-2000",
        "perm-word-n-N", "perm-word-N", "fk-word-n-N", "young-stats-N", "shifted-stats-N",
    ],
)
def test_counts_over_capacity_exit_2_at_once(capsys, monkeypatch, argv, message):
    monkeypatch.delenv("CDE_CAPACITY", raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_the_chain_tables_strict_order_is_charged(capsys, monkeypatch):
    # the weak order of S5 holds 1,779 strict pairs, in 600 table words at size 8
    argv = ("poset", "stats", "--builder", "weak-order:5", "--xm", "8")
    monkeypatch.setenv("CDE_CAPACITY", "1000")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: multichain strict order pairs needs 1007 > capacity 1000\n"
    monkeypatch.setenv("CDE_CAPACITY", "1779")
    assert run_cli(capsys, *argv)[0] == 0


def test_exit_codes_hold_over_a_seeded_fuzz_of_every_subcommand(monkeypatch):
    # every exit code is 0, 1 or 2 and no traceback reaches stderr; the
    # grammar bounds each call by work (cli_fuzz), so no clock is read
    monkeypatch.setenv("CDE_CAPACITY", "3000")
    assert cli_fuzz.fuzz(seed=7, calls=1000) == []


def test_an_unreadable_capacity_exits_2_and_a_long_one_is_named_by_its_length(capsys, monkeypatch):
    argv = ("poset", "stats", "--builder", "chain:3")
    monkeypatch.setenv("CDE_CAPACITY", "abc")
    assert run_cli(capsys, *argv) == (2, "", "error: CDE_CAPACITY='abc' is not an integer\n")
    # Python converts no numeral of 4,301 digits; the message must not echo it
    monkeypatch.setenv("CDE_CAPACITY", "1" + "0" * 4300)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and len(err.encode()) < 200
    assert err == "error: CDE_CAPACITY of 4301 characters has more digits than Python converts to an integer\n"
    monkeypatch.setenv("CDE_CAPACITY", "x" * 5000)
    assert run_cli(capsys, *argv) == (2, "", "error: CDE_CAPACITY of 5000 characters is not an integer\n")


def test_fk_words_huge_L_exits_2_at_a_low_bound(capsys, monkeypatch):
    monkeypatch.setenv("CDE_CAPACITY", "5000")
    code, out, err = run_cli(capsys, "fk", "--w", "21", "--L", "99999999999999")
    assert code == 2 and out == ""
    assert err.startswith("error: FK words coefficient terms needs ") and "Traceback" not in err


def test_fk_words_charge_counts_the_interval(capsys, monkeypatch):
    # [e, 321] has 6 elements: L = 13 costs 6 * 10^2 = 600 terms, L = 14 726
    expected = permutations.fk_polynomial((3, 2, 1), 13, via="tableaux")
    monkeypatch.setenv("CDE_CAPACITY", "600")
    assert run_json(capsys, "fk", "--w", "321", "--L", "13")["coefficients"] == list(expected.coeffs)
    code, out, err = run_cli(capsys, "fk", "--w", "321", "--L", "14")
    assert (code, out) == (2, "")
    assert err == "error: FK words coefficient terms needs 726 > capacity 600\n"


def test_young_stats_of_a_long_row_needs_no_recursion(capsys):
    data = run_json(capsys, "young", "stats", "--shape", "500")
    assert (data["R"], data["R_plus"]) == (501, 500)


def test_perm_from_word(capsys):
    data = run_json(capsys, "perm", "stats", "--word", "1,2,1,1")
    assert data["w"] == "321"
    assert data["length"] == 3
    data = run_json(capsys, "fk", "--word", "2,1,2", "--L", "4")
    assert data["coefficients"] == [36, 102, 106, 48, 8]


@pytest.mark.parametrize("command", [("perm", "stats"), ("fk", "--L", "2")], ids=["perm-stats", "fk"])
@pytest.mark.parametrize(
    "n, message",
    [
        # --n 0 is an ambient size like any other, not an absent one
        ("0", "error: generator 1 out of range for n=0\n"),
        ("1", "error: generator 1 out of range for n=1\n"),
        ("-2", "error: n must be nonnegative, got -2\n"),
    ],
)
def test_word_with_a_small_or_negative_n_exits_2(capsys, command, n, message):
    code, out, err = run_cli(capsys, *command, "--word", "1", "--n", n)
    assert (code, out, err) == (2, "", message)


def test_perm_stats_reads_the_lehmer_code_of_w_and_its_inverse_once(capsys, monkeypatch):
    calls = []
    real = permutations.lehmer_code
    monkeypatch.setattr(permutations, "lehmer_code", lambda w: calls.append(w) or real(w))
    for argv in (("--w", "25314"), ("--w", "53124", "--xm", "3"), ("--word", "1,2,1,1")):
        calls.clear()
        run_json(capsys, "perm", "stats", *argv)
        assert len(calls) == 2, argv


def test_poset_builder(capsys):
    data = run_json(capsys, "poset", "stats", "--builder", "tamari", "--n", "6")
    assert data["EX"] == "3/2" and data["EY"] == "3/2"
    data = run_json(capsys, "poset", "stats", "--builder", "pabcd",
                    "--a", "2", "--b", "2", "--c", "3", "--d", "1")
    assert data["EX"] == "1" and data["EY"] == "1"


def test_poset_file_and_dual(capsys, tmp_path):
    path = tmp_path / "p.poset"
    path.write_text(dump_poset(pabcd(1, 1, 2, 1)))
    data = run_json(capsys, "poset", "stats", "--file", str(path))
    assert data["n"] == 5 and data["EX"] == "1"
    dual_data = run_json(capsys, "poset", "stats", "--file", str(path), "--dual")
    assert dual_data["EX"] == "1"


def test_poset_stats_xm(capsys):
    data = run_json(capsys, "poset", "stats", "--builder", "boolean", "--n", "2", "--xm", "5")
    assert all(data[f"EX^({m})"] == "1" for m in range(1, 6))
    assert data["is_mCDE_upto_5"] is True


def test_shifted_stats(capsys):
    data = run_json(capsys, "shifted", "stats", "--shape", "3,1")
    assert data["EX"] == "1" and data["EY"] == "1" and data["is_CDE"] is True


def test_shapes_print_in_one_text_form(capsys):
    assert run_json(capsys, "young", "stats", "--shape", "3 1")["shape"] == "3,1"
    assert run_json(capsys, "shifted", "stats", "--shape", "3, 1")["shape"] == "3,1"
    assert run_json(capsys, "young", "stats", "--shape", "")["shape"] == "0"


def test_young_stats_of_the_empty_shape(capsys):
    # f+(()) = 0, so E(Y) comes out 0 from the same formula as every shape
    data = run_json(capsys, "young", "stats", "--shape", "")
    assert (data["f_plus"], data["EX"], data["EY"]) == (0, "0", "0")


def test_emit_tableaux(capsys):
    code, out, _ = run_cli(capsys, "--emit", "tableaux", "young", "stats", "--shape", "2,1")
    assert code == 0
    blocks = [b for b in out.strip().split("\n\n") if b]
    assert len(blocks) == 8
    assert "{1,2}\t{3}\n{4}" in out


def test_emit_tableaux_21_text(capsys):
    code, out, _ = run_cli(capsys, "--emit", "tableaux", "young", "stats", "--shape", "2,1")
    assert code == 0
    assert out == (
        "{1}\t{2}\n{3,4}\n\n"
        "{1}\t{2,3}\n{4}\n\n"
        "{1}\t{2,4}\n{3}\n\n"
        "{1}\t{3}\n{2,4}\n\n"
        "{1}\t{3,4}\n{2}\n\n"
        "{1}\t{4}\n{2,3}\n\n"
        "{1,2}\t{3}\n{4}\n\n"
        "{1,2}\t{4}\n{3}\n\n"
    )


def test_emit_tableaux_over_capacity_exits_2(capsys, monkeypatch):
    # (3,2,1) has 168 barely set-valued tableaux, far more than the bound of 10
    monkeypatch.setenv("CDE_CAPACITY", "10")
    code, out, err = run_cli(capsys, "--emit", "tableaux", "young", "stats", "--shape", "3,2,1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: barely set-valued tableau enumeration")


def test_emit_tableaux_over_the_default_capacity_fails_before_searching(capsys, monkeypatch):
    # f+ of (6,5,4,3,2,1) is 72,649,015,296: the closed form stops the call at once
    monkeypatch.delenv("CDE_CAPACITY", raising=False)
    code, out, err = run_cli(
        capsys, "--emit", "tableaux", "young", "stats", "--shape", "6,5,4,3,2,1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: barely set-valued tableau enumeration")
    assert "72649015296" in err


def test_verify_cli(capsys):
    code, out, _ = run_cli(capsys, "--emit", "json", "verify", "--suite", "negatives", "--budget", "60")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 4
    assert all(r["status"] == "pass" for r in lines)


def test_verify_cli_table(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "prop-self-dual", "--budget", "60")
    assert code == 0
    assert "prop-self-dual" in out


def test_json_roundtrip_recompute(capsys):
    data = run_json(capsys, "young", "stats", "--shape", "4,2")
    # recompute from the parsed JSON and compare
    ex = Fraction(data["R_plus"], data["R"])
    assert str(ex) == data["EX"]
    ey = Fraction(data["f_plus"], (data["cells"] + 1) * data["f"])
    assert str(ey) == data["EY"]
    assert ex == ey == Fraction(4, 3)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["young", "stats"])  # missing --shape
    assert exc.value.code == 2


def test_malformed_input_exit_code(capsys):
    code, _, err = run_cli(capsys, "perm", "stats", "--w", "1231")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("young", "stats", "--shape", "a"),
        ("perm", "stats", "--w", "12a"),
        ("perm", "stats", "--word", "1,x"),
        ("poset", "stats", "--file", "no-such-dir/missing.poset"),
        ("poset", "stats", "--file", "."),
        ("poset", "stats", "--builder", "chain"),
        ("poset", "stats", "--builder", "chain", "--n", "3", "--a", "2"),
        ("poset", "stats", "--builder", "nope", "--n", "3"),
        ("poset", "stats", "--builder", "chain", "--n", "3", "--xm", "-1"),
        ("perm", "stats", "--w", "321", "--xm", "-2"),
        ("verify", "--suite", "negatives", "--budget", "-1"),
        ("verify", "--suite", "negatives", "--budget", "nan"),
        ("--emit", "tableaux", "poset", "stats", "--builder", "chain", "--n", "3"),
        ("--emit", "tableaux", "shifted", "stats", "--shape", "3,1"),
        ("--emit", "tableaux", "perm", "stats", "--w", "321"),
        ("--emit", "tableaux", "fk", "--w", "321", "--L", "3"),
        ("--emit", "tableaux", "verify", "--suite", "negatives"),
    ],
)
def test_unparsable_input_exits_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "text", ["n 2\nlabel 5 x\n", "n 2\nlabel -1 x\n", "n 2\nn 3\n", "n 2\ncover 0 1 7\n"]
)
def test_malformed_poset_file_exits_2(capsys, tmp_path, text):
    path = tmp_path / "bad.poset"
    path.write_text(text)
    code, _, err = run_cli(capsys, "poset", "stats", "--file", str(path))
    assert code == 2
    assert err.startswith("error: line 2: ")


def test_approx_flag(capsys):
    code, out, _ = run_cli(capsys, "--approx", "young", "stats", "--shape", "3,1,1")
    assert code == 0
    assert "(~1.3" in out


def test_closed_stdout_exits_141_quietly():
    # the tableaux of 4,3,2,1 print ~0.7 MB, far more than a pipe holds, so
    # the command is still writing when the reader goes away after one line
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    child = subprocess.Popen(
        [sys.executable, "-m", "cde.cli", "--emit", "tableaux", "young", "stats", "--shape", "4,3,2,1"],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert child.stdout.readline().strip() == "{1}\t{2}\t{3}\t{4}"
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 141
    assert "Traceback" not in err, err
