"""Command-line interface.

Numeric output is exact: rationals print as p/q and polynomials as
coefficient lists from the constant term up.  Pass --approx for an extra
decimal rendering.  Exit codes: 0 success, 1 when a verification report
fails or errors, 2 on usage errors, 141 when stdout is closed early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import permutations as perm
from . import poset as ps
from . import tableaux as tb
from . import verify
from .errors import CdeError, MalformedInputError

_BUILDER_KEYS = ("n", "a", "b", "c", "d")


def _fmt(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def _emit(data: dict, args):
    if args.emit == "json":
        print(json.dumps({k: _fmt(v) for k, v in data.items()}, sort_keys=True))
        return
    for k, v in data.items():
        line = f"{k}: {_fmt(v)}"
        if args.approx and isinstance(v, Fraction):
            line += f"  (~{float(v):.6g})"
        print(line)


def _perm_from_args(args):
    """Accept a permutation in one-line notation (--w) or as the 0-Hecke
    product of a comma-separated generator word (--word)."""
    if getattr(args, "word", None):
        return perm.word_to_hecke(perm.parse_word(args.word), args.n)
    if args.w:
        return perm.parse_perm(args.w)
    raise CdeError("need --w or --word")


def _poset_from_args(args) -> ps.FinitePoset:
    if args.file:
        try:
            with open(args.file) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise MalformedInputError(f"cannot read {args.file!r}: {exc}") from exc
        p = ps.load_poset(text)
    else:
        if not args.builder:
            raise CdeError("need --file or --builder")
        params = [str(getattr(args, k)) for k in _BUILDER_KEYS if getattr(args, k) is not None]
        spec = args.builder if not params else f"{args.builder}:{','.join(params)}"
        p = verify.build_poset(spec)
    if args.dual:
        p = ps.dual(p)
    return p


def _poset_stats_payload(p: ps.FinitePoset, xm: int) -> dict:
    st = ps.stats(p)
    data = {
        "n": p.n,
        "edge_count": st.edge_count,
        "EX": st.EX,
        "EY": st.EY,
        "maximal_chain_count": st.maximal_chain_count,
        "rank": st.rank,
        "is_CDE": st.is_CDE,
    }
    data.update(_multichain_payload(p, xm))
    return data


def _multichain_payload(p: ps.FinitePoset, xm: int) -> dict:
    """E(X^(m)) for m = 1..xm and, when xm > 0, the bounded multichain-CDE
    verdict (the --xm option of `poset stats` and `perm stats`)."""
    if xm < 0:
        raise MalformedInputError(f"--xm must be nonnegative, got {xm}")
    expectations = ps._multichain_expectations(p, xm)
    data = {f"EX^({m})": e for m, e in enumerate(expectations, start=1)}
    if xm:
        data[f"is_mCDE_upto_{xm}"] = all(e == expectations[0] for e in expectations)
    return data


def _cmd_poset(args) -> int:
    p = _poset_from_args(args)
    _emit(_poset_stats_payload(p, args.xm), args)
    return 0


def _cmd_young(args) -> int:
    shape = tb.parse_shape(args.shape)
    if args.emit == "tableaux":
        for t in tb.enumerate_standard_barely(shape):
            print(tb.format_tableau(t))
            print()
        return 0
    r, rp = tb.R_and_Rplus(shape)
    n = sum(shape)
    f = tb.hook_f(shape)
    fp = tb.f_plus_one(shape)
    data = {
        "shape": tb.shape_label(shape),
        "cells": n,
        "f": f,
        "f_plus": fp,
        "R": r,
        "R_plus": rp,
        "EX": Fraction(rp, r),
        "EY": Fraction(fp, (n + 1) * f),
    }
    data["is_CDE"] = data["EX"] == data["EY"]
    _emit(data, args)
    return 0


def _cmd_shifted(args) -> int:
    shape = tb.parse_shape(args.shape)
    p = tb.shifted_interval(shape)  # checks that the shape is strict
    st = ps.stats(p)
    data = {
        "shape": tb.shape_label(shape),
        "interval_size": p.n,
        "edge_count": st.edge_count,
        "EX": st.EX,
        "EY": st.EY,
        "is_CDE": st.is_CDE,
    }
    _emit(data, args)
    return 0


def _cmd_perm(args) -> int:
    w = _perm_from_args(args)
    cls, code = perm._classify(w)
    data = {
        "w": perm.perm_label(w),
        "n": len(w),
        "length": sum(code),
        "code": ",".join(map(str, code)),
        "descents": ",".join(map(str, perm.descents(w))) or "-",
        "vexillary": cls.vexillary,
        "dominant": cls.dominant,
        "grassmannian": cls.grassmannian,
        "inverse_grassmannian": cls.inverse_grassmannian,
    }
    if cls.vexillary:
        data["shape"] = tb.shape_label(cls.shape)
        data["flag"] = ",".join(map(str, perm._vexillary_flag(code, cls.shape))) or "-"
    summary = perm.interval_summary(w)  # one walk and one pass over the interval
    data["interval_size"] = len(summary.elements)
    data["reduced_words"] = summary.reduced
    data["nearly_reduced_words"] = summary.nearly
    data["EX"] = summary.EX
    data["EY"] = summary.EY
    data["is_CDE"] = data["EX"] == data["EY"]
    if args.xm:
        data.update(_multichain_payload(perm.weak_interval(w), args.xm))
    _emit(data, args)
    return 0


def _cmd_fk(args) -> int:
    w = _perm_from_args(args)
    data = {
        "w": perm.perm_label(w),
        "L": args.L,
        "via": args.via,
    }
    pol = perm.fk_polynomial(w, args.L, via="words" if args.via == "both" else args.via)
    data["coefficients"] = list(pol.coeffs)
    data["polynomial"] = str(pol)
    agree = True
    if args.via == "both":
        tab = perm.fk_polynomial(w, args.L, via="tableaux")
        data["tableaux_coefficients"] = list(tab.coeffs)
        data["agreement"] = agree = pol == tab
    _emit(data, args)
    return 0 if agree else 1


def _cmd_verify(args) -> int:
    if not args.budget >= 0:  # also false for NaN
        raise MalformedInputError(f"--budget must be nonnegative, got {args.budget}")
    if args.suite == "all":
        reports = verify.run_all(args.budget)
    else:
        reports = verify.run_suite(args.suite, args.budget)
    if args.emit == "json":
        for r in reports:
            print(r.to_json())
    else:
        print(verify.format_reports(reports))
    return 1 if any(r.status in ("fail", "error") for r in reports) else 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cde", description=__doc__)
    top.add_argument("--emit", choices=("table", "json", "tableaux"), default="table")
    top.add_argument("--approx", action="store_true", help="append decimal approximations")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poset", help="statistics of a poset from a file or builder")
    p.add_argument("action", choices=("stats",))
    p.add_argument("--file", help="poset file (n/cover/label lines)")
    p.add_argument("--builder", help=" ".join(verify._BUILDERS))
    for key in _BUILDER_KEYS:
        p.add_argument(f"--{key}", type=int)
    p.add_argument("--dual", action="store_true")
    p.add_argument("--xm", type=int, default=0, help="also report multichain expectations up to m")
    p.set_defaults(func=_cmd_poset)

    y = sub.add_parser("young", help="interval and tableau counts below a partition")
    y.add_argument("action", choices=("stats",))
    y.add_argument("--shape", required=True)
    y.set_defaults(func=_cmd_young)

    s = sub.add_parser("shifted", help="interval statistics below a strict partition")
    s.add_argument("action", choices=("stats",))
    s.add_argument("--shape", required=True)
    s.set_defaults(func=_cmd_shifted)

    given = argparse.ArgumentParser(add_help=False)  # w, read by _perm_from_args
    given.add_argument("--w", help="one-line notation, e.g. 4231 or 4,2,3,1")
    given.add_argument("--word", help="comma-separated generator indices; w is their 0-Hecke product")
    given.add_argument("--n", type=int, help="ambient size when using --word")

    w = sub.add_parser("perm", parents=[given], help="classification, interval and word statistics")
    w.add_argument("action", choices=("stats",))
    w.add_argument("--xm", type=int, default=0)
    w.set_defaults(func=_cmd_perm)

    f = sub.add_parser("fk", parents=[given], help="weighted 0-Hecke word polynomial")
    f.add_argument("--L", required=True, type=int)
    f.add_argument("--via", choices=("words", "tableaux", "both"), default="words")
    f.set_defaults(func=_cmd_fk)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", default="all")
    v.add_argument("--budget", type=float, default=600.0)
    v.set_defaults(func=_cmd_verify)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.emit == "tableaux" and args.func is not _cmd_young:
            raise MalformedInputError(f"--emit tableaux applies to young stats, not {args.command}")
        return args.func(args)
    except CdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away (`| head`): keep the flush at exit quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports it


if __name__ == "__main__":
    sys.exit(main())
