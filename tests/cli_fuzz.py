"""A seeded fuzz of the `cde` command line for the exit-code contract.

`fuzz(seed, calls)` draws command lines from a grammar of valid and
malformed tokens for every subcommand, with N = 99999999999999 among the
values of every integer slot, runs each through `cli.main` in-process and
returns the ones that break the contract: an exit code other than 0, 1 or 2,
a traceback on stderr, or an exception out of `cli.main`.  It sets no
capacity bound itself; the caller runs it under a low `CDE_CAPACITY`.

Each call is bounded by work, not by time: permutations have at most 5
entries, every other size at most 4 unless it is N, L is at most
length(w) + 12 unless it is N, and `verify` runs only small suites or
unknown names.
"""

from __future__ import annotations

import contextlib
import io
import random
import traceback

from cde import cli
from cde.permutations import length, perm_label

N = 99999999999999
SMALL = ("1", "2", "3", "4")
EDGES = ("-1", "0", str(N))
JUNK = ("", "x", "1.5", "-", "--", "--xm", "--w", "stats", "3,,1", str(N))
# spec name -> the number of integers it takes (grid, young and shifted take any)
BUILDERS = {
    "chain": 1, "antichain": 1, "boolean": 1, "tamari": 1, "pabcd": 4, "grid": 3,
    "young": 3, "shifted": 3, "weak-order": 1, "strong-bruhat": 1,
    "ordinal-sum-antichains": 2, "zigzag": 1, "v": 0, "m3": 0, "nope": 1,
}
SMALL_SUITES = (
    "thm-main-a", "thm-main-b", "thm-main-c", "prop-products", "prop-self-dual",
    "cor-tamari", "prop-toggle", "conj-fk", "conj-shifted-1", "conj-shifted-2",
    "conj-mcde-product", "negatives", "nope", "",
)


def _value(rng) -> str:
    """Mostly a small size, else -1, 0 or N."""
    return rng.choice(SMALL) if rng.random() < 0.75 else rng.choice(EDGES)


def _int(rng) -> str:
    return _value(rng) if rng.random() < 0.95 else "x"


def _list(rng, sep=",", size=None) -> str:
    """`size` integers, else 0 to 4 of them, or a malformed token."""
    if rng.random() < 0.1:
        return rng.choice(JUNK)
    if size is None or rng.random() < 0.2:
        size = rng.randrange(5)
    return sep.join(_value(rng) for _ in range(size))


def _poset(rng) -> list[str]:
    argv = ["poset", "stats" if rng.random() < 0.9 else "plot"]
    source = rng.choice((0, 0, 0, 1, 1, 2))
    name = rng.choice(list(BUILDERS))
    if source == 0:
        argv += ["--builder", f"{name}:{_list(rng, size=BUILDERS[name])}".rstrip(":")]
    elif source == 1:
        argv += ["--builder", name]
        for key in rng.sample(("--n", "--a", "--b", "--c", "--d"), rng.randrange(3)):
            argv += [key, _int(rng)]
    else:
        argv += ["--file", "no-such-file.poset"]
    if rng.random() < 0.3:
        argv.append("--dual")
    if rng.random() < 0.5:
        argv += ["--xm", _int(rng)]
    return argv


def _shape(rng) -> list[str]:
    return [rng.choice(("young", "shifted")), "stats", "--shape", _list(rng, rng.choice(", "))]


def _perm_source(rng) -> tuple[list[str], tuple[int, ...] | None]:
    """A permutation as --w or --word, and w itself when the draw is one."""
    kind = rng.choice((0, 0, 0, 1, 2, 2))
    if kind == 0:
        n = rng.randrange(1, 6)
        w = tuple(rng.sample(range(1, n + 1), n))
        return ["--w", perm_label(w)], w
    if kind == 1:
        return ["--w", rng.choice(("1,1", "0", "12a", "", "21,", "2 1", str(N)))], None
    argv = ["--word", _list(rng)]
    if rng.random() < 0.5:
        argv += ["--n", _int(rng)]
    return argv, None


def _perm(rng) -> list[str]:
    source, _ = _perm_source(rng)
    argv = ["perm", "stats", *source]
    if rng.random() < 0.5:
        argv += ["--xm", _int(rng)]
    return argv


def _fk(rng) -> list[str]:
    source, w = _perm_source(rng)
    if w is not None and rng.random() < 0.7:
        L = str(length(w) + rng.randrange(13))
    else:
        L = _int(rng)
    argv = ["fk", *source, "--L", L]
    if rng.random() < 0.7:
        argv += ["--via", rng.choice(("words", "tableaux", "both", "tableau"))]
    return argv


def _verify(rng) -> list[str]:
    argv = ["verify", "--suite", rng.choice(SMALL_SUITES)]
    if rng.random() < 0.5:
        argv += ["--budget", rng.choice(("0", "1", "-1", "nan", "inf", "x", str(N)))]
    return argv


COMMANDS = (_poset, _shape, _perm, _fk, _verify)


def command_line(rng) -> list[str]:
    """One command line: a subcommand from the grammar, with top-level
    options in front, and now and then a token dropped or a junk token put
    in.  A `verify` line keeps its --suite, so it never runs the campaign."""
    argv = rng.choice(COMMANDS)(rng)
    top = []
    if rng.random() < 0.3:
        top += ["--emit", rng.choice(("table", "json", "tableaux", "xml"))]
    if rng.random() < 0.2:
        top.append("--approx")
    argv = top + argv
    if rng.random() < 0.15 and argv[len(top)] != "verify":
        del argv[rng.randrange(len(argv))]
    if rng.random() < 0.15:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(JUNK))
    return argv


def run(argv) -> tuple[object, str]:
    """(exit code, stderr) of one in-process `cli.main` call; an exception
    out of it is returned as its traceback on stderr, with the code None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
    return code, err.getvalue()


def fuzz(seed: int, calls: int) -> list[tuple[list[str], object, str]]:
    """The command lines, with their exit code and stderr, that break the
    exit-code contract; [] when every call keeps it."""
    rng = random.Random(seed)
    bad = []
    for _ in range(calls):
        argv = command_line(rng)
        code, err = run(argv)
        if code not in (0, 1, 2) or "Traceback" in err:
            bad.append((argv, code, err))
    return bad
