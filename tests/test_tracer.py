"""The benchmark's tracer rebinds library functions by name, so a rename in
`cde` must fail here rather than at the first traced benchmark run."""

import sys
from pathlib import Path

import cde.cli
from cde import core

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings():
    """Every attribute of every cde module, and of IntPolynomial."""
    owners = [mod for name, mod in sys.modules.items() if name.startswith("cde.")]
    return {(owner, attr): value for owner in owners + [core.IntPolynomial]
            for attr, value in vars(owner).items()}


def test_tracer_installs_and_uninstalls(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    before = _bindings()
    t = tracer.Tracer()
    try:
        assert cde.cli.main(["young", "stats", "--shape", "2,1"]) == 0
        assert t.calls["cli.main"] == 1
        assert t.calls["tableaux.R_and_Rplus"] == 1
    finally:
        t.uninstall()
    capsys.readouterr()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
