"""One workload run in a fresh interpreter, started by ``run.py``.

Usage: python3 perfbench/child.py WORKLOAD SEED COUNT TRACE SPANS_PATH

The parent puts the checkout's ``src`` on PYTHONPATH.  The child imports
``cde``, builds its inputs, installs the tracer when TRACE is 1, answers
every query and prints one JSON object with its measurements as the last
line of standard output.  For ``campaign`` the CLI's report lines come
first.  Spans of a traced run are written to SPANS_PATH at the end.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from functools import partial

import cde.cli
from cde import permutations as perm
from cde import poset as ps

IMPORT_DONE = time.monotonic()

import inputs  # noqa: E402  (the script's directory is first on sys.path)
import tracer as tracing  # noqa: E402

XM = 8  # the `poset stats --xm 8` payload
CAMPAIGN_ARGV = ["--emit", "json", "verify", "--suite", "all"]


def poset_query(text: str, m: int, ideals: int) -> tuple[bool, int]:
    """The `poset stats --xm 8` payload on J(P), plus toggle symmetry and
    the linear extension count of P.  Returns (gates hold, |J|)."""
    p = ps.load_poset(text)
    j = ps.order_ideal_lattice(p)
    st = ps.stats(j)
    xm = [ps.expectation_Xm(j, k) for k in range(1, XM + 1)]
    ps.is_mCDE_upto(j, XM)
    toggle_ok = ps.toggle_symmetry_check(p, m)
    extensions = ps.linear_extension_count(p)
    ok = (
        j.n == ideals
        and extensions == st.maximal_chain_count
        and xm[0] == st.EX
        and toggle_ok
    )
    return ok, j.n


def perm_query(w: tuple[int, ...], size: int) -> tuple[bool, int]:
    """The `perm stats --w` payload, plus the stats of the weak interval
    built as a poset.  Returns (gates hold, interval size)."""
    perm.classify(w)
    members = len(perm.weak_interval_elements(w))
    reduced = perm.count_reduced(w)
    perm.count_nearly_reduced(w)
    ex = perm.expectation_X_complementary(w)
    ey = perm.expectation_Y_words(w)
    interval = perm.weak_interval(w)
    st = ps.stats(interval)
    ok = (
        members == size == interval.n
        and ex == st.EX
        and ey == st.EY
        and reduced == st.maximal_chain_count
    )
    return ok, members


def run_queries(query, stream, tracer) -> dict:
    times, sizes, failed = [], [], 0
    for i, args in enumerate(stream):
        if tracer is not None:
            tracer.request = i
        start = time.perf_counter()
        try:
            ok, size = query(*args)
        except Exception:  # a crashing query is a failed operation, not an abort
            traceback.print_exc(file=sys.stderr)
            ok, size = False, 0
        times.append(time.perf_counter() - start)
        sizes.append(size)
        failed += not ok
    return {"query_s": times, "sizes": sizes, "attempted": len(times), "failed": failed}


def run_campaign(tracer) -> dict:
    try:
        code = cde.cli.main(CAMPAIGN_ARGV)
    except Exception:  # reported as a failed gate by the parent
        traceback.print_exc(file=sys.stderr)
        code = None
    sys.stdout.flush()
    return {"exit_code": code}


def main(argv) -> None:
    workload, seed, count, traced, spans_path = argv
    seed, count = int(seed), int(count)
    if workload == "poset-queries":
        job = partial(run_queries, poset_query, inputs.poset_queries(seed, count))
    elif workload == "perm-queries":
        job = partial(run_queries, perm_query, inputs.perm_queries(seed, count))
    else:
        job = run_campaign
    tracer = tracing.Tracer() if traced == "1" else None
    start = time.perf_counter()
    result = job(tracer)
    result["wall_s"] = time.perf_counter() - start
    result["import_done"] = IMPORT_DONE
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(spans_path)
        result["layers"] = tracer.metrics()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
