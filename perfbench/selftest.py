"""Self-test of the benchmark itself; run from the root of a cde checkout:

    python3 perfbench/selftest.py

It checks that the generators are deterministic and respect their caps,
that BENCHMARK.json lists exactly the metrics run.py prints, that two traced
runs of a short seed give identical work counters (the deterministic gates
for later changes), that the query workloads make no `tableaux` calls, and
that run.py refuses to run without the program's sources.  It takes about a
minute and exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
import run
import tracer

SHORT_QUERIES = 40


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def traced_counters(workload: str, seed: int, spans: Path) -> dict:
    env = run.child_env(Path.cwd() / "src")
    result, _ = run.run_child(workload, seed, SHORT_QUERIES, True, env, time.monotonic() + 300, spans)
    check(result is not None and result["failed"] == 0, f"{workload} seed {seed}: short traced run passes its gates")
    return {k: v for k, v in result["layers"].items() if k.endswith((".calls", ".items"))}


def main() -> None:
    posets = inputs.poset_queries(7, SHORT_QUERIES)
    perms = inputs.perm_queries(7, SHORT_QUERIES)
    check(posets == inputs.poset_queries(7, SHORT_QUERIES), "poset stream repeats for a seed")
    check(perms == inputs.perm_queries(7, SHORT_QUERIES), "perm stream repeats for a seed")
    check(posets != inputs.poset_queries(8, SHORT_QUERIES), "poset stream changes with the seed")
    check(len(posets) == len(perms) == SHORT_QUERIES, "streams have the requested length")
    profile = json.loads(inputs.PROFILE_PATH.read_text())
    poset_cap = max(sizes[-2] for sizes in profile["poset-queries"].values())
    check(
        all(size <= poset_cap for _, _, size in posets)
        and all(size <= profile["perm-queries"][str(len(w))][-2] for w, size in perms),
        "drawn sizes stay under the profile's top percentile",
    )

    spec = json.loads(Path("BENCHMARK.json").read_text())
    check([m["name"] for m in spec["end_to_end"]] == list(run.UNITS), "BENCHMARK.json end_to_end matches run.py")
    check(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.metric_units(),
        "BENCHMARK.json per_layer matches tracer.metric_units()",
    )
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json workloads match run.py")

    out = Path(".perfbench-out")
    out.mkdir(exist_ok=True)
    for workload in ("poset-queries", "perm-queries"):
        first = traced_counters(workload, 3, out / "selftest-a.jsonl")
        second = traced_counters(workload, 3, out / "selftest-b.jsonl")
        check(first == second, f"{workload}: .calls/.items counters repeat exactly for a seed")
        check(
            all(v == 0 for k, v in first.items() if k.startswith("tableaux.")),
            f"{workload}: no tableaux calls",
        )

    with tempfile.TemporaryDirectory(dir=out) as empty:
        proc = subprocess.run(
            [sys.executable, str(Path(run.__file__)), "--workload", "campaign", "--seed", "1", "--seconds", "1"],
            cwd=empty, capture_output=True, text=True, timeout=60,
        )
    check(proc.returncode != 0 and not proc.stdout, "run.py exits nonzero without a result when src/ is missing")


if __name__ == "__main__":
    main()
