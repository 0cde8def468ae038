"""Benchmark for cde: one workload, one seed, one JSON result.

Usage, from the root of a cde checkout:

    python3 perfbench/run.py --workload campaign|poset-queries|perm-queries
        --seed N --seconds S --trace 0|1

Every workload runs in a fresh interpreter, so the library's lru_caches start
cold and persist for the rest of the run, as in a script or notebook
session.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it records
the environment and the run's inputs.  A human-readable table goes to
standard error.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent

# Queries per second of --seconds, measured on the reference box (2-CPU
# Xeon, Python 3.11) at the commit that defined the benchmark, so that a run
# does a fixed amount of work that takes about --seconds there.
QUERY_RATE = {"poset-queries": 17.5, "perm-queries": 22.0}
WORKLOADS = ("campaign",) + tuple(QUERY_RATE)
MIN_QUERIES = 100  # so that p90 has ten samples beyond it
SETUP_SAMPLES = 11
CALIBRATION_ITERATIONS = 5_000_000
RUN_LIMIT_S = 170.0

OK_STATUSES = ("pass", "conjecture-consistent")
DIGEST_KEYS = ("check_id", "instance", "expected", "computed", "status")
PINNED_CAMPAIGN = HERE / "campaign.sha256"

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Recorded with their units but not gated: over ten runs on a 2-CPU shared
# VM their spread reached 0.19-0.37 of the median, against at most 0.25
# allowed for a gated metric, while wall_s stayed at 0.07-0.14.
LATENCY_UNITS = {"query_p50_ms": "ms", "query_p90_ms": "ms", "slowest_check_s": "s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("CDE_CAPACITY", None)  # the library's default capacity bound
    env["PYTHONPATH"] = str(src)
    return env


def setup_seconds(env: dict) -> float:
    """Fresh interpreter start to `import cde` done, in CLOCK_MONOTONIC
    seconds, which every process on the machine shares."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", "import time, cde; print(time.monotonic())"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout) - start


def calibration_seconds() -> float:
    """A fixed pure-Python loop; recorded to show machine noise, never used
    to rescale a metric."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i
    return time.perf_counter() - start


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = out.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((root / "src" / "cde").glob("*")):
        if path.is_file():
            source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def run_child(workload, seed, count, traced, env, deadline, spans):
    """Run child.py; return (its result dict or None, its other stdout lines)."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(count), str(int(traced)), str(spans)]
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"error: the {workload} run did not finish in time", file=sys.stderr)
        return None, []
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        return json.loads(lines[-1]), lines[:-1]
    except (IndexError, ValueError):
        print(f"error: the {workload} run exited {proc.returncode} without a result", file=sys.stderr)
        return None, lines


def check_campaign(result: dict, lines: list[str]) -> tuple[int, int, list[float], dict]:
    """Gate the campaign's reports against the digests pinned when the
    benchmark was defined.  A report fails when its status is not pass or
    conjecture-consistent, or when its content, without `elapsed` and any
    later additive keys, differs from the pinned one.  A missing report and
    a nonzero exit code each count as one more failure."""
    pinned_digest, *pinned = PINNED_CAMPAIGN.read_text().split()
    canonical, statuses, elapsed, failed = [], {}, [], 0
    for i, line in enumerate(lines):
        try:
            report = json.loads(line)
        except ValueError:
            report = {}
        text = json.dumps({k: report.get(k) for k in DIGEST_KEYS}, sort_keys=True)
        canonical.append(text)
        status = report.get("status")
        statuses[status] = statuses.get(status, 0) + 1
        elapsed.append(float(report.get("elapsed", 0.0)))
        short = hashlib.sha256(text.encode()).hexdigest()[:16]
        failed += status not in OK_STATUSES or i >= len(pinned) or short != pinned[i]
    attempted = max(len(lines), len(pinned))
    failed += len(pinned) - min(len(lines), len(pinned))
    failed += result.get("exit_code") != 0
    digest = hashlib.sha256("\n".join(canonical).encode()).hexdigest()
    gates = {
        "exit_code": result.get("exit_code"),
        "status_counts": statuses,
        "digest_matches": digest == pinned_digest,
    }
    return attempted, min(failed, attempted), elapsed, gates


def latency(latencies: list[float]) -> dict:
    return {
        "query_p50_ms": statistics.median(latencies) * 1000,
        "query_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000,
        "slowest_check_s": max(latencies),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "cde" / "__init__.py").is_file():
        print(f"error: no cde package under {src}; run from the root of a cde checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env(src)
    # The first import compiles the sources to bytecode, the build step of a
    # Python checkout; it is not a set-up sample.
    try:
        setup_seconds(env)
        setup_samples = [setup_seconds(env) for _ in range(SETUP_SAMPLES)]
    except subprocess.CalledProcessError as exc:
        print(f"error: `import cde` failed:\n{exc.stderr}", file=sys.stderr)
        return 1
    setup = statistics.median(setup_samples)
    calibration = calibration_seconds()
    count = max(MIN_QUERIES, round(args.seconds * QUERY_RATE[args.workload])) if args.workload in QUERY_RATE else 0
    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"

    runs = []  # (child result, attempted, failed, latencies, summary), untraced first
    for traced in (False, True) if args.trace else (False,):
        result, lines = run_child(args.workload, args.seed, count, traced, env, deadline, spans)
        if result is None:
            return 1
        if args.workload == "campaign":
            attempted, failed, latencies, summary = check_campaign(result, lines)
        else:
            attempted, failed, latencies = result["attempted"], result["failed"], result["query_s"]
            sizes = result["sizes"]
            summary = {"median_size": statistics.median(sizes), "max_size": max(sizes)}
        runs.append((result, attempted, failed, latencies, summary))

    attempted = sum(run[1] for run in runs)
    failed = sum(run[2] for run in runs)
    plain, _, _, latencies, summary = runs[0]
    if args.trace:
        traced = runs[1][0]
        metrics = dict(traced["layers"])
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.untraced_wall_s"] = plain["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        library = sum(metrics[f"{m}.self_s"] for m in tracer.LIBRARY)
        metrics["trace.covered_share"] = library / traced["wall_s"]
        units = {name: unit for name, unit, _ in tracer.metric_units()}
    else:
        metrics = {"setup_s": setup, "wall_s": plain["wall_s"], "peak_rss_mb": plain["peak_rss_kb"] / 1024}
        units = UNITS
    recorded = latency(latencies)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "operations": runs[0][1],
        "environment": environment(root),
        "calibration_s": calibration,
        "setup_samples_s": setup_samples,
        "gates" if args.workload == "campaign" else "inputs": summary,
        "failed_ratio": failed / attempted,
        "latency": {name: {"value": value, "unit": LATENCY_UNITS[name]} for name, value in recorded.items()},
    }
    if args.trace:
        record["spans"] = str(spans.relative_to(root))
    for name, value in metrics.items():
        print(f"{name:<52} {value:>14.6f} {units[name]}", file=sys.stderr)
    for name, value in recorded.items():
        print(f"{name:<52} {value:>14.6f} {LATENCY_UNITS[name]}  (untraced; recorded, not gated)", file=sys.stderr)
    print(f"{'failed_ratio':<52} {failed / attempted:>14.6f} ({failed} of {attempted})", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
