"""etakit benchmark.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that has `src/etakit`.  Load is a
closed loop with one client: one repetition at a time, each in a fresh
interpreter (`worker.py`), so the package's in-process caches start cold
as they do for every `etakit` invocation.  New repetitions start until
`--seconds` have passed; the metrics are medians over the repetitions.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced and traced repetitions (at least one and two) and reports the
per-layer metrics of the traced ones, after checking that every count
repeats exactly, that each layer the workload skips records no calls,
and that traced and untraced outputs are identical.  `--workload all`
runs every workload in turn.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit status is 0 only
when every output checked out.
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
from fractions import Fraction

from tracer import LAYERS, PER_LAYER

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
PACKAGE = os.path.join(ROOT, "src", "etakit")
REP_TIMEOUT_S = 150

END_TO_END = (("wall_s", "s"), ("items_per_s", "1/s"), ("item_p50_ms", "ms"),
              ("item_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Which layers each workload must reach (True) or must leave alone (False).
COVERAGE = {
    "verify-all": dict.fromkeys(LAYERS, True),
    "eta-sweep": {"exactnum": True, "grouprep": True, "eta": True,
                  "f2ring": False, "glrverify": False, "cli": False},
    "f2-sweep": {"exactnum": False, "grouprep": False, "eta": False,
                 "f2ring": True, "glrverify": True, "cli": False},
}


class RepetitionError(RuntimeError):
    pass


def repetition(workload: str, seed: int, traced: bool) -> dict:
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, workload, str(seed), "1" if traced else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RepetitionError(f"{workload} repetition exceeded {REP_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepetitionError(f"{workload} repetition exited with "
                              f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    rep = json.loads(lines[-1])
    rep["setup_s"] = rep["setup_end"] - start
    return rep


def calibrate() -> float:
    """Seconds for a fixed pure-Python Fraction loop: recorded so that a slow
    host can be told from a slow program; used in no metric."""
    start = time.perf_counter()
    odd = 0
    for k in range(1, 50001):
        odd += (Fraction(k, k + 1) * Fraction(k + 2, k + 3)).numerator & 1
    return time.perf_counter() - start


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "seed": seed,
            "calibration_s": calibrate()}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repetitions until the next one would end after `seconds` (judged by
    the median duration so far); at least one untraced and, when tracing,
    two traced ones."""
    reps = {False: [], True: []}
    durations = []
    start = time.monotonic()
    while True:
        needed = not reps[False] or (trace and len(reps[True]) < 2)
        expected_end = time.monotonic() - start + statistics.median(durations or [0])
        if not needed and expected_end > seconds:
            break
        traced = trace and len(reps[True]) < len(reps[False])
        t0 = time.monotonic()
        reps[traced].append(repetition(workload, seed, traced))
        durations.append(time.monotonic() - t0)
    return summarize(workload, reps[False], reps[True] if trace else None)


def summarize(workload: str, plain: list, traced) -> dict:
    all_reps = plain + (traced or [])
    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps)
    messages = [m for r in all_reps for m in r["messages"]]
    checks = 0
    if len({r["digest"] for r in all_reps}) > 1:
        failed += 1
        messages.append("outputs differ between repetitions"
                        + (" (traced vs untraced)" if traced else ""))
    samples = [x * 1e3 for r in plain for x in r["latencies"]]
    walls = [r["wall_s"] for r in plain]
    end_to_end = {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in plain),
        "item_p50_ms": statistics.median(samples),
        "item_p90_ms": statistics.quantiles(samples, n=10, method="inclusive")[8],
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    out = {"workload": workload, "reps": len(plain), "samples": len(samples),
           "end_to_end": end_to_end}
    if traced:
        traces = [r["trace"] for r in traced]
        checks, problems = trace_checks(workload, traces)
        failed += len(problems)
        messages += problems
        per_layer = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_ratio":
                value = (statistics.median(r["wall_s"] for r in traced)
                         / end_to_end["wall_s"] - 1)
            elif unit == "count":
                value = traces[0]["metrics"][name]
            else:
                value = statistics.median(t["metrics"][name] for t in traces)
            per_layer[name] = value
        out["per_layer"] = per_layer
        out["traced_reps"] = len(traced)
    out.update(attempted=attempted + checks, failed=failed, messages=messages)
    return out


def trace_checks(workload: str, traces: list) -> tuple[int, list]:
    """Exact-count and coverage self-checks; returns (checks, problems)."""
    problems = []
    first = traces[0]["counts"]
    for n, t in enumerate(traces[1:], start=2):
        diff = {k: (first.get(k), v) for k, v in t["counts"].items() if first.get(k) != v}
        if diff:
            problems.append(f"counts of traced run {n} differ from run 1: {diff}")
    for layer, reached in COVERAGE[workload].items():
        calls = traces[0]["layer_calls"][layer]
        if reached and calls == 0:
            problems.append(f"{workload}: layer {layer} recorded no calls")
        if not reached and calls != 0:
            problems.append(f"{workload}: layer {layer} should be idle, "
                            f"recorded {calls} calls")
    return len(traces) - 1 + len(COVERAGE[workload]), problems


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable table and return the metrics object."""
    w = result["workload"]
    e2e = result["end_to_end"]
    units = dict(END_TO_END)
    print(f"{w}: {result['reps']} untraced repetitions, "
          f"{result['samples']} item samples")
    for name, value in e2e.items():
        print(f"  {name:<14} {value:>14.6g} {units[name]}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'fail_ratio':<14} {ratio:>14.6g} ({result['failed']}/{result['attempted']})")
    for m in result["messages"][:20]:
        print(f"  FAIL {m}")
    if not trace:
        return {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(f"  per-layer, median of {result['traced_reps']} traced repetitions:")
    for name, unit in PER_LAYER:
        print(f"    {name:<34} {result['per_layer'][name]:>14.6g} {unit}")
    return {name: {"value": result["per_layer"][name], "unit": unit}
            for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="etakit benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(COVERAGE) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"no etakit sources at {PACKAGE}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args.seed)), flush=True)
    names = list(COVERAGE) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
            shown = report(result, bool(args.trace))
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update((prefix + k, v) for k, v in shown.items())
            attempted += result["attempted"]
            failed += result["failed"]
    except RepetitionError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
