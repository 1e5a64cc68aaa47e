"""One repetition of one workload, in the fresh interpreter it runs in.

    python3 perfbench/worker.py <workload> <seed> <traced 0|1>

Imports etakit from the checkout's `src/`, generates the inputs, sets up,
runs the timed region (traced or not), checks the outputs and prints one
JSON line.  `setup_end` is a `time.monotonic()` stamp, so the parent can
measure set-up from the moment it started this interpreter.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    workload, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    sys.path.insert(0, SRC)
    import etakit
    import etakit.cli  # the package does not import its front end

    if not os.path.abspath(etakit.__file__).startswith(SRC + os.sep):
        print(f"etakit was imported from {etakit.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    generate, setup, run, check, digest = WORKLOADS[workload]
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        state = setup(etakit, generate(seed))
        setup_end = time.monotonic()
        wall, latencies, items, outputs = run(etakit, state)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, messages = check(etakit, state, outputs)
    result = {
        "setup_end": setup_end,
        "wall_s": wall,
        "latencies": latencies,
        "items": items,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "messages": messages[:20],
        "digest": hashlib.sha256(digest(outputs).encode()).hexdigest(),
    }
    if tracer:
        cli_bytes = len(outputs["stdout"].encode()) if workload == "verify-all" else 0
        result["trace"] = {"metrics": tracer.metrics(cli_bytes),
                           "counts": tracer.counts(),
                           "layer_calls": tracer.layer_calls()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
