"""Benchmark worker: runs one pass of a workload in this fresh process.

Reads a JSON plan on stdin::

    {"requests": [[argv...], ...], "order": [3, 0, 2, 1], "trace": false,
     "spans_path": "bench/out/seq.0.spans" or null}

runs ``inctrees.cli.main(argv)`` in this process for each request in the
given order, with stdout and stderr captured, and after each request times a
fixed calibration loop.  It writes one JSON object on stdout: a record
``[index, seconds, exit code, sha256 of stdout, calibration seconds]`` per
request, the pass's wall time, the process's peak RSS and, when traced, the
tracer's totals.  One process per pass means nothing a pass caches carries
into the next one.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

CALIBRATION_ITERATIONS = 20_000
CALIBRATION_REPEATS = 3


def calibrate() -> list:
    """Seconds of a fixed pure-Python loop (about 1.8 ms), timed
    CALIBRATION_REPEATS times.  It calls nothing in the package, so its time
    shows only how fast the machine runs the interpreter just now."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_ITERATIONS):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return times


def call(main, argv):
    """(seconds, exit code, stdout) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception as exc:  # a crash is a failed request, not a crashed run
            code = f"exception: {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, code, out.getvalue()


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def run_pass(plan: dict) -> dict:
    from inctrees import cli

    requests = plan["requests"]
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    pass_start = time.perf_counter()
    try:
        for index in plan["order"]:
            if tracer:
                tracer.request = len(records)
            elapsed, code, stdout = call(cli.main, requests[index])
            records.append([index, elapsed, code, digest(stdout), calibrate()])
    finally:
        if tracer:
            tracer.uninstall()
    result = {
        "records": records,
        "wall_s": time.perf_counter() - pass_start,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "settings": {
            "python": sys.version.split()[0],
            "optimize": sys.flags.optimize,
            "INCTREE_CAPACITY": os.environ.get("INCTREE_CAPACITY"),
        },
    }
    if tracer:
        result["trace"] = tracer.layer_totals()
        result["trace"]["request_s"] = sum(r[1] for r in records)
        if plan.get("spans_path"):
            tracer.write_spans(plan["spans_path"])
    return result


def main() -> int:
    plan = json.load(sys.stdin)
    result = run_pass(plan)
    sys.stdout.write(json.dumps(result))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
