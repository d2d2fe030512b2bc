"""The inctrees benchmark: one workload of ``inctree`` requests per run.

    python3 bench/run.py --workload seq --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout.  The benchmark

1. times several cold starts of ``python -c "import inctrees"`` (setup_s),
2. runs the workload's fixed request list in whole passes, each pass in an
   order drawn from ``--seed`` and in a fresh worker process (``worker.py``)
   that calls ``inctrees.cli.main`` in-process: a closed loop with one
   client, one process and one thread.  Passes repeat while another one
   fits into ``--seconds``; at least one runs,
3. checks every response's exit code and stdout against ``expected.json``,
4. prints a summary and, as its last line, one JSON object with the
   end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

The end-to-end times are wall times scaled to a reference machine speed:
after every request and every cold start the benchmark times a fixed
pure-Python loop (``worker.calibrate``), and each time is multiplied by
REFERENCE_CALIBRATION_S over the median loop time of its pass (of the cold
starts, for setup_s).  Other tenants of a shared host change how fast it runs
the interpreter by up to a half within a minute; the loop slows with them,
and the program's code does not change it.  The unscaled wall figures are
printed beside the metrics.

With ``--trace 1`` untraced and traced passes alternate; the traced passes
give the per-layer metrics and the untraced ones the tracing overhead.
Spans and the full result go to ``bench/out/``.  Workers run with
INCTREE_CAPACITY unset and without ``-O``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from worker import calibrate
from workloads import WORKLOADS, pass_orders

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")
COLD_STARTS = 15
DEADLINE_S = 170  # the whole run must end well within three minutes
# The calibration loop's (worker.calibrate) median time at the reference
# speed: its median on the 2-vCPU Xeon the benchmark was built on.
REFERENCE_CALIBRATION_S = 1.8e-3


def worker_env() -> dict:
    """The caller's environment without settings that change what is run or
    measured; bytecode caching is on, as in an installed package."""
    dropped = ("INCTREE_CAPACITY", "PYTHONOPTIMIZE", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def cold_starts(env: dict) -> tuple:
    """Wall seconds of fresh interpreters importing the package, and the
    calibration loop's times, taken after each start.  The first start
    writes the bytecode cache and is not counted."""
    argv = [sys.executable, "-c", "import inctrees"]
    times, calibration = [], []
    for i in range(COLD_STARTS + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
            calibration += calibrate()
    return times, calibration


def quantile(values, fraction: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of a quantile: the mean of all order
    statistics, the i-th of n weighted by the Beta((n+1)f, (n+1)(1-f))
    probability of ((i-1)/n, i/n], integrated by the midpoint rule.  Over
    five runs each of ``seq`` and ``oracle``, the median's interquartile
    spread was 0.10 for the middle order statistic and 0.04-0.08 for this."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = fraction * (n + 1), (1 - fraction) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):
        points = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(
            math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)
            for t in points))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def speed_scale(calibration: list) -> float:
    """REFERENCE_CALIBRATION_S over the median of calibration loop times:
    the factor that takes wall times measured beside them to the reference
    speed."""
    return REFERENCE_CALIBRATION_S / statistics.median(calibration)


def pass_scale(p: dict) -> float:
    """``speed_scale`` of one pass, from the loop times beside its requests."""
    return speed_scale([t for r in p["records"] for t in r[4]])


def request_latencies(passes: list, scaled: bool = True) -> list:
    """Each request's mean latency over its repeats in the run.  When
    ``scaled``, each pass's latencies are first scaled by its own
    ``speed_scale``.

    A request's repeats differ by a factor of two to three, with its place
    in the seeded order and with the host's load.  Over five runs each of
    ``seq`` and ``reverse``, the interquartile spread of the three latency
    metrics was 0.18-0.29 unscaled, 0.03-0.11 scaled per run with a
    request's median repeat, and 0.04-0.07 scaled per pass with its mean."""
    by_request = {}
    for p in passes:
        scale = pass_scale(p) if scaled else 1.0
        for index, seconds, *_ in p["records"]:
            by_request.setdefault(index, []).append(seconds * scale)
    return [statistics.fmean(v) for v in by_request.values()]


def latency_summary(latencies: list) -> dict:
    return {
        "req_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (quantile(latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (quantile(latencies, 0.9) * 1e3, "ms"),
    }


def end_to_end(passes: list, setup: tuple, ok: int, attempted: int) -> dict:
    times, calibration = setup
    return {
        **latency_summary(request_latencies(passes)),
        "ok_frac": (ok / attempted, "frac"),
        "setup_s": (statistics.median(times) * speed_scale(calibration), "s"),
        "peak_rss_mb": (max(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
    }


def trace_totals(passes: list) -> dict:
    """The traced passes' tracer totals, summed (maximum for bit sizes);
    times (keys ending in ``_s``) at the reference speed."""
    totals = {}
    for p in passes:
        if "trace" not in p:
            continue
        scale = pass_scale(p)
        for key, value in p["trace"].items():
            if key == "self_s":
                layers = totals.setdefault(key, {})
                for layer, s in value.items():
                    layers[layer] = layers.get(layer, 0.0) + s * scale
            elif key == "solvers.max_bits":
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value * (scale if key.endswith("_s") else 1)
    return totals


def per_layer(passes: list, errors: int) -> dict:
    trace = trace_totals(passes)
    # request time per pass at the reference speed, without the calibration
    # loop between requests
    times = [(sum(r[1] for r in p["records"]) * pass_scale(p), "trace" in p) for p in passes]
    traced = [t for t, is_traced in times if is_traced]
    untraced = [t for t, is_traced in times if not is_traced]
    n = len(traced)
    self_s = trace["self_s"]
    request_s = trace["request_s"]
    other = request_s - sum(self_s.values())
    terms = trace["solvers.terms"]
    trees = trace["hooks.trees_visited"]
    objects = trace["bijections.objects"]
    labellings = trace["bijections.labellings"]
    metrics = {f"{layer}.self_s": (s / n, "s") for layer, s in self_s.items()}
    metrics.update({
        "other.self_s": (other / n, "s"),
        "trace.request_s": (request_s / n, "s"),
        "trace.overhead_frac": (
            1 - (sum(untraced) / len(untraced)) / (sum(traced) / n), "frac"),
        "series.mul_calls": (trace["series.mul_calls"] / n, "count"),
        "series.compose_calls": (trace["series.compose_calls"] / n, "count"),
        "series.reversion_calls": (trace["series.reversion_calls"] / n, "count"),
        "solvers.calls": (trace["solvers.calls"] / n, "count"),
        "solvers.terms": (terms / n, "count"),
        "solvers.max_bits": (trace["solvers.max_bits"], "bits"),
        "solvers.compose_per_term": (
            trace["solvers.compose_in_solvers"] / terms if terms else 0.0, "ratio"),
        "weights.coefficient_calls": (trace["weights.coefficient_calls"] / n, "count"),
        "trees.trees_yielded": (trace["trees.trees_yielded"] / n, "count"),
        "trees.labellings_yielded": (trace["trees.labellings_yielded"] / n, "count"),
        "hooks.trees_visited": (trees / n, "count"),
        "hooks.us_per_tree": (
            (self_s["hooks"] + trace["hooks.trees_self_s"]) / trees * 1e6 if trees else 0.0,
            "us"),
        "hooks.rhs_s": (trace["hooks.rhs_s"] / n, "s"),
        "bijections.objects": (objects / n, "count"),
        "bijections.us_per_object": (
            trace["bijections.verify_s"] / objects * 1e6 if objects else 0.0, "us"),
        "bijections.yield_frac": (objects / labellings if labellings else 0.0, "frac"),
        "reverse.reversion_s": (trace["reverse.reversion_s"] / n, "s"),
        "reverse.roundtrip_s": (trace["reverse.roundtrip_s"] / n, "s"),
        "families.calls": (trace["families.calls"] / n, "count"),
        "cli.errors": (errors / len(passes), "count"),
    })
    return metrics


def run_worker(plan: dict, env: dict, deadline: float) -> dict:
    """One pass in a fresh worker process; its JSON result."""
    budget = deadline - time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(plan), capture_output=True, text=True,
            env=env, cwd=ROOT, timeout=budget,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker did not finish within {budget:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    settings = result["settings"]
    if settings["optimize"] or settings["INCTREE_CAPACITY"] is not None:
        raise RuntimeError("worker ran with -O or INCTREE_CAPACITY set")
    return result


def run_passes(args, requests: list, env: dict, deadline: float) -> list:
    """Whole passes (untraced, or untraced and traced in turn) while another
    block of them fits into ``args.seconds``."""
    orders = pass_orders(len(requests), args.seed)
    modes = (False, True) if args.trace else (False,)
    passes = []
    loop_start = time.perf_counter()
    while True:
        block_start = time.perf_counter()
        for traced in modes:
            spans = os.path.join(OUT, f"{args.workload}.{len(passes)}.spans")
            plan = {"requests": requests, "order": next(orders), "trace": traced,
                    "spans_path": spans if traced else None}
            passes.append(run_worker(plan, env, deadline))
        now = time.perf_counter()
        if now - loop_start + (now - block_start) > args.seconds:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "inctrees", "__init__.py")):
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)["workloads"][args.workload]

    env = worker_env()
    setup = cold_starts(env)
    os.makedirs(OUT, exist_ok=True)
    for name in os.listdir(OUT):
        if name.startswith(f"{args.workload}.") and name.endswith(".spans"):
            os.remove(os.path.join(OUT, name))
    try:
        passes = run_passes(args, [e["argv"] for e in expected], env, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    calibration_end = calibrate()

    records = [r for p in passes for r in p["records"]]
    failures, errors = [], 0
    for index, _seconds, code, digest, _calibration in records:
        want = expected[index]
        if code == 2:
            errors += 1
        if code != want["exit"] or digest != want["sha256"]:
            failures.append(" ".join(want["argv"])[:100] + f" (exit {code})")
    attempted = len(records)
    if args.trace:
        metrics = per_layer(passes, errors)
    else:
        metrics = end_to_end(passes, setup, attempted - len(failures), attempted)
    untraced = [p for p in passes if "trace" not in p]
    latencies = request_latencies(untraced, scaled=False)
    p90 = quantile(latencies, 0.9)
    calibration_s = statistics.median(
        [t for p in untraced for r in p["records"] for t in r[4]])
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "requests_per_pass": len(expected),
        "passes": [{"traced": "trace" in p, "wall_s": p["wall_s"]} for p in passes],
        "latency_samples": len(latencies),
        "samples_beyond_p90": sum(1 for x in latencies if x > p90),
        "unscaled": {k: v for k, (v, _) in latency_summary(latencies).items()},
        "calibration_median_s": {
            "start": statistics.median(setup[1]),
            "passes": calibration_s,
            "end": statistics.median(calibration_end),
        },
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "setup_samples_s": setup[0],
        "setup_calibration_s": setup[1],
        "settings": passes[0]["settings"],
        "records": records,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.trace:
        summary["trace_totals"] = trace_totals(passes)
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} requests in {len(passes)} passes of {len(expected)}; "
          f"latency samples (mean repeat of each request): {len(latencies)}, "
          f"{summary['samples_beyond_p90']} beyond p90")
    print(f"settings: python {summary['settings']['python']}, -O off, INCTREE_CAPACITY unset")
    print("calibration loop, median ms: "
          + ", ".join(f"{k} {v * 1e3:.4f}" for k, v in summary["calibration_median_s"].items())
          + f"; reference {REFERENCE_CALIBRATION_S * 1e3:.4f}")
    print("unscaled wall figures: "
          + ", ".join(f"{k} {v:.6g}" for k, v in summary["unscaled"].items()))
    print(f"failed_frac: {summary['failed_frac']:.6g} ({len(failures)} of {attempted})")
    for line in failures[:5]:
        print(f"  failed: {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
