"""Benchmark of inpk: decide, prove and interchange.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout.  One run sets up,
then repeats whole rounds of its workload's fixed operation list until
the operations have taken ``--seconds`` seconds (``prove`` makes one
round), checking every result against the reference semantics or a
property the method must have.  Operation times are reported on the
reference clock described below.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the program's module boundaries are wrapped and the
metrics are per layer (see README.md).  Exit status: 0 when every check
passed, 1 when one failed, 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}

# The reference clock.  The speed of the VM this benchmark was written on
# drifts by a tenth over tens of seconds and by a quarter or more over an
# hour, for all work at once.  So a run also times a fixed pure-Python
# loop between its operations, and reports operation times scaled by
# CAL_REF_S / (the loop's median time in the run): seconds at the speed
# at which the loop takes CAL_REF_S, its median on that VM.  Set-up,
# mostly imports, does not follow the loop and is reported as wall time.
CAL_ITERATIONS = 50_000
CAL_REF_S = 0.0096
CAL_EVERY_S = 0.2  # the loop is timed once per this many seconds of operations


def calibration_loop() -> float:
    """Seconds one pass of the reference loop takes."""
    t = time.perf_counter()
    s = 0
    d = {}
    for i in range(CAL_ITERATIONS):
        s += i * i % 7
        d[i % 1000] = s
    return time.perf_counter() - t


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up seconds and exit")
    return ap.parse_args(argv)


def import_program():
    sys.path.insert(0, SRC)
    try:
        import inpk
        from inpk import cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import inpk from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    where = os.path.dirname(os.path.abspath(inpk.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        print(f"error: inpk came from {where}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return inpk


def p99(values: list[float]) -> float:
    """99th percentile, inclusive interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def setup_sample(args) -> float:
    """Set-up seconds of one fresh interpreter running this script."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    inpk = import_program()
    import_s = time.perf_counter() - T_START

    wl = workloads.WORKLOADS[args.workload]()
    wl.make_inputs(args.seed)  # the benchmark's own work: not set-up
    os.makedirs(workloads.OUT_DIR, exist_ok=True)

    tracer = tracing.install(inpk) if args.trace else None
    t = time.perf_counter()
    wl.setup(inpk)
    setup_s = import_s + time.perf_counter() - t
    if args.setup_only:
        print(repr(setup_s))
        return 0

    latencies: list[float] = []
    errors: list[str] = []
    attempted = failed = 0
    busy = 0.0
    out_bytes = 0
    rounds = 0
    round_rates: list[float] = []
    round_starts: list[int] = []
    cal = [calibration_loop()]
    cal_busy = busy
    wall = time.perf_counter()
    while True:
        done_before, busy_before = attempted - failed, busy
        round_starts.append(len(latencies))
        for i, op in enumerate(wl.ops):
            while busy - cal_busy >= CAL_EVERY_S:
                cal.append(calibration_loop())
                cal_busy += CAL_EVERY_S
            if wl.collect_first:
                gc.collect()
            if tracer:
                tracer.phase, tracer.enabled = "run", True
            attempted += 1
            t = time.perf_counter()
            try:
                result = op()
            except Exception as exc:  # an operation that fails is counted, not fatal
                busy += time.perf_counter() - t
                failed += 1
                errors.append(f"op {i} raised {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t
            busy += dt
            latencies.append(dt)
            if tracer:
                tracer.enabled = False
            err, size = wl.check(i, result)
            if err:
                errors.append(err)
            if rounds == 0:
                out_bytes += size
        rounds += 1
        round_rates.append((attempted - failed - done_before) / (busy - busy_before))
        if busy >= args.seconds or rounds == wl.max_rounds:
            break
    cal.append(calibration_loop())
    wall = time.perf_counter() - wall
    scale = CAL_REF_S / statistics.median(cal)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if hasattr(wl, "cleanup"):
        wl.cleanup()

    ref_latencies = [x * scale for x in latencies]
    round_p99 = [p99(ref_latencies[a:b])
                 for a, b in zip(round_starts, round_starts[1:] + [len(latencies)])]
    e2e = {
        "ops_per_s": statistics.median(round_rates) / scale,
        "latency_p50_ms": statistics.median(ref_latencies) * 1e3,
        "latency_p99_ms": statistics.median(round_p99) * 1e3,
        "peak_rss_mb": peak_mb,
        "output_mb": out_bytes / 1e6,
    }
    summary = (f"{args.workload} seed {args.seed}: {rounds} round(s), {attempted} ops, "
               f"{busy:.2f} s in ops, {wall:.2f} s with checks, clock scale {scale:.4f} "
               f"from {len(cal)} loop timings")

    if tracer:
        metrics = tracing.layer_metrics(tracer)
        units = dict(tracing.PER_LAYER)
        tracer.dump(os.path.join(workloads.OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl"))
        print(summary + ", traced: " + json.dumps(e2e), file=sys.stderr)
    else:
        samples = [setup_s] + [setup_sample(args) for _ in range(wl.setup_samples - 1)]
        e2e["setup_s"] = statistics.median(samples)
        metrics = {name: e2e[name] for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
        print(summary + f", set-up samples {[round(s, 3) for s in samples]}", file=sys.stderr)

    for err in errors[:20]:
        print("CHECK FAILED: " + err, file=sys.stderr)
    result = {
        "correct": not [e for e in errors if not e.startswith("op ")],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(os.path.join(workloads.OUT_DIR,
                           f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(result, latencies_ms=[x * 1e3 for x in latencies],
                       round_rates=round_rates, clock_scale=scale,
                       calibration_ms=[x * 1e3 for x in cal]), fh)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
