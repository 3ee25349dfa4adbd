"""One repetition of one workload, in a fresh interpreter.

Started by run.py; not meant to be run by hand.  Imports purecross from
``src``, builds the inputs from the seed, reports when set-up is done,
times the workload between two runs of a fixed calibration task, checks
its outputs outside the timed region and prints one JSON line.  Exit
code 3 means the program could not be imported.
"""

import argparse
import gc
import json
import random
import resource
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import refs

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s():
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _calibrate():
    """Seconds this process takes for a fixed task of the benchmark's own.

    The task uses only the standard library, never purecross, and is the
    same on every run: a truncated composition of rational series and
    the purely crossing partitions of 8 by their definition, the kinds of
    work the workloads do.  run.py divides the workload's times by it to
    take out the shared host's speed at that moment (see README.md).
    The cyclic collector is off, so the objects the program keeps alive
    do not change its cost.
    """
    rnd = random.Random(0)
    f = [Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in range(17)]
    g = [0, 1] + [Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in range(15)]
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(4):
            refs.compose(f, g, 16)
            refs.purely_crossing_texts(8)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--corrupt-reference", action="store_true")
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import purecross as pc
        import purecross.cli  # noqa: F401  (the console script's module)
    except ImportError as exc:
        print(f"cannot import purecross from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 3
    from tracing import Tracer, instrument, layer_metrics
    from workloads import WORKLOADS, Checks

    wl = WORKLOADS[args.workload]
    size = wl.sizes[args.size]
    inputs = wl.setup(pc, args.seed, size)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    tracer = Tracer(args.run_id) if args.trace else None
    if tracer is not None:
        instrument(tracer)

    gc.collect()
    calibration = [_calibrate()]
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    outputs = wl.run(pc, inputs, tracer.span if tracer else lambda name: nullcontext())
    t1 = time.perf_counter()
    cpu1 = _cpu_s()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calibration.append(_calibrate())

    ck = Checks(corrupt=args.corrupt_reference)
    wl.check(inputs, outputs, ck, size)
    result = {
        "ready_monotonic": ready,
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "calibration_s": calibration,
        "attempted": ck.attempted,
        "failures": ck.failures,
    }
    if tracer is not None:
        metrics, problems = layer_metrics(tracer, t1 - t0, t0, t1)
        result["attempted"] += 1
        if problems:
            result["failures"].append("trace accounting: " + "; ".join(problems[:3]))
        result["layer"] = metrics
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
