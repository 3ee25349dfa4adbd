"""The purecross benchmark.

    python3 perfbench/run.py --workload backward-table --seed 1602 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seconds 60

Each repetition is a fresh interpreter (worker.py) on inputs generated
from ``--seed``, because the package's caches start empty for a command
line user.  Repetitions run one after another, a closed loop, as long as the next
one should end within ``--seconds``; the metrics are medians over
repetitions.  Times are in reference seconds: each repetition's times
are scaled by REFERENCE_CALIBRATION_S over the time its worker took for
a fixed calibration task right before and after the timed region, which
takes the shared host's speed at that moment out of them (README.md).
Every output is checked outside the timed region against references the
benchmark computes itself (refs.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of
the traced ones plus the tracing overhead (traced minus untraced
``wall_s``); spans go to ``.perfbench_out/spans-<workload>.jsonl.gz``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
check passed, 1 when one failed, 2 when the program is missing.
``--size tiny`` and ``--corrupt-reference`` exist for selftest.py.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1602
WORKLOADS = ("backward-table", "forward-rational", "weighted-brute", "enum-count")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Seconds the calibration task (worker._calibrate) takes on a 2-vCPU
# Xeon VM at its fast state.  A fixed constant: it sets the unit, and
# the same value must be used on both sides of a comparison.
REFERENCE_CALIBRATION_S = 0.065
# A run must end within 180 s; stop starting repetitions well before.
DEADLINE_S = 150


def _git_rev():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _meta(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def _repetition(args, workload, rep, traced, deadline):
    """Run one worker; return its result dict, or None if it failed."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed), "--size", args.size,
        "--trace", str(int(traced)), "--run-id", f"{workload}:{args.seed}:{rep}",
        "--spans", str(OUT / f"spans-{workload}.jsonl.gz"),
    ]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"{workload} repetition {rep}: timed out", file=sys.stderr)
        return None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err)
        print(f"{workload} repetition {rep}: worker exit {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready_monotonic") - start
    result["duration_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - start
    result["scale"] = REFERENCE_CALIBRATION_S / statistics.mean(result["calibration_s"])
    result["traced"] = traced
    return result


def _median(reps, value, unit):
    """Median over ``reps`` of ``value(rep)``, with times (unit ``s``)
    and rates (``1/s``) in reference seconds."""
    power = {"s": 1, "1/s": -1}.get(unit, 0)
    return statistics.median(value(r) * r["scale"] ** power for r in reps)


def run_workload(args, workload):
    """Repeat the workload for ``args.seconds``; return the contract's
    result object and the raw repetitions."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    if args.trace:
        (OUT / f"spans-{workload}.jsonl.gz").unlink(missing_ok=True)
    reps, broken = [], False
    while True:
        # Trace runs alternate untraced and traced repetitions, untraced first.
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = _repetition(args, workload, len(reps), traced, deadline)
        if rep is None:
            broken = True
            break
        reps.append(rep)
        for failure in rep["failures"]:
            print(f"{workload}: FAILED {failure}", file=sys.stderr)
        # Start another repetition only if it should end within --seconds;
        # the last two cover both kinds in a trace run.
        enough = len(reps) >= (2 if args.trace else 1)
        expected = max(r["duration_s"] for r in reps[-2:])
        if enough and time.monotonic() - started + expected > args.seconds:
            break
        if time.monotonic() + expected >= deadline:
            break

    # A repetition that crashed or timed out counts as one failed check.
    attempted = sum(r["attempted"] for r in reps) + broken
    failed = sum(len(r["failures"]) for r in reps) + broken
    plain = [r for r in reps if not r["traced"]]
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        metrics = {}
        if traced:
            for name, unit in _layer_units(traced[0]["layer"]).items():
                metrics[name] = {"value": _median(traced, lambda r: r["layer"][name], unit), "unit": unit}
            wall_t = _median(traced, lambda r: r["wall_s"], "s")
            metrics["trace.wall_s"] = {"value": wall_t, "unit": "s"}
            if plain:
                wall_u = _median(plain, lambda r: r["wall_s"], "s")
                metrics["trace.overhead_s"] = {"value": wall_t - wall_u, "unit": "s"}
    else:
        metrics = {
            name: {"value": _median(plain, lambda r: r[name], unit), "unit": unit}
            for name, unit in END_TO_END.items()
        } if plain else {}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, reps


def _layer_units(layer):
    units = {}
    for name in layer:
        if name.endswith(("calls", ".items", ".spans")):
            units[name] = "count"
        elif ".accepted_per_s." in name:
            units[name] = "1/s"
        else:
            units[name] = "s"
    return units


def _summary(workload, result, reps):
    parts = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    rate = result["failed"] / result["attempted"]
    line = f"{workload}: " + " ".join(parts) + f" fail_rate={rate:.6g} ({result['failed']}/{result['attempted']})"
    plain = [r for r in reps if not r["traced"]]
    if plain:
        raw = " ".join(
            f"{name}={statistics.median(r[name] for r in plain):.6g}" for name, unit in END_TO_END.items() if unit == "s"
        )
        line += f" | unscaled medians (s): {raw}, scale {statistics.median(r['scale'] for r in plain):.3g}"
    return line


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "purecross" / "__init__.py").is_file():
        print(f"error: no purecross package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        result, reps = run_workload(args, workload)
        results[workload] = result
        record = {"meta": _meta(args) | {"workload": workload}, "result": result, "repetitions": reps}
        (OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n"
        )
        print(_summary(workload, result, reps))
    print("meta: " + json.dumps(_meta(args)))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
