"""Self-test of the benchmark at tiny input sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics run.py prints, that
each workload's last stdout line follows the result schema in both
modes, that a deliberately corrupted reference value is reported as a
failed check with a non-zero exit, and that without the program the
benchmark exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, OUT, WORKLOADS  # noqa: E402

BENCH_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
problems = []


def expect(ok, message):
    if not ok:
        problems.append(message)
        print(f"FAIL {message}")


def run(root, workload, *extra):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", *extra]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, last


def check_schema(label, code, result, names):
    expect(code == 0, f"{label}: exit {code}")
    if not isinstance(result, dict):
        expect(False, f"{label}: last line is not a JSON object")
        return
    expect(set(result) == RESULT_KEYS, f"{label}: keys {sorted(result)}")
    expect(result.get("correct") is True and result.get("failed") == 0, f"{label}: not correct")
    attempted = result.get("attempted")
    expect(isinstance(attempted, int) and attempted >= 1, f"{label}: attempted {attempted!r}")
    metrics = result.get("metrics", {})
    expect(set(metrics) == set(names), f"{label}: metrics differ: {sorted(set(metrics) ^ set(names))}")
    for name, m in metrics.items():
        expect(set(m) == {"value", "unit"} and isinstance(m["value"], (int, float)),
               f"{label}: malformed metric {name}: {m}")
        if name in names:
            expect(m.get("unit") == names[name], f"{label}: {name} unit {m.get('unit')} != {names[name]}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(set(bench) == BENCH_KEYS, f"BENCHMARK.json keys {sorted(bench)}")
    expect({w["name"] for w in bench["workloads"]} <= set(WORKLOADS), "BENCHMARK.json names an unknown workload")
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(end_to_end == END_TO_END, "end_to_end metrics differ from run.py")

    for workload in WORKLOADS:
        check_schema(f"{workload} untraced", *run(ROOT, workload, "--size", "tiny"), end_to_end)
        check_schema(f"{workload} traced", *run(ROOT, workload, "--size", "tiny", "--trace", "1"), per_layer)
        code, result = run(ROOT, workload, "--size", "tiny", "--corrupt-reference")
        expect(code == 1, f"{workload} corrupted reference: exit {code}, want 1")
        expect(isinstance(result, dict) and result.get("correct") is False and result.get("failed", 0) >= 1,
               f"{workload} corrupted reference: not reported as failed: {result}")

    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result = run(bare, WORKLOADS[0])
    expect(code != 0 and not (isinstance(result, dict) and "correct" in result),
           f"without the program: exit {code}, result {result}")
    shutil.rmtree(bare)

    print(f"selftest: {'FAILED' if problems else 'ok'} ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
