#!/usr/bin/env python3
"""Small-scale self-test of the benchmark.

Runs every workload of BENCHMARK.json at 1000 transactions, untraced and
traced, and asserts that the result line has the contract's shape, that all
output checks passed, and that exactly the metrics BENCHMARK.json names are
emitted with their units. Then checks that the benchmark refuses to run
(non-zero exit, no result) from a directory holding only BENCHMARK.json and
perfbench/.

  python3 perfbench/selftest.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--txs", "1000"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_result(spec, workload, trace, proc):
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: checks failed\n{proc.stderr}"
    assert result["failed"] == 0 and result["attempted"] >= 1, where
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    metrics = result["metrics"]
    assert set(metrics) == set(units), \
        f"{where}: metric names differ: {set(metrics) ^ set(units)}"
    for name, m in metrics.items():
        assert set(m) == {"value", "unit"}, f"{where}: {name}"
        assert m["unit"] == units[name], f"{where}: {name} unit {m['unit']}"
        assert math.isfinite(m["value"]), f"{where}: {name} not finite"
        if not trace:
            assert m["value"] > 0, f"{where}: {name} is 0"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_result(spec, workload, trace, run(ROOT, workload, trace))
            print(f"ok   {workload} --trace {trace}")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "bare directory: benchmark did not fail"
    assert '"correct"' not in proc.stdout, "bare directory: printed a result"
    print("ok   refuses to run without the sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
