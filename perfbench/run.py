#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds the perfbench driver (the blockoptr library from src/ plus
perfbench/perfbench.cc, Release) under .bench_build/perfbench on first use,
then runs one workload and passes its output through:

  python3 perfbench/run.py --workload batch-export --seed 1 --seconds 10 --trace 0

The last line of stdout is the result JSON; build output goes to stderr.
With --trace 1 the spans are written to .bench_build/traces/.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
EXE = BUILD / "perfbench"


def build():
    """Configures once, then (re)builds incrementally. Exits on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: src/ not found next to perfbench/; "
                 "run from a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch-export", "stream-hotkey",
                                 "sharded-4ch"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--txs", type=int, default=0,
                        help="override the workload's size (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.txs < 0:
        parser.error("--seed and --txs must be >= 0, --seconds > 0")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--txs", str(args.txs)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
