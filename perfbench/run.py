#!/usr/bin/env python3
"""Builds and runs the served-query benchmark.

    python3 perfbench/run.py --workload serve_fit --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (a CMake project compiling ../src) into .bench_build/; later runs
only re-check the build. Build output goes to stderr. The benchmark binary then
prints its metric table and, as the last line of stdout, one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. The exit
code is the binary's (non-zero on any wrong answer).
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "served_bench"
# A run must end within 180 s; the binary sizes its phases from --seconds,
# this only guarantees the bound if something hangs.
RUN_TIMEOUT_S = 170


def build(env):
    log = sys.stderr
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log, env=env)
        if configure.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    built = subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "served_bench",
         "-j", jobs],
        stdout=log, stderr=log, env=env)
    return built.returncode == 0 and BINARY.exists()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_fit", "serve_spill", "mixed_rw"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    # Compilers and served_bench put scratch files under TMPDIR: keep them in
    # the checkout too.
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not build(env):
        print("served_bench: build failed", file=sys.stderr)
        return 2
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT_DIR)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=env).returncode
    except subprocess.TimeoutExpired:
        print("served_bench: timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
