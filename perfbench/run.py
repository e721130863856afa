#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

usage: python3 perfbench/run.py --workload cold_start|steady_state|campaign
                                --seed N --seconds S --trace 0|1

Run from the repository root. The simulator libraries and the benchmark are
compiled (Release) into .bench_build/ on first use; later runs only rebuild
what changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. See perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources not found in src/; "
                 "run from the root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 8))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(BUILD, "perfbench")


def main():
    binary = build()
    out_dir = os.path.join(BUILD, "perfbench-out")
    return subprocess.run([binary, *sys.argv[1:], "--out-dir", out_dir],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
