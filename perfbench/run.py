#!/usr/bin/env python3
"""Build the utilrisk benchmark and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload all --seed 42 --seconds 20 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the
repository's libraries, the `utilrisk` CLI and the `perfbench` program)
in .bench_build/ as a Release build; later calls only re-check it. Build
output goes to stderr, so the last line of stdout is the program's JSON
result. Every other argument is passed to it unchanged; see
perfbench/README.md for the workloads and metrics.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD, "--target", "utilrisk",
                    "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no utilrisk sources beside perfbench/ "
              "(expected src/CMakeLists.txt); nothing to measure",
              file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    program = os.path.join(BUILD, "perfbench")
    utilrisk = os.path.join(BUILD, "tools", "utilrisk")
    return subprocess.run([program, "--utilrisk", utilrisk] + sys.argv[1:],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
