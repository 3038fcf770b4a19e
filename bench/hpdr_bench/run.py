#!/usr/bin/env python3
"""Build hpdr_bench from source, then run it with the given arguments.

Run from the repository root:

    python3 bench/hpdr_bench/run.py --workload nyx-lossy --seed 1 \
        --seconds 25 --trace 0

The build goes to .bench_build/hpdr_bench and is incremental. Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. Results and traces are written to
.bench_build/hpdr_bench/out unless --out-dir is given. The `compare`
subcommand reads BENCHMARK.json from the repository root.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "hpdr_bench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("hpdr_bench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if args[:1] == ["compare"]:
        args = ["compare", "--bench", os.path.join(ROOT, "BENCHMARK.json")] + args[1:]
    elif "--out-dir" not in args:
        args += ["--out-dir", os.path.join(BUILD, "out")]
    return subprocess.run([os.path.join(BUILD, "hpdr_bench")] + args,
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
