#!/usr/bin/env python3
"""Builds the benchmark from source in the current checkout and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The jdvs library (../src) and the benchmark
are compiled into .bench_build/perfbench (Release); a rebuild is a no-op
when nothing changed. Build output goes to stderr, so the last line of standard
output is the benchmark's JSON result. With --trace 1 the span log is
written to .bench_build/perfbench-spans-<workload>-seed<n>.jsonl.

Exit status: the benchmark's (0 = every check passed), or 1 without a result
line when the build fails -- e.g. in a directory that holds only the
benchmark and not the program.
"""
import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False
        jobs = str(min(os.cpu_count() or 1, 4))
        compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                       "-j", jobs]
        return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = f"perfbench-spans-{args.workload}-seed{args.seed}.jsonl"
        cmd += ["--trace-out", os.path.join(BUILD_ROOT, spans)]
    sys.stdout.flush()
    child = subprocess.Popen(cmd)
    # Forward a termination request and always reap the child.
    signal.signal(signal.SIGTERM, lambda *_: child.terminate())
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
