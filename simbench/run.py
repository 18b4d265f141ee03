#!/usr/bin/env python3
"""Builds the simulator and the benchmark program from source, then runs one
benchmark workload.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the current directory, with the build type of the
repository's top-level CMakeLists.txt (RelWithDebInfo).  The
program's output is passed through; its last line is the JSON result.
Exits non-zero, without a result, when the build or the run fails.
"""
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def fail(msg):
    print(f"simbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        fail("the simulator sources (src/) are not next to the benchmark")
    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_dir / "simbench").resolve()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir)])
    steps.append(["cmake", "--build", str(build_dir), "--target", "simbench",
                  "-j", jobs])
    for cmd in steps:
        # Build logs go to stderr, and only on failure, so stdout ends with
        # the JSON result.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(cmd))
    return build_dir / "simbench"


def run_timeout_s(argv):
    """Kill limit for the program: a run measures --seconds, plus at least
    five rounds and set-up, which a slow host may stretch to three times."""
    try:
        seconds = float(argv[argv.index("--seconds") + 1])
    except (ValueError, IndexError):
        seconds = 0.0  # the program rejects the arguments itself
    return max(170.0, 3.0 * seconds + 60.0)


def main():
    binary = build()
    timeout = run_timeout_s(sys.argv[1:])
    try:
        proc = subprocess.run([str(binary)] + sys.argv[1:],
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail(f"run exceeded {timeout:.0f} s")
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"simbench exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("simbench printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("simbench result has unexpected keys")


if __name__ == "__main__":
    main()
