#!/usr/bin/env python3
"""Explain3D benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the harness (perfbench/CMakeLists.txt,
which compiles the library from src/) into .bench_build/perfbench, runs one
workload, and passes the harness output through. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of the
traced replay with --trace 1.

Exits non-zero without printing a result when the build fails (for example
when src/ is missing), when the harness fails, or when EXPLAIN3D_FAULT_SPEC
is set (armed fault injection measures a different program).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("imdb-adhoc", "synth-capped", "wide-restart", "service-mix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root):
    """Configures and builds the harness; returns the binary path or None."""
    out_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(out_dir, "explain3d_perfbench")
    configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per checkout.
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (configure, ["cmake", "--build", out_dir, "-j", jobs]):
            try:
                proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                log("build timed out")
                return None
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:])
                log("build failed: " + " ".join(cmd))
                return None
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if os.environ.get("EXPLAIN3D_FAULT_SPEC") is not None:
        log("refusing to run with EXPLAIN3D_FAULT_SPEC set")
        return 2

    root = os.getcwd()
    binary = build(root)
    if binary is None:
        return 1

    work_dir = os.path.join(root, ".bench_build", "perfbench-work",
                            f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness timed out")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"harness exited with code {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(proc.stdout)
        log("harness printed no result line")
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("malformed result line")
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
