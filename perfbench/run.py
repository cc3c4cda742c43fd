#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload lu-cold|fm-replay-l1x4|fig4-campaign \
        --seed N --seconds S --trace 0|1 [--smoke]

The first run configures and builds perfbench/ (the simulator library
from src/ plus the benchmark driver) in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed. The driver's stdout is passed through; its last line is the
result JSON. The exit code is non-zero, and no result is printed, when
the build fails, the sources are missing, or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("lu-cold", "fm-replay-l1x4", "fig4-campaign")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir(root):
    """The build directory: under $CARGO_TARGET_DIR when it lies inside
    the checkout, else under .bench_build."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.realpath(os.path.join(root, base))
    if os.path.commonpath([base, os.path.realpath(root)]) != os.path.realpath(root):
        base = os.path.join(root, ".bench_build")
    return os.path.join(base, "perfbench")


def build(root):
    """Configure (once) and build; returns the benchmark binary or None."""
    out = build_dir(root)
    src = os.path.join(root, "perfbench")
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return None
    with open(cache) as f:
        build_type = next((line.split("=", 1)[1].strip() for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        log(f"refusing a '{build_type}' build; the benchmark measures Release")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        return None
    return os.path.join(out, "jetty_perfbench")


def valid_result(line):
    try:
        doc = json.loads(line)
    except ValueError:
        return False
    return (isinstance(doc, dict)
            and set(doc) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(doc["attempted"], int) and doc["attempted"] >= 1
            and isinstance(doc["failed"], int)
            and isinstance(doc["metrics"], dict) and doc["metrics"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny scale: checks only, figures meaningless")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    needed = ("src/sim/smp_system.hh", "examples/paper_figure4.spec.json")
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        log("simulator sources not found beside perfbench/: "
            + ", ".join(missing))
        return 2

    try:
        binary = build(root)
    except subprocess.TimeoutExpired:
        binary = None
    if not binary:
        log("build failed")
        return 2

    env = {k: v for k, v in os.environ.items() if not k.startswith("JETTY_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S}s")
        return 1
    finally:
        # Reap anything the run left in its session (worker processes).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not valid_result(lines[-1]):
        sys.stderr.write(stdout)
        log(f"run failed (exit {proc.returncode})")
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
