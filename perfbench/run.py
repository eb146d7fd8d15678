#!/usr/bin/env python3
"""Build and run the mbcosim benchmark.

    python3 perfbench/run.py --workload dse_paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (a CMake package that pulls in the repository's
library and the mbcserve daemon) as a Release build under
.bench_build/perfbench, then runs the perfbench binary. Its last stdout
line is the JSON result. Everything the run writes stays under
.bench_build/ of the checkout.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
BUILD_TYPE = "Release"
WORKLOADS = ("dse_paper", "sw_batch", "farm_hosted")
RUN_LIMIT_S = 170  # every run but the one that builds ends within 180 s
BUILD_LIMIT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def cached_source_dir():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build(deadline):
    """Configure once, then bring the binary up to date. Returns the
    binary path; the build log goes to .bench_build/perfbench-build.log."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the mbcosim sources are not next to perfbench/; nothing to build")
    cached = cached_source_dir()
    if cached is not None and os.path.realpath(cached) != os.path.realpath(HERE):
        shutil.rmtree(BUILD_DIR)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if cached_source_dir() is None:
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w", encoding="utf-8") as log:
        for step in steps:
            remaining = max(1.0, deadline - time.monotonic())
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=remaining, check=False)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if done.returncode != 0:
                log.flush()
                with open(log_path, encoding="utf-8", errors="replace") as handle:
                    sys.stderr.write("".join(handle.readlines()[-40:]))
                fail("build failed; see " + log_path)
    binary = os.path.join(BUILD_DIR, "perfbench")
    if not os.path.exists(binary):
        fail("build produced no perfbench binary")
    return binary


def run(command, deadline):
    """Run the binary in its own process group, so a timeout also stops
    the daemon it may have spawned; forward its stdout."""
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             start_new_session=True, cwd=ROOT)
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail("benchmark run timed out")
    sys.stdout.write(out.decode("utf-8", errors="replace"))
    sys.stdout.flush()
    return child.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that corrupted outputs count as failures")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    start = time.monotonic()
    first_build = cached_source_dir() is None
    binary = build(start + (BUILD_LIMIT_S if first_build else RUN_LIMIT_S))
    deadline = start + (BUILD_LIMIT_S + 50 if first_build else RUN_LIMIT_S)
    if args.self_test:
        return run([binary, "--self-test"], deadline)
    os.makedirs(WORK_DIR, exist_ok=True)
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--workdir", WORK_DIR], deadline)


if __name__ == "__main__":
    sys.exit(main())
