#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload keystroke_sessions --seed 1 \
        --seconds 30 --trace 0

The first call configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later calls rebuild only what changed. Build output goes to stderr, so the
program's last stdout line stays its JSON result. The shared thread pool is
turned off (MDL_THREADS=1; see README.md): the busy threads are the main
thread, which generates requests and runs training and federated rounds,
and the server's executor.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "src"))


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir, jobs):
    if not os.path.isfile(os.path.join(SRC, "CMakeLists.txt")):
        fail(f"library sources not found at {SRC}")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", str(jobs)],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    cores = len(os.sched_getaffinity(0))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    try:
        binary = build(build_dir, cores)
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")

    env = dict(os.environ)
    env["MDL_THREADS"] = "1"
    for leftover in ("MDL_TRACE_OUT", "MDL_JSON_OUT"):
        env.pop(leftover, None)
    child = None
    stopped_by = []

    def stop(signum, _frame):
        # Only forward the signal: the wait below is what reaps the program.
        stopped_by.append(signum)
        if child is not None:
            child.terminate()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    child = subprocess.Popen([binary] + sys.argv[1:], env=env)
    if stopped_by:
        child.terminate()
    # The program removes its checkpoint scratch directory itself; this
    # covers a program stopped by a signal.
    scratch = os.path.join(".bench_build", f"scratch-{child.pid}")
    code = child.wait()
    shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(128 + stopped_by[0] if stopped_by else code)


if __name__ == "__main__":
    main()
