#!/usr/bin/env python3
"""Build and run the opckit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the
library sources under src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs the statistics self-test, then runs the
workload. The last line of standard output is the result JSON; the exit
status is non-zero when the build, the self-test or any correctness check
fails.
"""
import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("chip_socs", "ilt_escalate", "daemon_reuse")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd):
    """Run a build step with its output on stderr; stop on failure."""
    rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
    if rc != 0:
        fail("step failed (exit %d): %s" % (rc, " ".join(cmd)), 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no opckit sources under %s/src; run from the repository root"
             % root)
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = os.path.join(root, build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", build, "-j", jobs])
    run_quiet([os.path.join(build, "perfbench_selftest")])

    cmd = [os.path.join(build, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", os.path.join(build, "runs")]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.exit(rc)


if __name__ == "__main__":
    main()
