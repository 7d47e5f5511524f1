#!/usr/bin/env python3
"""The repository benchmark: build, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold_ci --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Builds the analysis libraries, the thinsliced daemon and the perfbench
load generator from the sources in this checkout (Release, under
.bench_build/perfbench), then runs the load generator. Its last stdout
line is one JSON object with "correct", "attempted", "failed" and
"metrics". See perfbench/README.md for the workloads and metrics.

Exits non-zero, without printing a result, when the sources cannot be
built or the run fails. The run is killed (with the daemon it started)
if it exceeds its time limit.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark package; False on failure."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return True


def run_bounded(cmd, cwd):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("error: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        # Whatever the outcome, nothing the run started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    if not build():
        print("error: building the benchmark failed", file=sys.stderr)
        return 1

    work = os.path.join(BUILD, "work")
    os.makedirs(os.path.join(ROOT, work), exist_ok=True)
    if args.self_test:
        return run_bounded([os.path.join(".", "perfbench_selftest")],
                           os.path.join(ROOT, BUILD))
    return run_bounded([
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--daemon-bin", os.path.join(BUILD, "tsl_tools", "thinsliced"),
        "--expected", os.path.join("perfbench", "expected", "digests.txt"),
        "--workdir", work,
    ], ROOT)


if __name__ == "__main__":
    sys.exit(main())
