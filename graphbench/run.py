#!/usr/bin/env python3
"""Build and run one graphbench workload.

    python3 graphbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
graphbench/ (which builds the repository's libraries and graphulo_tsd
from src/) into .bench_build/; later runs rebuild incrementally. Build
output goes to stderr. The benchmark's stdout is passed through, so the
last stdout line is the JSON result. Scratch data lives in
.bench_build/tmp/ and is removed when the run ends; the traced run's
Chrome trace is written to .bench_build/traces/.
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
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "graphbench")
WORKLOADS = ("tablemult_write", "triangle_read", "tablemult_cluster")
# A run must end within 180 s; stop short of it.
RUN_LIMIT_S = 170
STOP_GRACE_S = 10


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("graphbench: src/ not found; run from a repository checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "graphbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("graphbench: build failed: " + " ".join(step))


def stop_group(proc):
    """SIGTERM the benchmark's process group (it kills its daemons),
    then SIGKILL whatever is left, and reap the benchmark."""
    for sig, wait_s in ((signal.SIGTERM, STOP_GRACE_S), (signal.SIGKILL, None)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        try:
            proc.wait(timeout=wait_s)
            break
        except subprocess.TimeoutExpired:
            continue
    proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale (seconds per run)")
    parser.add_argument("--wrong-oracle", action="store_true",
                        help="self-test: every expected value is off by one")
    args = parser.parse_args()

    build()
    work = os.path.join(OUT, "tmp", "%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(BUILD, "graphbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--trace-dir", os.path.join(OUT, "traces")]
    if args.tiny:
        cmd.append("--tiny")
    if args.wrong_oracle:
        cmd.append("--wrong-oracle")

    sys.stdout.flush()
    proc = subprocess.Popen(cmd, start_new_session=True)
    interrupted = []

    def on_signal(sig, _frame):
        interrupted.append(sig)
        stop_group(proc)

    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, on_signal)
    try:
        deadline = time.monotonic() + RUN_LIMIT_S
        while proc.poll() is None:
            if time.monotonic() > deadline:
                print("graphbench: run exceeded %d s; stopped" % RUN_LIMIT_S,
                      file=sys.stderr)
                stop_group(proc)
                return 1
            time.sleep(0.05)
    finally:
        if proc.poll() is None:
            stop_group(proc)
        shutil.rmtree(work, ignore_errors=True)
    if interrupted:
        return 128 + interrupted[0]
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
