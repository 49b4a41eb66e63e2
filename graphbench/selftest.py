#!/usr/bin/env python3
"""Self-test of the benchmark itself, at a tiny scale (a few minutes).

    python3 graphbench/selftest.py

Checks, for every workload on two seeds and in both run kinds, that the
result line has exactly the keys correct/attempted/failed/metrics and
every metric that BENCHMARK.json names, with its unit; that the checker
counts a deliberately wrong oracle value as a failed call; that an
interrupted cluster run leaves no graphulo_tsd process behind; and that
no run leaves scratch data behind. Exits nonzero on the first failed
check.
"""

import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SEEDS = (3, 11)
TMP = os.path.join(ROOT, ".bench_build", "tmp")


def fail(msg):
    print("SELFTEST FAILED: " + msg)
    sys.exit(1)


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        fail("%s exited %d:\n%s" % (" ".join(cmd), out.returncode,
                                    out.stderr[-3000:]))
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), out.stdout


def check_result(result, trace, where):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (where, sorted(result)))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        fail("%s: attempted %r" % (where, result["attempted"]))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s: correct %r, failed %r" % (where, result["correct"],
                                           result["failed"]))
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        fail("%s: metric names differ: missing %s, extra %s" % (
            where, sorted({m["name"] for m in wanted} - set(got)),
            sorted(set(got) - {m["name"] for m in wanted})))
    for m in wanted:
        entry = got[m["name"]]
        if set(entry) != {"value", "unit"} or entry["unit"] != m["unit"]:
            fail("%s: %s printed as %r, want unit %s" % (where, m["name"], entry,
                                                       m["unit"]))
        if not isinstance(entry["value"], (int, float)) or \
                not math.isfinite(entry["value"]):
            fail("%s: %s value %r" % (where, m["name"], entry["value"]))
        if not trace and entry["value"] <= 0:
            fail("%s: end-to-end metric %s is %r" % (where, m["name"],
                                                    entry["value"]))


def live_daemons():
    tsd = os.path.join(ROOT, ".bench_build")
    pids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as f:
                argv0 = f.read().split(b"\0")[0].decode(errors="replace")
        except OSError:
            continue
        if argv0.endswith("graphulo_tsd") and argv0.startswith(tsd):
            pids.append(int(pid))
    return pids


def main():
    workloads = [w["name"] for w in SPEC["workloads"]]
    for workload in workloads:
        for seed in SEEDS:
            for trace in (0, 1):
                where = "%s seed %d trace %d" % (workload, seed, trace)
                result, stdout = run(workload, seed, trace)
                check_result(result, trace, where)
                if not trace and ("failed_frac" not in stdout or
                                  "op_count" not in stdout):
                    fail(where + ": failed_frac / op_count not printed")
                print("ok   " + where, flush=True)

    # The checker itself: a wrong expected value must count every call.
    for workload in workloads:
        result, _ = run(workload, SEEDS[0], 0, "--wrong-oracle")
        if result["correct"] is not False or \
                result["failed"] != result["attempted"] or \
                result["attempted"] < 1:
            fail("%s --wrong-oracle: %r" % (workload, result))
        print("ok   %s: wrong oracle counted as %d failed of %d" % (
            workload, result["failed"], result["attempted"]), flush=True)

    # Hygiene: SIGINT mid-run stops the daemons and exits nonzero.
    proc = subprocess.Popen(
        [sys.executable, RUN, "--workload", "tablemult_cluster", "--seed", "5",
         "--seconds", "30", "--trace", "0", "--tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 300
    while len(live_daemons()) < 3:
        if proc.poll() is not None or time.monotonic() > deadline:
            fail("cluster run never started its daemons")
        time.sleep(0.1)
    proc.send_signal(signal.SIGINT)
    rc = proc.wait(timeout=60)
    time.sleep(0.5)
    if rc == 0:
        fail("interrupted run exited 0")
    if live_daemons():
        fail("daemons left after SIGINT: %s" % live_daemons())
    print("ok   SIGINT: exit %d, no daemon left" % rc)

    if live_daemons():
        fail("daemons left behind: %s" % live_daemons())
    if os.path.isdir(TMP) and os.listdir(TMP):
        fail("scratch data left in %s: %s" % (TMP, os.listdir(TMP)))
    print("selftest passed")


if __name__ == "__main__":
    main()
