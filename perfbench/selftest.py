#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload of perfbench/setup.json at its reduced ("small") size,
untraced for two run lengths and traced, and requires each run to pass and
the two untraced runs to report identical quality geomeans. Then runs one
workload with a tampered response (one assignment entry flipped) and
requires the correctness gate to fail it. Exits non-zero on the first
surprise.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
QUALITY = re.compile(r"^quality over .*$", re.M)


def run(workload, trace, seconds="3", tamper=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", seconds, "--trace", str(trace), "--small"]
    if tamper:
        cmd.append("--tamper")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout


def main():
    with open(os.path.join(HERE, "setup.json")) as f:
        workloads = sorted(json.load(f)["workloads"])
    for workload in workloads:
        qualities = set()
        for trace, seconds in ((0, "3"), (0, "1"), (1, "3")):
            code, result, out = run(workload, trace, seconds)
            if code != 0 or result is None or not result["correct"]:
                sys.stdout.write(out)
                sys.exit("selftest: %s --trace %d failed (exit %d)"
                         % (workload, trace, code))
            print("selftest: %s --trace %d --seconds %s passed (%d requests)"
                  % (workload, trace, seconds, result["attempted"]))
            if trace == 0:
                qualities.update(QUALITY.findall(out))
        if len(qualities) != 1:
            sys.exit("selftest: %s quality is not one fixed value across run "
                     "lengths: %s" % (workload, sorted(qualities)))
    code, result, out = run(workloads[0], 0, tamper=True)
    if code == 0 or result is None or result["correct"] or result["failed"] != 1:
        sys.stdout.write(out)
        sys.exit("selftest: the gate did not catch a tampered response")
    print("selftest: tampered response rejected by the gate")


if __name__ == "__main__":
    main()
