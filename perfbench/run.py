#!/usr/bin/env python3
"""End-to-end request benchmark of the partitioning service.

    python3 perfbench/run.py --workload cold_flat --seed 1 --seconds 20 --trace 0

Builds perfbench/ together with the library under src/ into .bench_build/
(or $CARGO_TARGET_DIR) of the checkout, prints the recorded set-up from
perfbench/setup.json, then runs one workload; the binary prints the host
settings it runs with. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics, or with --trace 1 the per-layer ones.

Exits non-zero without a result line when the build fails or when clients
x service workers x kernel threads exceed the host's CPUs; exits non-zero after the result line when a correctness check or a
workload assertion fails.

--small runs the workload at the reduced size recorded for the harness
self-test, and --tamper corrupts one response to prove the gate fails
(both for perfbench/selftest.py).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the first run of a checkout also builds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def show(line):
    print("# " + line, flush=True)


def workload_why(name, workload):
    """BENCHMARK.json states why each gated workload was chosen; setup.json
    states it only for the workloads that are not gated."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            gated = {w["name"]: w["why"] for w in json.load(f)["workloads"]}
    except (OSError, ValueError, KeyError):
        gated = {}
    return gated.get(name) or workload.get("why", "")


def print_setup(setup, name, params):
    show("perfbench set-up (perfbench/setup.json)")
    show("workload %s: %s" % (name, workload_why(name, setup["workloads"][name])))
    show("generator: " + " ".join("%s=%s" % kv for kv in sorted(params.items())))
    show("seeds: default=%d held_out=%d (claims must hold on both)"
         % (setup["default_seed"], setup["held_out_seed"]))
    show("per-layer metric -> end-to-end metric it should move:")
    for row in setup["layer_map"]:
        line = "  %s -> %s on %s; no change predicted on %s" % (
            ", ".join(row["layer_metrics"]), ", ".join(row["moves"]),
            row["on"], ", ".join(row["no_change_on"]) or "none")
        if "unmeasured_on" in row:
            line += "; unmeasured on " + row["unmeasured_on"]
        show(line)


def build(build_root, cpus):
    build_dir = os.path.join(build_root, "perfbench")
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", str(cpus)],
                   check=True, stdout=log, stderr=log, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--tamper", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(HERE, "setup.json")) as f:
        setup = json.load(f)
    if args.workload not in setup["workloads"]:
        sys.exit("perfbench: unknown workload %r (have %s)"
                 % (args.workload, ", ".join(sorted(setup["workloads"]))))
    workload = setup["workloads"][args.workload]
    params = dict(workload["generator"])
    if args.small:
        params.update(workload["small"])

    print_setup(setup, args.workload, params)

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    try:
        binary = build(build_root, len(os.sched_getaffinity(0)))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    work_dir = os.path.join(build_root, "perfbench-runs", "%s-seed%d-trace%d"
                            % (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    for key, value in sorted(params.items()):
        if isinstance(value, list):
            value = ":".join(str(v) for v in value)
        cmd += ["--param", "%s=%s" % (key, value)]
    if args.tamper:
        cmd.append("--tamper")
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
