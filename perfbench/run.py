#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library, the `ssmwn` CLI and the
benchmark binary from source (CMake, Release) into the directory named by
$CARGO_TARGET_DIR, or `.bench_build` when unset, then runs one workload:
engine-recover, campaign-mobility or serve-verify (see perfbench/README.md).
The last line of stdout is the run's JSON result. `--workload all` runs
every workload in turn and ends with one JSON object whose metric names
are prefixed with the workload. Build logs go to stderr. Exit code 0 means
the run completed (the JSON says whether its outputs were correct); any
other code means no result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("engine-recover", "campaign-mobility", "serve-verify")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    for needed in ("src", os.path.join("apps", "ssmwn_cli.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"program sources missing: {needed} (run from a full checkout)")
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j4", "--target",
                  "perfbench", "ssmwn_cli"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build failed: {err}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)} exited {done.returncode}")


def run_workload(out_dir, workload, seed, seconds, trace):
    cmd = [os.path.join(out_dir, "perfbench"), workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--cli", os.path.join(out_dir, "ssmwn")]
    # Own process group, so a timeout or a crash also takes down the
    # daemon serve-verify spawns.
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
    except OSError as err:
        fail(f"{workload}: {err}")
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if stdout is None:
        proc.communicate()
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail(f"{workload}: perfbench exited {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: malformed result keys {sorted(result)}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    build(out_dir)
    if args.workload != "all":
        result = run_workload(out_dir, args.workload, args.seed, args.seconds,
                              args.trace)
        print(json.dumps(result))
        return
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(out_dir, workload, args.seed, args.seconds,
                              args.trace)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
