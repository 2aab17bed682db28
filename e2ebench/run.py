#!/usr/bin/env python3
"""Builds the end-to-end fleet benchmark from source and runs its workloads.

    python3 e2ebench/run.py --workload fleet-3g --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root. `--workload all` runs every workload, each in
its own process, and ends with one JSON line whose metric names are prefixed
with the workload. The build goes to $CARGO_TARGET_DIR, or
.bench_build when unset (Release, incremental); scratch output goes to
.bench_work and is removed when the run ends. Build logs go to stderr, so the
last stdout line is the benchmark's JSON result. The exit code is the
benchmark's: non-zero when the build fails or an output check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet-3g", "fleet-wifi", "cell-contention")
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
            and shutil.which("ninja")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            return False
    return True


def run_workload(build_dir, workload, args, capture):
    """Runs one workload; returns (exit code, its stdout when captured)."""
    cmd = [os.path.join(build_dir, "qoed_e2ebench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    # Own process group: on timeout the measured child the benchmark
    # re-executes is stopped together with it.
    proc = subprocess.Popen(cmd, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(".bench_work", ignore_errors=True)
        print("e2ebench: %s exceeded %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    if args.workload != "all":
        return run_workload(build_dir, args.workload, args, False)[0]

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        rc, out = run_workload(build_dir, workload, args, True)
        lines = (out or "").rstrip("\n").split("\n")
        print("\n".join(lines[:-1]) + "\n")
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print("e2ebench: %s printed no result" % workload, file=sys.stderr)
            return 1
        status = status or rc
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][workload + "." + name] = metric
    print(json.dumps(total))
    return status


if __name__ == "__main__":
    sys.exit(main())
