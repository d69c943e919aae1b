#!/usr/bin/env python3
"""Build and run the vacuum-packing benchmark.

    python3 perfbench/run.py --workload repro-quick --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Builds perfbench/vpbench.exe with
dune (release profile, shared cache off, so nothing is written outside
the checkout), runs it on one workload and prints its output.  Before
the result it prints one `meta:` line with host steal ticks and load
average over the run: these describe the machine, not the program, so
they are metadata rather than metrics.  The last line of standard
output is the result JSON; on any failure the script exits non-zero
without printing one.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("repro-quick", "serve-drift", "fuzz-corpus")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "vpbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def host_sample():
    """(steal ticks, 1-minute load average) of the host, or Nones."""
    steal = load = None
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        if fields and fields[0] == "cpu" and len(fields) > 8:
            steal = int(fields[8])
    except (OSError, ValueError):
        pass
    try:
        with open("/proc/loadavg") as f:
            load = float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        pass
    return steal, load


def build():
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release",
           "--cache", "disabled", "./perfbench/vpbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    return r.returncode == 0 and os.path.exists(EXE)


def valid_result(line):
    try:
        r = json.loads(line)
    except ValueError:
        return False
    return (isinstance(r, dict)
            and set(r) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(r["attempted"], int) and r["attempted"] >= 1
            and isinstance(r["failed"], int)
            and isinstance(r["metrics"], dict) and r["metrics"])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        sys.exit(1)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected", args.workload + ".tsv")]
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(out_dir, f"{args.workload}-seed{args.seed}.spans.jsonl")]

    steal0, load0 = host_sample()
    t0 = time.time()
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark did not complete: {e}", file=sys.stderr)
        sys.exit(1)
    steal1, load1 = host_sample()
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stdout.write(r.stdout)
        print(f"run.py: benchmark exited {r.returncode} without a valid result",
              file=sys.stderr)
        sys.exit(1)
    for line in lines[:-1]:
        print(line)
    meta = {
        "host_steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
        "loadavg_1m_start": load0,
        "loadavg_1m_end": load1,
        "elapsed_s": round(time.time() - t0, 3),
        "nproc": os.cpu_count(),
    }
    print("meta: " + json.dumps(meta, sort_keys=True))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
