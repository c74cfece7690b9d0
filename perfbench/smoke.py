#!/usr/bin/env python3
"""Smoke test of the benchmark: runs every workload at reduced size, traced,
twice with the same workload seed, and checks that both runs pass their output
checks and report the same exact counts (edges scanned, activations, CELF
evaluations and picks, Spark jobs / tasks / broadcasts, activation rows).

Usage (from the repository root): python3 perfbench/smoke.py [--seed N]
"""
import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import build  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run_once(workload, seed):
    cmd = [sys.executable, os.path.join(build.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", "1", "--smoke"]
    out = subprocess.run(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"smoke: {workload} run failed:\n{out.stdout}")
    result = json.loads(out.stdout.splitlines()[-1])
    with open(os.path.join(build.OUT, "runs", f"{workload}-seed{seed}-trace1-smoke.json")) as f:
        return result, json.load(f)["exact"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=11)
    seed = ap.parse_args().seed
    failures = []
    for w in WORKLOADS:
        (r1, exact1), (r2, exact2) = run_once(w, seed), run_once(w, seed)
        for i, r in enumerate((r1, r2), 1):
            if not r["correct"] or r["failed"]:
                failures.append(f"{w} run {i}: {r['failed']} of {r['attempted']} operations failed")
        if exact1 != exact2:
            failures.append(f"{w}: exact counts differ between runs:\n  {exact1}\n  {exact2}")
        print(f"{w}: {len(exact1)} exact-count groups, identical={exact1 == exact2}, "
              f"operations {r1['attempted']}/{r2['attempted']}")
    if failures:
        raise SystemExit("smoke: FAILED\n" + "\n".join(failures))
    print("smoke: OK")


if __name__ == "__main__":
    main()
