#!/usr/bin/env python3
"""Run one benchmark workload in a fresh JVM and print its result.

Usage (from the repository root):
  python3 perfbench/run.py --workload sim_grid|celf_regular \
      --seed N --seconds S --trace 0|1 [--smoke]

Builds the program and the benchmark from source first when needed (see
build.py). The last line of standard output is the JSON result; lines before
it start with '#'. Spark's own log goes to .bench_build/logs/. Exits non-zero,
printing no result, when the build, the run or the result line fails.
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
import build  # noqa: E402

WORKLOADS = ("sim_grid", "celf_regular")
RUN_TIMEOUT_S = 170

# Spark's JVM module options (launcher/JavaModuleOptions), as in build.sbt.
MODULE_OPTIONS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "--add-opens=java.security.jgss/sun.security.krb5=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
]


def git_sha():
    """HEAD's commit id when the checkout is a git work tree, else 'unknown'."""
    head = os.path.join(build.ROOT, ".git", "HEAD")
    try:
        ref = open(head).read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(build.ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                return open(path).read().strip()
            for line in open(os.path.join(build.ROOT, ".git", "packed-refs")):
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    with open(os.path.join(build.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def untraced_work_s(workload):
    """work_s of every untraced run record of this workload in the checkout."""
    values = []
    for path in glob.glob(os.path.join(build.OUT, "runs", f"{workload}-seed*-trace0.json")):
        with open(path) as f:
            values.append(json.load(f)["end_to_end"]["work_s"])
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true", help="reduced input sizes")
    args = ap.parse_args()

    classes, digest = build.build()
    for d in ("tmp", "logs", "runs"):
        os.makedirs(os.path.join(build.OUT, d), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    log_path = os.path.join(build.OUT, "logs", tag + ".log")
    cmd = ["java", "-Xmx3g", "-Xss8m", *build.JVM_LOCAL,
           "-Dlog4j2.configurationFile=" + os.path.join(build.HERE, "log4j2.properties"),
           *MODULE_OPTIONS,
           "-cp", classes + os.pathsep + os.path.join(build.spark_jars(), "*"),
           "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", build.OUT, "--git", git_sha(), "--source-hash", digest]
    if args.smoke:
        cmd.append("--smoke")
    # Spark would put its scratch files in SPARK_LOCAL_DIRS over spark.local.dir.
    env = {k: v for k, v in os.environ.items() if k != "SPARK_LOCAL_DIRS"}
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=build.ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
                                  text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s; log in {log_path}")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("".join(line + "\n" for line in lines if line.startswith("#")))
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        raise SystemExit(f"perfbench: JVM exited with {proc.returncode}; log in {log_path}")

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"perfbench: malformed result line: {lines[-1]}")
    if set(result["metrics"]) != expected_metrics(args.trace == "1"):
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(result['metrics']) ^ expected_metrics(args.trace == '1'))}")
    for line in lines[:-1]:
        print(line)
    if args.trace == "1":
        with open(os.path.join(build.OUT, "runs", tag + ".json")) as f:
            traced = json.load(f)
        warm = [s for s, on in zip(traced["pass_s"][1:], traced["pass_traced"][1:]) if on]
        untraced = untraced_work_s(args.workload)
        if warm and untraced:
            pct = 100 * (statistics.median(warm) / statistics.median(untraced) - 1)
            print(f"# tracing overhead vs {len(untraced)} untraced run(s) of {args.workload} "
                  f"in this checkout: {pct:+.2f}%")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
