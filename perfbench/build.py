#!/usr/bin/env python3
"""Build file of the benchmark: compiles the program (src/main/scala) and the
benchmark (perfbench/src) with the Scala compiler that ships in Spark's jars
directory, into .bench_build/classes-<hash of the sources>.

Usage: python3 perfbench/build.py   (from the repository root)

A build whose source hash is already present is reused; builds of other
hashes are removed. Exits non-zero when the program's sources are missing or
do not compile.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
BENCH_SRC = os.path.join(HERE, "src")
# JVM options that keep a JVM's files inside the checkout: temporary files
# under .bench_build/tmp, and no hsperfdata file in the system temp directory.
JVM_LOCAL = ["-XX:-UsePerfData", "-Djava.io.tmpdir=" + os.path.join(OUT, "tmp")]


def spark_jars():
    """$SPARK_HOME/jars, else the jars of the Spark whose spark-submit is on PATH."""
    home = os.environ.get("SPARK_HOME")
    submit = shutil.which("spark-submit")
    if not home and submit:
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not os.path.isdir(jars):
        raise SystemExit("perfbench: Spark jars not found; set SPARK_HOME")
    return jars


def sources():
    if not os.path.isdir(PROGRAM_SRC):
        raise SystemExit("perfbench: program sources src/main/scala not found")
    files = []
    for top in (PROGRAM_SRC, BENCH_SRC):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def source_hash(files):
    h = hashlib.sha256()
    for f in files + [os.path.abspath(__file__)]:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def build():
    """Return (classes directory, source hash), compiling if needed."""
    files = sources()
    digest = source_hash(files)
    classes = os.path.join(OUT, f"classes-{digest}")
    if os.path.isfile(os.path.join(classes, ".complete")):
        return classes, digest
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", *JVM_LOCAL, "-cp", os.path.join(spark_jars(), "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp] + files
    print(f"# perfbench: compiling {len(files)} sources", file=sys.stderr)
    if subprocess.run(cmd).returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise SystemExit("perfbench: compilation failed")
    open(os.path.join(tmp, ".complete"), "w").close()
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(tmp, classes)
    for old in os.listdir(OUT):
        if old.startswith("classes-") and os.path.join(OUT, old) != classes:
            shutil.rmtree(os.path.join(OUT, old), ignore_errors=True)
    return classes, digest


if __name__ == "__main__":
    print(build()[0])
