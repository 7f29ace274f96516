#!/usr/bin/env python3
"""PathEnum query benchmark: build the program and the harness, run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ep-k4 --seed 1 --seconds 20 --trace 0

The program (src/main/scala, jobs/) and the harness (perfbench/src/main/scala)
are compiled together with the Scala compiler of the Spark distribution in
$SPARK_HOME/jars into .bench_build/perfbench/, and rebuilt when a source
changes. The harness prints one metric per line and, as its last line, the
JSON result. A detailed report (environment, inputs, every sample or span)
goes to .bench_build/perfbench/reports/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "jobs", HERE / "src" / "main" / "scala"]

# Knobs the program reads from the environment: a set one would silently
# change what is measured.
FORBIDDEN_ENV = ["REPRO_TAU", "REPRO_MAX_LEVEL_ROWS", "REPRO_TIME_BUDGET_MS", "REPRO_DEBUG"]

# Module opens that spark-submit passes on Java 17 (as in build.sbt).
JVM_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]

RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def java():
    home = os.environ.get("JAVA_HOME")
    return str(Path(home) / "bin" / "java") if home else "java"


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home or not (Path(home) / "jars").is_dir():
        fail("SPARK_HOME must point at a Spark distribution (its jars/ holds Spark and scalac)")
    return str(Path(home) / "jars" / "*")


def sources():
    missing = [str(d.relative_to(ROOT)) for d in SOURCE_DIRS if not d.is_dir()]
    if missing:
        fail(f"program sources not found: {', '.join(missing)}")
    return sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))


def build():
    """Compile program + harness unless the sources are unchanged."""
    srcs = sources()
    jars = spark_jars()
    digest = hashlib.sha256(jars.encode())
    for p in srcs:
        digest.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    stamp = BUILD / "classes.sha256"
    classes = BUILD / "classes"
    if stamp.exists() and stamp.read_text() == digest.hexdigest() and classes.is_dir():
        return classes
    shutil.rmtree(classes, ignore_errors=True)
    classes.mkdir(parents=True)
    cmd = [java(), "-Xmx1g", "-cp", jars, "scala.tools.nsc.Main", "-nowarn",
           "-d", str(classes), "-classpath", jars] + [str(p) for p in srcs]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("compilation failed")
    stamp.write_text(digest.hexdigest())
    return classes


def commit():
    """The checkout's git commit, or "unknown" when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    set_vars = [v for v in FORBIDDEN_ENV if v in os.environ]
    if set_vars:
        fail(f"refusing to run with {', '.join(set_vars)} set")

    classes = build()
    cores = min(4, os.cpu_count() or 1)
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = BUILD / "reports" / f"{name}.json"
    log = BUILD / "logs" / f"{name}.log"
    log.parent.mkdir(parents=True, exist_ok=True)

    # The session's shuffle partitions stay at the program's default, so a
    # change to that default is measured.
    env = dict(os.environ, SPARK_MASTER=f"local[{cores}]", SPARK_LOCAL_DIRS=str(tmp))
    env.pop("SPARK_SHUFFLE_PARTITIONS", None)
    # C1 only: the default tiered JIT keeps compiling with C2 for the first
    # ten or so calls, and a call's CPU time falls 30-45% over them; with C1
    # alone it is steady from the first call after the warm-up (README).
    cmd = ([java(), "-Xmx2g", "-XX:TieredStopAtLevel=1", f"-Djava.io.tmpdir={tmp}",
            "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
            f"-Dspark.sql.warehouse.dir={tmp / 'warehouse'}"]
           + [f"--add-opens={m}=ALL-UNNAMED" for m in JVM_OPENS]
           + ["-cp", f"{classes}{os.pathsep}{spark_jars()}", "perfbench.Bench",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--report", str(report), "--commit", commit()])
    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err,
                                text=True, start_new_session=True)

        # The harness runs in its own session, so stop it if we are stopped.
        def stop(signum, _frame):
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            sys.exit(128 + signum)
        signal.signal(signal.SIGTERM, stop)
        signal.signal(signal.SIGINT, stop)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail(f"run exceeded {RUN_TIMEOUT_S} s (log: {log})")
    lines = out.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(out)
        sys.stderr.write("".join(open(log).readlines()[-40:]))
        fail(f"harness exited with code {proc.returncode} and no result (log: {log})")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
