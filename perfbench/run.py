#!/usr/bin/env python3
"""MinoanER benchmark driver.

Builds the benchmark (and, through it, the program at the repository root)
with sbt when the sources changed since the last build, then runs one
workload in a fresh JVM:

    python3 perfbench/run.py --workload resolve-small --seed 1 --seconds 10 --trace 0

The last line of standard output is the JSON result. With
``--scalability`` it instead runs ``resolve-large`` once per master
``local[1]``, ``local[2]`` and ``local[nproc]`` (one JVM each) and prints
``resolve_s`` with the speed-up over ``local[1]``; that mode is not gated.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "target", "run")
# Spark settings beyond those fixed in repro.jobs.JobSession (which also
# disables automatic broadcast joins). 24 shuffle partitions match the
# repository's table benches.
SHUFFLE_PARTITIONS = "24"
DRIVER_HEAP = "4g"
# The first run in a checkout builds; build and run together stay under 15 min.
BUILD_TIMEOUT_S = 700
# The gated workloads must finish within 180 s; the on-demand ablation and
# the single-thread scalability runs take longer.
GATED_WORKLOADS = ("resolve-small", "resolve-large")
RUN_TIMEOUT_S = 170
ON_DEMAND_TIMEOUT_S = 900


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads, in a stable order."""
    roots = [os.path.join(ROOT, d) for d in ("src/main", "jobs", "project")]
    roots += [os.path.join(BENCH, d) for d in ("src", "project")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(BENCH, "build.sbt")]
    for r in roots:
        for dirpath, dirnames, names in os.walk(r):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, n) for n in sorted(names)]
    return files


def fingerprint():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_to_end(cmd, cwd, env, timeout, what):
    """Run `cmd` in its own process group; on timeout kill the whole group
    (sbt's launcher script starts a JVM) and wait for it."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{what} timed out", 1)
    return proc.returncode, out


def classpath():
    """Build if the sources changed; return the runtime classpath."""
    for f in ("build.sbt", "src/main/scala", "jobs"):
        if not os.path.exists(os.path.join(ROOT, f)):
            fail(f"the program's sources are missing: no {f} in {ROOT}")
    os.makedirs(OUT, exist_ok=True)
    fp_file, cp_file = os.path.join(OUT, "fingerprint"), os.path.join(OUT, "classpath")
    fp = fingerprint()
    if os.path.exists(fp_file) and os.path.exists(cp_file):
        with open(fp_file) as a, open(cp_file) as b:
            if a.read() == fp:
                return b.read()
    code, out = run_to_end(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
        BENCH, dict(os.environ), BUILD_TIMEOUT_S, "build")
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or ".jar" not in lines[-1]:
        sys.stderr.write(out[-4000:])
        fail("build failed")
    cp = lines[-1].strip()
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(fp_file, "w") as f:
        f.write(fp)
    return cp


def run_jvm(cp, args, threads, timeout):
    """Run one benchmark JVM; return (info, result) parsed from its output."""
    local = os.path.join(OUT, "spark-local")
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(local, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, SPARK_MASTER=f"local[{threads}]",
               SPARK_SHUFFLE_PARTITIONS=SHUFFLE_PARTITIONS, SPARK_LOCAL_DIRS=local)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, f"-Xmx{DRIVER_HEAP}", f"-Djava.io.tmpdir={tmp}",
           "-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1",
           f"-Dspark.sql.warehouse.dir={os.path.join(OUT, 'warehouse')}",
           "-cp", cp, "perfbench.Bench"] + args
    code, out = run_to_end(cmd, OUT, env, timeout, "run")
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or len(lines) < 2:
        sys.stderr.write(out[-4000:])
        fail(f"benchmark JVM exited with code {code}", 1)
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def scalability(cp, seed):
    nproc = len(os.sched_getaffinity(0))
    rows = []
    for threads in sorted({1, 2, nproc}):
        _, res = run_jvm(cp, ["--workload", "resolve-large", "--seed", str(seed),
                              "--seconds", "1", "--trace", "0"], threads, ON_DEMAND_TIMEOUT_S)
        rows.append((threads, res["metrics"]["resolve_s"]["value"], res["correct"]))
    base = rows[0][1]
    for threads, s, ok in rows:
        print(f"local[{threads}]  resolve_s={s:.3f}  speed-up={base / s:.2f}  correct={ok}")
    print(json.dumps({"scalability": [
        {"master": f"local[{t}]", "resolve_s": s, "speedup": base / s, "correct": ok}
        for t, s, ok in rows]}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scalability", action="store_true")
    a = ap.parse_args()
    if not a.scalability and not a.workload:
        ap.error("--workload is required")
    cp = classpath()
    if a.scalability:
        scalability(cp, a.seed)
        return
    info, res = run_jvm(cp, ["--workload", a.workload, "--seed", str(a.seed),
                             "--seconds", str(a.seconds), "--trace", str(a.trace)],
                        len(os.sched_getaffinity(0)),
                        RUN_TIMEOUT_S if a.workload in GATED_WORKLOADS else ON_DEMAND_TIMEOUT_S)
    print(json.dumps({"info": info}))
    print(json.dumps(res))


if __name__ == "__main__":
    main()
