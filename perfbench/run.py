#!/usr/bin/env python3
"""Wall-clock benchmark of the reproduction: build, then run one workload.

    python3 perfbench/run.py --workload sim --seed 0 --seconds 8 --trace 0

Run from the root of a checkout. The first run builds the benchmark with sbt
(offline) into perfbench/target and records the classpath under .bench_build;
later runs reuse it until a source or build file changes. The run itself is
one JVM (perfbench.Main); its last stdout line is the JSON result.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["sim", "oracle_suite"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the build reads from the checkout, in a stable order."""
    files = [os.path.join(HERE, f) for f in ("build.sbt", "project/build.properties")]
    for top in (os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src", "main")):
        for d, _, names in sorted(os.walk(top)):
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def fingerprint(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def sbt_env():
    """sbt strictly offline: resolve only from the local caches."""
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    flags = "-Dsbt.override.build.repos=true -Dsbt.offline=true -Xmx2g"
    env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " " + flags).strip()
    return env


def classpath():
    """Build if needed; return the runtime classpath."""
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail("src/main/scala not found: run from the root of a checkout of the repository")
    stamp = os.path.join(WORK, "classpath.txt")
    key = fingerprint(sources())
    if os.path.exists(stamp):
        with open(stamp) as fh:
            saved_key, cp = fh.read().split("\n", 1)
        if saved_key == key:
            return cp.strip()
    print("perfbench: building with sbt (first run only)", file=sys.stderr)
    try:
        out = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime / fullClasspath"],
            cwd=HERE, env=sbt_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    sys.stderr.write(out.stdout)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines or "[error]" in lines[-1]:
        fail("build failed")
    cp = lines[-1].strip()
    os.makedirs(WORK, exist_ok=True)
    with open(stamp, "w") as fh:
        fh.write(key + "\n" + cp + "\n")
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()

    cp = classpath()
    with open(os.path.join(HERE, "jvm.opts")) as fh:
        jvm = [l.strip() for l in fh if l.strip()]
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java"] + jvm + [f"-Djava.io.tmpdir={tmp}", "-cp", cp, "perfbench.Main",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--work-dir", WORK])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
