#!/usr/bin/env python3
"""Build and run the k-SIR benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the benchmark package
(perfbench/build.sbt, which compiles the program's sources from src/main/scala
next to the benchmark code) with sbt, offline; later runs reuse the build
while the sources are unchanged. Every file the build and the run write goes
under the build directory (.bench_build, or $CARGO_TARGET_DIR when set) or
perfbench/target. The last line of standard output is the result as JSON;
see perfbench/README.md.
"""
import argparse
import hashlib
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
WORKLOADS = ["query-aminer", "ingest-twitter", "mixed-reddit"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
HEAP = "2g"


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def source_hash():
    """Hash of every input of the build, so a changed source forces a rebuild."""
    h = hashlib.sha256()
    roots = [PROGRAM_SRC, os.path.join(BENCH, "src", "main"), os.path.join(BENCH, "project")]
    files = [os.path.join(BENCH, "build.sbt")]
    for r in roots:
        for dirpath, dirnames, filenames in os.walk(r):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "project"))
            files += [os.path.join(dirpath, f) for f in filenames if not f.startswith(".")]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=20)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def sbt_env(out):
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", "-Dsbt.repository.config=" + repos]
        env["SBT_OPTS"] = " ".join(opts)
    tmp = os.path.join(out, "tmp")
    env["SBT_OPTS"] += " -Djna.tmpdir=%s -Djava.io.tmpdir=%s" % (tmp, tmp)
    # Every JVM the sbt script starts (its version probe too) keeps its
    # files inside the build directory.
    env["JAVA_TOOL_OPTIONS"] = "-XX:-UsePerfData -Djava.io.tmpdir=" + tmp
    env["TMPDIR"] = tmp
    return env


def build(out, stamp):
    """Compile with sbt and return the runtime classpath."""
    cp_file = os.path.join(out, "classpath.txt")
    stamp_file = os.path.join(out, "build.stamp")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as f, open(cp_file) as g:
            cp = g.read().strip()
            # Reuse the build only if its classes are still there.
            if f.read().strip() == stamp and all(os.path.exists(e) for e in cp.split(os.pathsep)):
                return cp
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           "-Dsbt.global.base=" + os.path.join(out, "sbt-global"),
           "-Dsbt.ivy.home=" + os.path.join(out, "ivy"),
           "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    print("building the benchmark with sbt ...", file=sys.stderr)
    try:
        res = subprocess.run(cmd, cwd=BENCH, env=sbt_env(out), capture_output=True, text=True,
                             timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("build timed out", file=sys.stderr)
        return None
    if res.returncode != 0:
        sys.stderr.write(res.stdout[-4000:] + res.stderr[-4000:])
        print("build failed", file=sys.stderr)
        return None
    lines = [l for l in res.stdout.splitlines() if "classes" in l and os.pathsep in l and "[" not in l]
    if not lines:
        print("build printed no classpath", file=sys.stderr)
        return None
    cp = lines[-1].strip()
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(PROGRAM_SRC, "repro")):
        print("program sources not found at src/main/scala: run from the root of a full checkout",
              file=sys.stderr)
        return 2
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    stamp = source_hash()
    cp = build(out, stamp)
    if cp is None:
        return 2

    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    opens = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
             "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
             "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
             "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
             "java.base/sun.util.calendar"]
    cmd = [java, "-Xms" + HEAP, "-Xmx" + HEAP, "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch", "-XX:+UseTransparentHugePages", "-XX:-UsePerfData",
           "-Djava.io.tmpdir=" + tmp, "-Dspark.driver.host=127.0.0.1", "-Dfile.encoding=UTF-8"]
    cmd += ["--add-opens=%s=ALL-UNNAMED" % m for m in opens]
    cmd += ["-cp", cp, "ksirbench.Main",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", out, "--git-sha", git_sha(), "--source-hash", stamp]
    try:
        res = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 3
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
