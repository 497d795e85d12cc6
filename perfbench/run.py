#!/usr/bin/env python3
"""Build and run the simulator's host-throughput benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload mm-mesi64 [--seed N]
                             [--seconds S] [--trace 0|1]

Configures and builds perfbench/ (a Release build of the simulator
library plus the perfbench binary) under $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload. The last line
of stdout is the JSON result of perfbench; build output goes to stderr.
Per-run results (with provenance) and the traced run's spans are
written to <build dir>/perfbench-results/. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mm-mesi64", "steal1024", "hcc-mix")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the simulator sources the benchmark compiles."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".hh", ".S", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the apps' own seed)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("src/CMakeLists.txt", "bench/driver.cc"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("simulator source %s not found; run from a full "
                 "checkout" % need)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    out_dir = os.path.join(os.path.abspath(target), "perfbench-results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload=" + args.workload,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--out=" + out_dir, "--git-sha=" + git_sha(),
           "--src-digest=" + source_digest()]
    if args.seed is not None:
        cmd.append("--seed=%d" % args.seed)

    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("perfbench exited with code %d" % proc.returncode)
    sys.stdout.write(proc.stdout)
    print("perfbench: run took %.1f s" % (time.monotonic() - start),
          file=sys.stderr)


if __name__ == "__main__":
    main()
