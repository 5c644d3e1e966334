#!/usr/bin/env python3
"""Build and run the offload -> spill arena -> prefetch round-trip benchmark.

Usage, from the repository root:

    python3 rtbench/run.py --workload <name> --seed <n> --seconds <s>
                           --trace <0|1>

The benchmark is a CMake package of its own (rtbench/CMakeLists.txt)
that compiles the repository's src/ tree; it is built into
.bench_build/rtbench on first use and rebuilt when sources change.
Build output goes to stderr; the benchmark's stdout passes through,
ending in one JSON result line. Without the repository's sources the
build fails and this exits non-zero without a result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rtbench")
BINARY = os.path.join(BUILD, "rtbench")
# The benchmark measures for --seconds plus its set-up and stage pass;
# anything past this is a hang.
RUN_TIMEOUT_S = 175


def build():
    """Configure (first use) and build the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(BINARY):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "rtbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("rtbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def source_digest():
    """SHA-256 over the sources the benchmark builds (src/ and rtbench/)."""
    digest = hashlib.sha256()
    for top in ("src", "rtbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, or 'unknown' when it is not a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [BINARY,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--git-commit", git_commit(),
           "--source-digest", source_digest(),
           "--out-dir", os.path.join(BUILD, "out")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("rtbench: no result within %d s\n" % RUN_TIMEOUT_S)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
