#!/usr/bin/env python3
"""Builds and runs the open-loop benchmark of the stabilizer and the 3-DC store.

    python3 perfbench/run.py --workload svc-uniform|svc-skew-wal|geo-3dc \
        --seed N --seconds S --trace 0|1

Run from the repository root. The script builds perfbench/ (and the
libraries it links, from ../src) with CMake in Release mode, prints a
provenance header, then runs one workload. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics. Exit
status is non-zero when the build or any output check fails. The
benchmark's self-tests are the perfbench_selftest binary (ctest in the
build directory).
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("svc-uniform", "svc-skew-wal", "geo-3dc")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    # When CARGO_TARGET_DIR names a build area, the build goes under it.
    target = os.environ.get("CARGO_TARGET_DIR")
    if target:
        return os.path.join(os.path.abspath(target), "perfbench")
    return os.path.join(HERE, "build")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no eunomia sources at %s/src; run from a full checkout" % ROOT)
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)


def source_digest():
    """sha256 over the sources that make up the measured program."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt"), os.path.join(HERE, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        files += sorted(os.path.join(d, f) for d, _, names in os.walk(top)
                        for f in names)
    for name in files:
        digest.update(os.path.relpath(name, ROOT).encode())
        with open(name, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    build(out_dir)
    print("# provenance: git=%s source_sha256=%s nproc=%d cmake_build_type=Release"
          % (git_sha(), source_digest(), os.cpu_count() or 1))
    sys.stdout.flush()

    workdir = os.path.join(HERE, ".run")
    try:
        run = subprocess.run(
            [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", workdir],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
