#!/usr/bin/env python3
"""Builds and runs one workload of the tpdb benchmark.

    python3 perfbench/run.py --workload paper_joins --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The first call configures and builds the
engine and tpdb_perfbench (Release) into $CARGO_TARGET_DIR, default
.bench_build; later calls only rebuild what changed. Build output goes to
standard error, so the last line of standard output is the run's result
object. Snapshot and WAL files live in .bench_data/<workload>-<pid>/ and are
removed afterwards; a traced run (--trace 1) leaves its spans in
.bench_data/trace-<workload>-seed<seed>.json.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("paper_joins", "skew_lineage", "cold_rw")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "database.h")):
        fail("the tpdb sources (src/) are missing from this checkout")
    jobs = str(os.cpu_count() or 1)
    # Configure every time: it is quick on an existing tree, and it fails
    # loudly instead of building another checkout's sources when the build
    # directory was made for a different source tree.
    configure = ["cmake", "-S", BENCH_DIR, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out_dir, "--parallel", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out_dir, "tpdb_perfbench")


def source_identity():
    """The git commit when there is one, else a digest of src/."""
    try:
        head = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build(build_dir())
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")

    data_root = os.path.join(ROOT, ".bench_data")
    data_dir = os.path.join(data_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(data_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", data_dir, "--commit", source_identity()]
    sys.stdout.flush()
    proc = subprocess.Popen(command)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = None
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    if code is None:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
