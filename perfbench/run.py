#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark from source, runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark program and the library it links
are built with CMake into $CARGO_TARGET_DIR (default .bench_build) on first
use; later runs only re-check the build. The program's output is passed
through, so the last line of stdout is the result record. Build output goes
to stderr.
Exits non-zero, without a result, when the library sources are missing or
the build fails; exits non-zero after printing the record when an output
check failed.
"""
import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-sdsc-sjf", "eval-sdsc-backfill", "serve-open-2k", "serve-open-20k")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures and builds the program; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources not found next to perfbench/", file=sys.stderr)
        return None
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configuring every time is cheap on an existing tree and picks up a
        # changed build file before the target is looked up.
        jobs = str(min(4, os.cpu_count() or 1))
        steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]]
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
                return None
    program = os.path.join(out, "perfbench")
    return program if os.path.isfile(program) else None


def revision():
    """The git commit when the checkout is a repository; otherwise a digest of
    the sources the program is built from, so runs of one tree still match."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        lines = done.stdout.split()
        if done.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (self-test only)")
    args = parser.parse_args()

    out = build_dir()
    program = build(out)
    if program is None:
        return 2
    workdir = os.path.join(out, "work", f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--workdir", workdir]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PERFBENCH_REVISION=revision())
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: the run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
