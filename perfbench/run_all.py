#!/usr/bin/env python3
"""Runs every benchmark workload, untraced and traced, and reports by name.

    python3 perfbench/run_all.py [--seed N] [--seconds S] [--smoke]

Run from the repository root. For each workload it runs perfbench/run.py once
with --trace 0 and once with --trace 1, then prints the end-to-end metrics
under the names the benchmark documents (README.md here), the per-layer
metrics, the run fingerprint, the program's notes and its output checks. It also checks that
every emitted metric is declared in BENCHMARK.json with the same unit and a
direction, and that the traced train-sdsc-sjf run ends in the same parameter
digest as the untraced one. Exits 1 if any run or check fails.

--smoke runs tiny sizes: the benchmark's self-test. It proves that every
path runs, every metric is emitted and every output check passes; its
figures mean nothing.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Figures each workload reports on "report <name> <value> <unit>" lines, with
# the direction that is better.
REPORTED = {
    "train_wall_s": "lower",
    "train_final_pct_improvement": "higher",
    "eval_seq_per_s": "higher",
    "serve_p50_us_2k": "lower",
    "serve_p99_us_2k": "lower",
    "serve_p50_us_20k": "lower",
    "serve_p99_us_20k": "lower",
}


def run(workload, seed, seconds, trace, smoke):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    record = fingerprint = None
    try:
        record = json.loads(lines[-1])
        fingerprint = json.loads(lines[-2])["fingerprint"]
    except (IndexError, ValueError, KeyError):
        pass
    return done.returncode, lines, record, fingerprint


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes: the self-test")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []

    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace in (0, 1):
            code, lines, record, fingerprint = run(workload, args.seed, args.seconds, trace,
                                                   args.smoke)
            label = f"{workload} trace={trace}"
            print(f"== {label}")
            if record is None:
                problems.append(f"{label}: no result record (exit {code})")
                continue
            if fingerprint:
                print("   fingerprint: " + json.dumps(fingerprint, sort_keys=True))
            for line in lines[:-2]:
                if line.startswith("digest "):
                    digests[trace] = line.split()[1]
                if not line.startswith("report "):
                    print("   " + line)
                else:
                    _, name, value, unit = line.split()
                    print(f"   {name:32s} {float(value):>16.6g} {unit:6s} "
                          f"({REPORTED.get(name, '?')} is better)")
                    if name not in REPORTED:
                        problems.append(f"{label}: undeclared report figure {name}")
            attempted, failed = record["attempted"], record["failed"]
            print(f"   {'failed_ratio':32s} {failed / max(attempted, 1):>16.6g} ratio  "
                  f"(lower is better; {failed} of {attempted})")
            want = spec["per_layer"] if trace else spec["end_to_end"]
            for m in want:
                got = record["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{label}: metric {m['name']} missing")
                    continue
                print(f"   {m['name']:32s} {got['value']:>16.6g} {got['unit']:6s} "
                      f"({m['better']} is better)")
            for name, got in record["metrics"].items():
                decl = declared.get(name)
                if decl is None or decl["unit"] != got.get("unit") or "better" not in decl:
                    problems.append(f"{label}: metric {name} not declared with its unit")
            if not record["correct"] or code != 0:
                problems.append(f"{label}: output checks failed (exit {code})")
        if workload == "train-sdsc-sjf" and digests.get(0) != digests.get(1):
            problems.append(f"train-sdsc-sjf: traced digest {digests.get(1)} differs from "
                            f"untraced {digests.get(0)}")

    if problems:
        print("FAILED:")
        for p in problems:
            print("  " + p)
        return 1
    print("all workloads ran; every metric declared; every output check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
