#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark package is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build), its inputs are
generated and cached under <target dir>/perfbench-data (untimed), then the
measured run prints its result object as the last line of stdout. The exit
code is non-zero on any build failure, correctness or determinism
violation.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("batch-ds", "serve-write-ds", "serve-read-fbw")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    manifest = os.path.join(here, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    data = os.path.join(target, "perfbench-data")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--data", data]

    prep = subprocess.run([binary, "prepare"] + common, stdout=sys.stderr)
    if prep.returncode != 0:
        return 1
    run = subprocess.run(
        [binary, "run"] + common
        + ["--seconds", str(args.seconds), "--trace", args.trace, "--build-id", build_id],
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: the run printed no result", file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result", file=sys.stderr)
        return 1
    print(json.dumps(result, separators=(",", ":")))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
