#!/usr/bin/env python3
"""Builds srank and the perfbench load generator from source, then runs one
benchmark run.

    python3 perfbench/run.py --workload consumer_hot --seed 1 --seconds 10 --trace 0

Run from the repository root. Build output goes to $CARGO_TARGET_DIR
(default .bench_build); run artefacts (span files, gzipped after a traced
run, and run records) go to perfbench/out. The last line of standard output
is the run's JSON result.
"""

import argparse
import gzip
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir):
    """Builds the `srank` binary and the load generator, release mode."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "srank-cli", "--bin", "srank"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ):
        if not os.path.isfile(manifest):
            sys.exit(f"perfbench: {manifest} is missing; run from a full checkout")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest] + extra
        # Cargo reports on stderr; stdout stays free for the result line.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build(target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--srank", os.path.join(release, "srank"),
        "--out", os.path.join(HERE, "out"),
        "--benchmark", os.path.join(ROOT, "BENCHMARK.json"),
    ]
    sys.stdout.flush()
    code = subprocess.run(cmd).returncode
    spans = os.path.join(HERE, "out", f"spans-{args.workload}.tsv")
    if args.trace == "1" and os.path.isfile(spans):
        with open(spans, "rb") as src, gzip.open(spans + ".gz", "wb", compresslevel=1) as dst:
            shutil.copyfileobj(src, dst)
        os.remove(spans)
    sys.exit(code)


if __name__ == "__main__":
    main()
