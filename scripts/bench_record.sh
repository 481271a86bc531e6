#!/usr/bin/env bash
# Records the PR-over-PR performance trajectory: runs the randomized
# sampler benches (cold sample_n, parallel sample_n, and the faithful
# pre-interning baseline), the sampling stage profile (draw / score /
# select or rank / intern), the Monte-Carlo verify stage profile
# (rank / region / sieve and indexed count), the md session profile (open / first /
# later get_next), the service batch-op round-trip, and the
# warm-restart time-to-first-cached-verify (snapshot → fresh engine →
# restored cache hit), the 3-D overview against the arrangement walk,
# the exact 2-D (plain and τ-tolerant verify) and 3-D kernels,
# the scale cliffs (a cached verify beside 0 / 1k / 10k open sessions and
# 1 / 64 client tags), and more (see the binary's docs); writes
# BENCH_35.json at the repo root. Commit it.
#
# Usage: scripts/bench_record.sh [--smoke] [--out PATH]
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p srank-bench
cargo run --release -p srank-bench --bin bench_record -- "$@"
