#!/usr/bin/env bash
# The full local gate: build, tests, formatting, lints, bench/example
# compilation, and the streaming/pool/session-queue stress suite. CI and
# pre-merge runs should both go through this script.
#
# The stress suite (including the #[ignore]d heavy variants) runs in the
# DEFAULT path, in release mode under a timeout guard, so a deadlocked
# pipeline fails the gate fast instead of wedging CI; its exit code is
# captured and propagated explicitly (a failing ignored test fails this
# script with that same code). `--stress` is accepted as a no-op for
# compatibility with older invocations.
#
# Optional: --bench-smoke additionally runs a shrunken bench_record pass
# (sampler kernel, sampling stage profile, Monte-Carlo verify profile,
# batch op, ~20× reduced workloads) as an end-to-end perf-path sanity
# check. It writes to /tmp — use scripts/bench_record.sh for the real
# figures.
#
# Optional: --chaos additionally runs the fault-injection smoke: a real
# server armed via SRANK_FAULTS (dropped connections, stalled flushes,
# failing store writes) driven by a retrying client, then SIGKILLed and
# restarted clean — retries must converge, the health op must expose the
# injected faults, and no accepted work may be lost across the restart.
#
# Optional: --sanitize additionally runs the service test suite under
# ThreadSanitizer and the lockorder unit tests under Miri, when a
# nightly toolchain with those components is installed; otherwise each
# is skipped with a visible notice (the stable gate does not depend on
# nightly being present).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_SMOKE=0
CHAOS=0
SANITIZE=0
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) BENCH_SMOKE=1 ;;
    --chaos) CHAOS=1 ;;
    --sanitize) SANITIZE=1 ;;
    --stress) ;; # stress now always runs; flag kept for compatibility
    *) echo "check.sh: unknown option $arg" >&2; exit 2 ;;
  esac
done

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo build --benches (bench targets compile)"
cargo build --benches

# The service benchmark (perfbench/) is a workspace of its own that calls
# the core crates directly, so the workspace build above does not compile
# it. Build it against the working tree here, so an API change that
# breaks its replay fails this gate rather than only the benchmark run.
echo "==> cargo build --release --offline --manifest-path perfbench/Cargo.toml"
CARGO_TARGET_DIR="$PWD/target/perfbench" \
  cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc warnings (broken or redundant intra-doc links) are errors.
# Links to private items are allowed: these are internal crates,
# documented with their private items.
echo "==> cargo doc --workspace --no-deps --document-private-items"
RUSTDOCFLAGS="-D warnings -A rustdoc::private-intra-doc-links" \
  cargo doc --workspace --no-deps --document-private-items

if [ "$SANITIZE" = 1 ]; then
  echo "==> sanitizers (nightly-only, skipped when unavailable)"
  if rustup toolchain list 2>/dev/null | grep -q '^nightly' ; then
    if rustup component list --toolchain nightly 2>/dev/null \
        | grep -q 'rust-src.*(installed)'; then
      echo "==> ThreadSanitizer: cargo test -p srank-service (nightly)"
      RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std -p srank-service \
          --target "$(rustc -vV | sed -n 's/^host: //p')" -q
    else
      echo "check.sh: SKIP TSan (nightly rust-src component not installed)"
    fi
    if rustup component list --toolchain nightly 2>/dev/null \
        | grep -q 'miri.*(installed)'; then
      echo "==> Miri: cargo miri test -p srank-service lockorder (nightly)"
      cargo +nightly miri test -p srank-service lockorder
    else
      echo "check.sh: SKIP Miri (nightly miri component not installed)"
    fi
  else
    echo "check.sh: SKIP sanitizers (no nightly toolchain installed)"
  fi
fi

if [ "$BENCH_SMOKE" = 1 ]; then
  echo "==> bench smoke (bench_record --smoke)"
  cargo run --release -p srank-bench --bin bench_record -- --smoke --out /tmp/bench_smoke.json
  # Regression gate for the batch dispatch path (the BENCH_5 finding:
  # a batch op slower than sequential round-trips). The cached and
  # mixed shapes are pure dispatch overhead, so batch must beat
  # sequential even on one core; cold is kernel-bound and only honest
  # at ~1.0x here, so it is recorded but not gated. The fused top-k
  # kernel must also beat the packed-key selection it replaced on the
  # stage profile's top-10 bluenile workload and score under 4% of its
  # rows there (an exact count: the tree cut on subset sums scores about
  # 2.7%, one cut on single attributes about 4.8%, the bounding-box bound
  # alone about 9%, and a kernel that stops skipping leaves fails it on
  # any host), and the block-sieve oracle must beat the scalar
  # early-exit loop on every Monte-Carlo verify row. On orthant batches
  # the grid-indexed count must test under 2% of the samples on fifa and,
  # on batches large enough for the engine to count through the index,
  # under 3% on bluenile (exact counts: about 0.2-0.6% on fifa and 0.9%
  # on bluenile at the smoke's sizes; an index whose box bound stops
  # excluding cells tests them all), and beat the sieve's time on the
  # fifa such batch, where its margin is several-fold (about 4x at 20k
  # samples; bluenile's is under 2x, too thin for a timing gate).
  # A later md `get_next` must cost under a tenth of the first: one that
  # rescans every hyperplane per emitted leaf costs about a third. A warm
  # md open must cost under a tenth of the first open on the dataset: the
  # full-orthant pairs are harvested once per dataset, and an open that
  # harvests again costs about as much as the first. A bluenile md
  # session snapshot must hold under 1 MB (an exact count for the fixed
  # seeds: the region of interest, the split arena, the samples and the
  # heap; a snapshot that stores the pair list reads about 17.9 MB).
  # The exact 2-D sweep over a quarter-grid table's full interval must
  # find exactly the exchange-sorting baseline's region count (an exact
  # count: a sweep that starts from the index-ordered ties at θ = 0
  # finds 2 of 12).
  # The exact 3-D kernel must answer a positive area for every weight
  # strictly inside its ranking's region (an exact count: the Girard
  # vertex enumeration this kernel replaced answered 0 for about half of
  # them at n ≥ 1000), and the exact areas of a whole arrangement must
  # sum to 1 within 1e-12 (the clip reads about 1e-15). The cone row's cap
  # (half-angle 1e-6) lies inside every half-space of its rankings, so its
  # regions must keep no half-space (an exact count: a region that keeps
  # every adjacent pair reads about 999). A cold τ = 50 verify
  # must cost under 100× a plain one (one angle interval reads about 15×;
  # the stored enumeration it replaced read about 19,000×).
  python3 - <<'PYGATE'
import json, sys
report = json.load(open("/tmp/bench_smoke.json"))
d = report["batch_dispatch"]
failed = [
    f"{shape}: batch_speedup {d[shape]['batch_speedup']:.3f} <= 1.0"
    for shape in ("cached_batch", "mixed_batch")
    if not d[shape]["batch_speedup"] > 1.0
]
top10 = next(row for row in report["sampling_stages"]["top_k_ranked"] if row["k"] == 10)
if not top10["select_speedup_vs_packed"] > 1.0:
    failed.append(f"top-10 select_speedup_vs_packed {top10['select_speedup_vs_packed']:.3f} <= 1.0")
if not top10["rows_scored_share"] < 0.04:
    failed.append(f"top-10 rows_scored_share {top10['rows_scored_share']:.3f} >= 0.04")
failed += [
    f"mc_verify {row['dataset']}: count_speedup_vs_scalar {row['count_speedup_vs_scalar']:.3f} <= 1.0"
    for row in report["mc_verify"]
    if not row["count_speedup_vs_scalar"] > 1.0
]
orthant = [row for row in report["mc_verify"] if row["cone"] is None]
indexed = [row for row in orthant if row["engine_count"] == "index"]
failed += [
    f"mc_verify fifa {row['samples']}: count_speedup_vs_sieve {row['count_speedup_vs_sieve']:.3f} <= 1.0"
    for row in indexed
    if row["dataset"] == "fifa" and not row["count_speedup_vs_sieve"] > 1.0
]
failed += [
    f"mc_verify {row['dataset']} {row['samples']}: samples_tested_share {row['samples_tested_share']:.4f} >= {bound}"
    for rows, dataset, bound in ((orthant, "fifa", 0.02), (indexed, "bluenile", 0.03))
    for row in rows
    if row["dataset"] == dataset and not row["samples_tested_share"] < bound
]
failed += [
    f"mc_verify {row['dataset']} cone {row['cone']}: halfspaces_kept {row['halfspaces_kept']} != 0"
    for row in report["mc_verify"]
    if row["cone"] is not None and row["halfspaces_kept"] != 0
]
failed += [
    f"md_session {row['dataset']}: next_over_first {row['next_over_first']:.3f} >= 0.1"
    for row in report["md_session"]
    if not row["next_over_first"] < 0.1
]
failed += [
    f"md_session {row['dataset']}: open_p50_us {row['open_p50_us']:.1f} >= 0.1 x harvest_us {row['harvest_us']:.1f}"
    for row in report["md_session"]
    if not row["open_p50_us"] < 0.1 * row["harvest_us"]
]
failed += [
    f"md_session {row['dataset']}: snapshot_bytes {row['snapshot_bytes']:.0f} >= 1000000"
    for row in report["md_session"]
    if row["dataset"] == "bluenile" and not row["snapshot_bytes"] < 1_000_000
]
grid = report["exact_2d"]["quarter_grid"]
if grid["regions"] != grid["baseline_regions"]:
    failed.append(f"exact_2d quarter_grid: regions {grid['regions']} != baseline_regions {grid['baseline_regions']}")
cs = report["exact_2d"]["csmetrics"]
if not cs["tau50_verify_us"] < 100 * cs["plain_verify_us"]:
    failed.append(f"exact_2d csmetrics: tau50_verify_us {cs['tau50_verify_us']:.1f} >= 100 x plain_verify_us {cs['plain_verify_us']:.1f}")
exact_3d = report["exact_3d"]
failed += [
    f"exact_3d dot n={row['n']}: zero_answers {row['zero_answers']} != 0"
    for row in exact_3d["dot"]
    if row["zero_answers"] != 0
]
if not exact_3d["unity"]["unity_error"] < 1e-12:
    failed.append(f"exact_3d unity_error {exact_3d['unity']['unity_error']:.3e} >= 1e-12")
# No request may cost more because others hold sessions or charge tags.
cliffs = report["scale_cliffs"]
for ratio in ("sessions_10k_over_0", "tags_64_over_1"):
    if not cliffs[ratio] < 1.2:
        failed.append(f"scale_cliffs {ratio} {cliffs[ratio]:.3f} >= 1.2")
for line in failed:
    print(f"check.sh: bench smoke regression -- {line}", file=sys.stderr)
sys.exit(1 if failed else 0)
PYGATE
fi

# Persistence smoke: a real server primed, snapshotted, SIGKILLed, and
# restarted over the same --data-dir must answer its first verify from
# the restored cache. Every step runs under its own timeout; the trap
# kills any surviving server and removes the temp dir on all exit paths
# (success, failure, or a guard timeout).
echo "==> persistence smoke (snapshot → kill -9 → restore)"
SRANK=./target/release/srank
SMOKE_DIR="$(mktemp -d /tmp/srank-persist-smoke.XXXXXX)"
SERVER_PID=""
persist_cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$SMOKE_DIR"
}
trap persist_cleanup EXIT

start_server() {
  "$SRANK" serve --listen 127.0.0.1:0 --data-dir "$SMOKE_DIR/store" \
    --metrics-port 0 2> "$SMOKE_DIR/serve.log" &
  SERVER_PID=$!
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/.*listening on \([0-9.]*:[0-9]*\).*/\1/p' "$SMOKE_DIR/serve.log")
    [ -n "$ADDR" ] && break
    sleep 0.1
  done
  if [ -z "$ADDR" ]; then
    echo "check.sh: persistence smoke server did not start" >&2
    cat "$SMOKE_DIR/serve.log" >&2
    exit 1
  fi
  METRICS_ADDR=$(sed -n 's|.*metrics on http://\([0-9.:]*\)/metrics.*|\1|p' "$SMOKE_DIR/serve.log")
}

# One HTTP scrape of the persistent /metrics endpoint over /dev/tcp.
scrape_metrics() {
  exec 3<>"/dev/tcp/${METRICS_ADDR%:*}/${METRICS_ADDR##*:}"
  printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
  timeout --signal=KILL 10 cat <&3
  exec 3<&- 3>&-
}

q() { timeout --signal=KILL 30 "$SRANK" query "$ADDR" "$1"; }

start_server
q '{"op": "registry.load", "dataset": "dot", "builtin": "dot", "n": 400, "seed": 7}' > /dev/null
q '{"op": "verify", "dataset": "dot", "weights": [1, 1, 1], "samples": 20000}' > /dev/null

# Trace smoke: a served engine traces by default; the verify above must
# be queryable as a span tree with a kernel phase attributed to it.
TRACE=$(timeout --signal=KILL 30 "$SRANK" trace "$ADDR" --op verify --limit 4)
echo "$TRACE" | grep -q '"phase": "kernel"' \
  || { echo "check.sh: trace op returned no kernel span: $TRACE" >&2; exit 1; }

# Metrics smoke: the persistent endpoint answers repeated scrapes (two
# successive connections; same-connection reuse is covered by the
# service_persistence tests) with phase-attributed histograms.
for _ in 1 2; do
  scrape_metrics > "$SMOKE_DIR/metrics.out"
  grep -q 'srank_uptime_seconds' "$SMOKE_DIR/metrics.out" \
    || { echo "check.sh: metrics scrape missing exposition" >&2; exit 1; }
done
grep -q 'srank_phase_latency_micros_bucket{phase="kernel"' "$SMOKE_DIR/metrics.out" \
  || { echo "check.sh: metrics scrape missing phase histograms" >&2; exit 1; }

# Observability smoke: a tagged workload must land in the per-client
# accounting table with nonzero kernel-CPU attribution, the windowed
# gauges must reach the exposition, and debug.dump must answer.
q '{"op": "verify", "dataset": "dot", "weights": [2, 1, 1], "samples": 100000, "client": "smoke-tenant"}' > /dev/null
TOP=$(q '{"op": "top", "sort_by": "kernel_cpu_micros"}')
TOP="$TOP" python3 - <<'PYTOP' \
  || { echo "check.sh: top attribution failed: $TOP" >&2; exit 1; }
import json, os
top = json.loads(os.environ["TOP"])["result"]
rows = {r["client"]: r for r in top["clients"]}
row = rows.get("smoke-tenant")
assert row is not None, "smoke-tenant not tracked"
assert row["kernel_cpu_micros"] > 0, "no kernel CPU attributed"
assert row["requests"] >= 1, "request not counted"
PYTOP
# Per-sub-request accounting: each tagged sub-request of a tagged batch
# lands on its own `top` row, whether it runs inline on the submitter
# (ping) or on the pool (a Monte-Carlo verify above the inline sample
# threshold); the batch's row counts the batch alone.
q '{"op": "batch", "client": "smoke-batch", "requests": [{"op": "ping", "client": "smoke-inline"}, {"op": "verify", "dataset": "dot", "weights": [1, 2, 1], "roi": {"around": [1, 1, 1], "theta": 0.5}, "samples": 5000, "client": "smoke-pool"}]}' > /dev/null
TOP=$(q '{"op": "top", "sort_by": "requests"}')
TOP="$TOP" python3 - <<'PYSUB' \
  || { echo "check.sh: per-sub-request attribution failed: $TOP" >&2; exit 1; }
import json, os
rows = {r["client"]: r for r in json.loads(os.environ["TOP"])["result"]["clients"]}
for tag in ("smoke-inline", "smoke-pool", "smoke-batch"):
    assert tag in rows, f"{tag} has no row"
    assert rows[tag]["requests"] == 1, f"{tag} charged {rows[tag]['requests']} requests"
PYSUB
# A request whose op does not resolve still counts once, as a request
# and an error, on its own row; a typo in `top`'s closed `sort_by` set
# is refused rather than answered with a silent fallback order.
q '{"op": "nope", "client": "smoke-badop"}' > /dev/null
q '{"client": "smoke-noop"}' > /dev/null
TOP=$(q '{"op": "top", "sort_by": "requests", "limit": 64}')
TOP="$TOP" python3 - <<'PYBADOP' \
  || { echo "check.sh: bad-op accounting failed: $TOP" >&2; exit 1; }
import json, os
rows = {r["client"]: r for r in json.loads(os.environ["TOP"])["result"]["clients"]}
for tag in ("smoke-badop", "smoke-noop"):
    assert tag in rows, f"{tag} has no row"
    counts = (rows[tag]["requests"], rows[tag]["errors"])
    assert counts == (1, 1), f"{tag} counted (requests, errors) = {counts}"
PYBADOP
q '{"op": "top", "sort_by": "nope"}' | grep -q '"code":"bad_request"' \
  || { echo "check.sh: top accepted an unknown sort_by" >&2; exit 1; }
timeout --signal=KILL 30 "$SRANK" top "$ADDR" --limit 8 | grep -q 'smoke-tenant' \
  || { echo "check.sh: srank top CLI missing the tagged client" >&2; exit 1; }
q '{"op": "debug.dump"}' | grep -q 'lock_ranks' \
  || { echo "check.sh: debug.dump missing lock_ranks" >&2; exit 1; }
scrape_metrics > "$SMOKE_DIR/metrics.out"
grep -q 'srank_window_' "$SMOKE_DIR/metrics.out" \
  || { echo "check.sh: metrics scrape missing windowed gauges" >&2; exit 1; }

q '{"op": "snapshot"}' | grep -q '"datasets":1' \
  || { echo "check.sh: snapshot reported no datasets" >&2; exit 1; }
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

start_server   # warm restart over the same data dir
WARM=$(q '{"op": "verify", "dataset": "dot", "weights": [1, 1, 1], "samples": 20000}')
echo "$WARM" | grep -q '"cached":true' \
  || { echo "check.sh: warm restart did not serve from cache: $WARM" >&2; exit 1; }
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
persist_cleanup
trap - EXIT
echo "persistence smoke passed."

if [ "$CHAOS" = 1 ]; then
  # Chaos smoke: the persistence flow again, but with the transport and
  # the store actively failing underneath it. The retrying client must
  # ride through severed connections, a snapshot must eventually land
  # despite injected write failures, and the clean restart must serve
  # the pre-chaos answer from cache — zero lost work.
  echo "==> chaos smoke (SRANK_FAULTS armed: drops + slow flush + store writes)"
  SMOKE_DIR="$(mktemp -d /tmp/srank-chaos-smoke.XXXXXX)"
  SERVER_PID=""
  trap persist_cleanup EXIT

  export SRANK_FAULTS="drop_connection=0.15,slow_flush=0.3,store_write=0.4,seed=13"
  start_server
  unset SRANK_FAULTS
  qr() { timeout --signal=KILL 60 "$SRANK" query "$ADDR" "$1" --retries 10 --timeout-ms 5000; }

  # registry.load is not idempotent, so the client refuses to retry it
  # over a severed connection — loop at the shell level instead (a
  # re-load of the same builtin is harmless before any cache exists).
  LOADED=0
  for _ in $(seq 1 30); do
    if qr '{"op": "registry.load", "dataset": "dot", "builtin": "dot", "n": 400, "seed": 7}' \
        | grep -q '"ok":true'; then LOADED=1; break; fi
  done
  [ "$LOADED" = 1 ] || { echo "check.sh: chaos load did not converge" >&2; exit 1; }
  qr '{"op": "verify", "dataset": "dot", "weights": [1, 1, 1], "samples": 20000}' \
    | grep -q '"ok":true' \
    || { echo "check.sh: chaos verify did not converge" >&2; exit 1; }

  # Snapshot through injected store-write failures: retry until one
  # lands (the seeded sequence guarantees it does).
  SNAP_OK=0
  for _ in $(seq 1 60); do
    if qr '{"op": "snapshot"}' | grep -q '"ok":true'; then SNAP_OK=1; break; fi
  done
  [ "$SNAP_OK" = 1 ] || { echo "check.sh: chaos snapshot never landed" >&2; exit 1; }

  # The injected faults are observable in-band.
  HEALTH=$(qr '{"op": "health"}')
  echo "$HEALTH" | grep -q '"armed":true' \
    || { echo "check.sh: health does not show armed faults: $HEALTH" >&2; exit 1; }

  kill -9 "$SERVER_PID"
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""

  start_server   # clean restart, no faults, same data dir
  WARM=$(q '{"op": "verify", "dataset": "dot", "weights": [1, 1, 1], "samples": 20000}')
  echo "$WARM" | grep -q '"cached":true' \
    || { echo "check.sh: chaos restart lost the snapshotted work: $WARM" >&2; exit 1; }
  kill -9 "$SERVER_PID"
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
  persist_cleanup
  trap - EXIT
  echo "chaos smoke passed."
fi

# A hang here is a pipeline deadlock (pool starvation, a response queue
# nobody drains, a parked session waiter never granted, a lost wakeup):
# kill it after the guard rather than letting the job wedge. 300 s is
# ~10× the observed release runtime.
STRESS_TIMEOUT="${STRESS_TIMEOUT:-300}"
echo "==> streaming/pool/session-queue stress tests (timeout ${STRESS_TIMEOUT}s)"
stress_status=0
timeout --signal=KILL "$STRESS_TIMEOUT" \
  cargo test --release -p srank-service \
    --test service_pool_stress --test service_streaming \
    --test service_session_queue \
    -- --include-ignored \
  || stress_status=$?
if [ "$stress_status" -ne 0 ]; then
  echo "check.sh: stress tests failed or timed out (deadlock?) [exit ${stress_status}]" >&2
  exit "$stress_status"
fi

echo "All checks passed."
