//! Conformance tests for the observability layer (`srank-obs`): the
//! `"top"` op ranks tagged clients by attributed kernel CPU, the
//! `"debug.dump"` op reports every subsystem, the watchdog supervisor
//! degrades `health` while a worker is stalled (fault-injected kernel
//! delay), a slow request's windowed exemplar resolves through the
//! `trace` op, and windowed counts/quantiles stay consistent under
//! proptest-generated concurrent recording.

use proptest::prelude::*;
use serde_json::Value;
use srank_service::obs::WindowRing;
use srank_service::{Engine, EngineConfig, Op};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn call(engine: &Engine, line: &str) -> Value {
    serde_json::from_str(&engine.handle_line(line)).expect("response is JSON")
}

fn result(response: &Value) -> &Value {
    assert_eq!(
        response.get("ok").and_then(Value::as_bool),
        Some(true),
        "expected ok response, got {}",
        serde_json::to_string(response).unwrap()
    );
    response.get("result").expect("ok responses carry a result")
}

/// Loads a 5-dimensional dataset so `session.get_next` runs the
/// Monte-Carlo verify kernel (exact kernels cover d <= 3) and burns
/// measurable CPU per call.
fn load_bluenile(engine: &Engine) {
    result(&call(
        engine,
        r#"{"op": "registry.load", "dataset": "bn", "builtin": "bluenile", "n": 120, "d": 5, "seed": 7}"#,
    ));
}

fn open_session(engine: &Engine, client: &str) -> u64 {
    let open = format!(
        r#"{{"op": "session.open", "dataset": "bn", "kind": "randomized", "scope": "top-k-set", "k": 5, "seed": 77, "budget": 200000, "client": "{client}"}}"#
    );
    result(&call(engine, &open))
        .get("session")
        .and_then(Value::as_u64)
        .expect("session.open returns an id")
}

/// Finds the accounting row for `client` in a `top` result.
fn client_row<'a>(top: &'a Value, client: &str) -> Option<&'a Value> {
    top.get("clients")
        .and_then(Value::as_array)
        .expect("top result carries a clients array")
        .iter()
        .find(|row| row.get("client").and_then(Value::as_str) == Some(client))
}

/// A batch sub-request is charged to its own `"client"` tag, whichever
/// path runs it: the inline `ping` and the pool-bound Monte-Carlo
/// `verify` each get their own `top` row, and the batch's row counts the
/// batch alone.
#[test]
fn batch_sub_requests_are_charged_to_their_own_tags() {
    let engine = Engine::new(EngineConfig::default());
    load_bluenile(&engine);
    let batch = call(
        &engine,
        r#"{"op": "batch", "client": "outer", "requests": [
            {"op": "ping", "client": "inner-ping"},
            {"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1], "samples": 5000, "client": "inner-verify"},
            {"op": "ping"}]}"#,
    );
    let results = result(&batch).get("results").unwrap().as_array().unwrap();
    for envelope in results {
        result(envelope);
    }
    let response = call(&engine, r#"{"op": "top", "sort_by": "requests"}"#);
    let top = result(&response);
    let requests = |client: &str| {
        client_row(top, client)
            .unwrap_or_else(|| panic!("no row for {client}: {top:?}"))
            .get("requests")
            .and_then(Value::as_u64)
    };
    assert_eq!(requests("inner-ping"), Some(1), "inline sub: {top:?}");
    assert_eq!(requests("inner-verify"), Some(1), "pool sub: {top:?}");
    assert_eq!(
        requests("outer"),
        Some(2),
        "the batch plus its untagged sub: {top:?}"
    );
    let verify_row = client_row(top, "inner-verify").unwrap();
    assert!(
        verify_row
            .get("kernel_cpu_micros")
            .and_then(Value::as_u64)
            .is_some_and(|cpu| cpu > 0),
        "the pool sub's kernel CPU lands on its own row: {top:?}"
    );
}

#[test]
fn top_ranks_two_tagged_clients_by_kernel_cpu() {
    let engine = Engine::new(EngineConfig::default());
    load_bluenile(&engine);

    // Asymmetric load: the heavy tenant advances its randomized
    // session three times (three full Monte-Carlo budgets), the light
    // tenant once.
    let heavy = open_session(&engine, "tenant-heavy");
    let light = open_session(&engine, "tenant-light");
    for _ in 0..3 {
        result(&call(
            &engine,
            &format!(
                r#"{{"op": "session.get_next", "session": {heavy}, "client": "tenant-heavy"}}"#
            ),
        ));
    }
    result(&call(
        &engine,
        &format!(r#"{{"op": "session.get_next", "session": {light}, "client": "tenant-light"}}"#),
    ));

    let response = call(&engine, r#"{"op": "top"}"#);
    let top = result(&response);
    assert_eq!(
        top.get("sorted_by").and_then(Value::as_str),
        Some("kernel_cpu_micros")
    );
    let heavy_row = client_row(top, "tenant-heavy").expect("heavy tenant tracked");
    let light_row = client_row(top, "tenant-light").expect("light tenant tracked");
    let cpu = |row: &Value| {
        row.get("kernel_cpu_micros")
            .and_then(Value::as_u64)
            .expect("rows carry kernel_cpu_micros")
    };
    assert!(cpu(heavy_row) > 0, "heavy tenant attributed no kernel CPU");
    assert!(
        cpu(heavy_row) > cpu(light_row),
        "3x budget should out-rank 1x: heavy={} light={}",
        cpu(heavy_row),
        cpu(light_row)
    );
    assert_eq!(heavy_row.get("requests").and_then(Value::as_u64), Some(4));
    assert_eq!(light_row.get("requests").and_then(Value::as_u64), Some(2));

    // The array is sorted descending by the sort key, so the heavy
    // tenant appears first.
    let clients = top.get("clients").and_then(Value::as_array).unwrap();
    let pos = |name: &str| {
        clients
            .iter()
            .position(|r| r.get("client").and_then(Value::as_str) == Some(name))
            .unwrap()
    };
    assert!(pos("tenant-heavy") < pos("tenant-light"));

    // Re-sorting by request count is honored and echoed back.
    let by_requests = call(
        &engine,
        r#"{"op": "top", "sort_by": "requests", "limit": 4}"#,
    );
    assert_eq!(
        result(&by_requests)
            .get("sorted_by")
            .and_then(Value::as_str),
        Some("requests")
    );
}

#[test]
fn untagged_requests_charge_the_anonymous_bucket() {
    let engine = Engine::new(EngineConfig::default());
    result(&call(&engine, r#"{"op": "ping"}"#));
    result(&call(&engine, r#"{"op": "stats"}"#));
    let response = call(&engine, r#"{"op": "top", "sort_by": "requests"}"#);
    let row = client_row(result(&response), "(anonymous)").expect("anonymous bucket tracked");
    assert!(row.get("requests").and_then(Value::as_u64).unwrap() >= 2);
}

#[test]
fn debug_dump_reports_every_subsystem() {
    let engine = Engine::new(EngineConfig::default());
    load_bluenile(&engine);
    let session = open_session(&engine, "dumper");

    let response = call(&engine, r#"{"op": "debug.dump"}"#);
    let dump = result(&response);
    for key in [
        "watchdog",
        "pool",
        "session_table",
        "sessions",
        "clients",
        "guard",
        "trace",
        "lock_ranks",
    ] {
        assert!(dump.get(key).is_some(), "debug.dump missing `{key}` block");
    }
    // The open session shows up in the per-session listing.
    let sessions = dump.get("sessions").and_then(Value::as_array).unwrap();
    assert!(sessions
        .iter()
        .any(|s| s.get("session").and_then(Value::as_u64) == Some(session)));
    // The lock table is reported in strictly increasing rank order.
    let ranks: Vec<u64> = dump
        .get("lock_ranks")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|r| r.get("rank").and_then(Value::as_u64).unwrap())
        .collect();
    assert!(!ranks.is_empty());
    assert!(ranks.windows(2).all(|w| w[0] < w[1]), "ranks: {ranks:?}");
}

#[test]
fn watchdog_degrades_health_on_stalled_worker() {
    // A 300 ms fault-injected kernel delay on a width-1 pool, watched
    // with a 40 ms stall threshold: the supervisor (25 ms tick) must
    // flip health to degraded while the batch is executing, and back
    // once it drains.
    let engine = Engine::new(EngineConfig {
        pool_workers: 1,
        watchdog_stall_ms: 40,
        faults: Some("kernel_delay_ms=300".to_string()),
        ..EngineConfig::default()
    });
    load_bluenile(&engine);
    let session = open_session(&engine, "staller");

    let engine = Arc::new(engine);
    let worker = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let batch = format!(
                r#"{{"op": "batch", "requests": [{{"op": "session.get_next", "session": {session}}}]}}"#
            );
            call(&engine, &batch);
        })
    };

    let mut saw_degraded = false;
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        let health = call(&engine, r#"{"op": "health"}"#);
        let body = result(&health);
        if body.get("status").and_then(Value::as_str) == Some("degraded") {
            let stalled = body
                .get("watchdog")
                .and_then(|w| w.get("stalled_workers"))
                .and_then(Value::as_u64)
                .unwrap_or(0);
            assert!(stalled > 0, "degraded without a stalled worker: {body:?}");
            saw_degraded = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    worker.join().expect("stalled batch completes");
    assert!(saw_degraded, "watchdog never flagged the stalled worker");

    // Degradation is transient: once the worker drains, the next scan
    // clears the flag.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let health = call(&engine, r#"{"op": "health"}"#);
        if result(&health).get("status").and_then(Value::as_str) == Some("ok") {
            break;
        }
        assert!(Instant::now() < deadline, "health stuck degraded");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn slow_request_exemplar_resolves_via_trace_op() {
    let engine = Engine::new(EngineConfig {
        trace_sample: 1,
        ..EngineConfig::default()
    });
    load_bluenile(&engine);
    let session = open_session(&engine, "tracer");
    result(&call(
        &engine,
        &format!(r#"{{"op": "session.get_next", "session": {session}}}"#),
    ));

    let stats = call(&engine, r#"{"op": "stats"}"#);
    let exemplar = result(&stats)
        .get("window")
        .and_then(|w| w.get("ops"))
        .and_then(|o| o.get("exemplar_trace"))
        .and_then(Value::as_u64)
        .expect("worst windowed sample carries an exemplar trace id");
    assert!(exemplar > 0);

    // The exemplar id must resolve to a complete trace in the recorder.
    let traces = call(&engine, r#"{"op": "trace", "limit": 64}"#);
    let found = result(&traces)
        .get("traces")
        .and_then(Value::as_array)
        .expect("trace result carries a traces array")
        .iter()
        .any(|t| t.get("trace").and_then(Value::as_u64) == Some(exemplar));
    assert!(found, "exemplar trace {exemplar} not found by the trace op");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Concurrent recording accounts for every sample — each lands in
    /// the window or in `skipped_records`, never both and never
    /// neither — so no windowed count exceeds the cumulative total, and
    /// quantile upper bounds stay monotone (p50 <= p90 <= p99) in every
    /// populated block. All threads start together on one fresh second,
    /// so they race to recycle the same slot.
    #[test]
    fn windowed_counts_bounded_and_quantiles_monotone(
        micros in prop::collection::vec(1u64..2_000_000u64, 1..240),
        threads in 2usize..5,
    ) {
        // Spread samples across ops deterministically (the shimmed
        // proptest has no tuple strategies).
        let samples: Vec<(Op, u64)> = micros
            .iter()
            .enumerate()
            .map(|(i, &m)| (Op::ALL[(i + m as usize) % Op::ALL.len()], m))
            .collect();
        let ring = Arc::new(WindowRing::new());
        let now = ring.now_sec();
        let total = samples.len() as u64;
        let chunk = samples.len().div_ceil(threads);
        let parts: Vec<Vec<(Op, u64)>> = samples.chunks(chunk).map(<[_]>::to_vec).collect();
        let start = Arc::new(std::sync::Barrier::new(parts.len()));
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| {
                let ring = Arc::clone(&ring);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for (op, micros) in part {
                        ring.record_op_at(now, op, micros, 0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let skipped = ring.skipped_records();
        prop_assert!(skipped <= total, "skipped {skipped} of {total} records");
        let recorded = total - skipped;

        let window = ring.to_value_at(now);
        let quantiles_monotone = |block: &Value| {
            let q = |k: &str| block.get(k).and_then(Value::as_u64).unwrap_or(0);
            prop_assert!(q("p50") <= q("p90") && q("p90") <= q("p99"),
                "non-monotone quantiles in {block:?}");
            Ok(())
        };
        let merged = window.get("ops").expect("summary ops block");
        prop_assert_eq!(merged.get("count").and_then(Value::as_u64), Some(recorded));
        quantiles_monotone(merged)?;

        for horizon in ["10s", "60s", "300s"] {
            let block = window.get(horizon).expect("per-window block");
            // Everything was recorded in the current second, so each
            // horizon sees exactly the cumulative total less the counted
            // skips — and never more.
            prop_assert_eq!(
                block.get("requests").and_then(Value::as_u64),
                Some(recorded)
            );
            let ops = block.get("ops").expect("per-op block");
            let mut windowed_sum = 0u64;
            if let Value::Object(entries) = ops {
                for (_, entry) in entries.iter() {
                    windowed_sum += entry.get("count").and_then(Value::as_u64).unwrap_or(0);
                    quantiles_monotone(entry)?;
                }
            }
            prop_assert_eq!(windowed_sum, recorded);
        }
    }
}

/// Every request that parses as JSON counts exactly once, as a request
/// and (failed) as an error, in the window and on its client's row —
/// whether or not its op resolves. A sub-request that fails to resolve
/// is answered at submit, so it never waits on the pool queue.
#[test]
fn requests_with_a_bad_op_count_once_everywhere() {
    let engine = Engine::new(EngineConfig::default());
    for (line, message) in [
        (
            r#"{"op": "nope", "client": "unknown-op"}"#,
            "unknown op 'nope'",
        ),
        (r#"{"client": "missing-op"}"#, "missing required field 'op'"),
        (
            r#"{"op": 5, "client": "int-op"}"#,
            "field 'op' must be a string",
        ),
    ] {
        let response = call(&engine, line);
        let error = response.get("error").expect("a bad op fails");
        assert_eq!(
            error.get("code").and_then(Value::as_str),
            Some("bad_request")
        );
        assert_eq!(error.get("message").and_then(Value::as_str), Some(message));
    }
    result(&call(&engine, r#"{"op": "ping"}"#));
    let batch = call(
        &engine,
        r#"{"op": "batch", "client": "outer", "requests": [
            {"client": "sub-missing"},
            {"op": "nope", "client": "sub-unknown"}]}"#,
    );
    for envelope in result(&batch).get("results").unwrap().as_array().unwrap() {
        assert_eq!(envelope.get("ok").and_then(Value::as_bool), Some(false));
    }

    let response = call(&engine, r#"{"op": "top", "sort_by": "requests"}"#);
    let top = result(&response);
    let column = |client: &str, key: &str| {
        client_row(top, client)
            .unwrap_or_else(|| panic!("no row for {client}: {top:?}"))
            .get(key)
            .and_then(Value::as_u64)
    };
    for client in [
        "unknown-op",
        "missing-op",
        "int-op",
        "sub-missing",
        "sub-unknown",
    ] {
        assert_eq!(column(client, "requests"), Some(1), "{client}: {top:?}");
        assert_eq!(column(client, "errors"), Some(1), "{client}: {top:?}");
        assert_eq!(
            column(client, "queue_wait_micros"),
            Some(0),
            "{client}: {top:?}"
        );
    }
    assert_eq!(column("outer", "requests"), Some(1), "{top:?}");
    assert_eq!(column("outer", "errors"), Some(0), "{top:?}");

    // Three bad ops, ping, the batch, its two subs and `top`; `stats`
    // does not count itself.
    let stats = call(&engine, r#"{"op": "stats"}"#);
    let window = result(&stats)
        .get("window")
        .and_then(|w| w.get("300s"))
        .unwrap();
    let count = |key: &str| window.get(key).and_then(Value::as_u64).unwrap();
    assert_eq!(count("requests"), 8, "{window:?}");
    assert_eq!(count("errors"), 5, "{window:?}");
    assert!(count("errors") <= count("requests"));
}

/// Runs one line through the transport entry point (so response bytes
/// are charged) and returns the response.
fn stream_call(engine: &Engine, line: &str) -> Value {
    let mut out = String::new();
    engine
        .handle_line_streamed(
            line,
            &mut |l| {
                out.push_str(l);
                Ok(())
            },
            srank_service::RequestCtx::default(),
        )
        .unwrap();
    serde_json::from_str(&out).expect("response is JSON")
}

/// `top` after one fixed request sequence over three tags at a table
/// capacity of two, so `c`'s first request evicts `b`: every column of
/// every row, with the kernel CPU column read as whether any was charged.
fn top_after_the_fixed_sequence() -> String {
    let engine = Engine::new(EngineConfig {
        client_table_capacity: 2,
        ..EngineConfig::default()
    });
    for load in [
        r#"{"op": "registry.load", "dataset": "h", "builtin": "figure1", "client": "a"}"#,
        r#"{"op": "registry.load", "dataset": "f", "builtin": "fifa", "n": 60, "seed": 3, "client": "a"}"#,
    ] {
        result(&stream_call(&engine, load));
    }
    let mc = r#"{"op": "verify", "dataset": "f", "weights": [1, 2, 3, 4], "samples": 5000, "client": "c"}"#;
    for line in [
        r#"{"op": "verify", "dataset": "h", "weights": [1, 1], "client": "a"}"#,
        r#"{"op": "verify", "dataset": "h", "weights": [1, 1], "client": "a"}"#,
        r#"{"op": "verify", "dataset": "h", "weights": [1, 3], "client": "b"}"#,
        r#"{"op": "nope", "client": "b"}"#,
        r#"{"op": "ping", "client": "a"}"#,
        mc,
        mc,
        r#"{"op": "verify", "dataset": "h", "weights": [1, 1], "client": "a"}"#,
        r#"{"op": "session.get_next", "session": 999, "client": "c"}"#,
    ] {
        stream_call(&engine, line);
    }
    // The second `top` comes from a new tag: its row is created (and `c`
    // evicted) only when its request is charged, after it answered.
    let mut rows = Vec::new();
    for tag in ["a", "d"] {
        let top = stream_call(&engine, &format!(r#"{{"op": "top", "client": "{tag}"}}"#));
        rows.extend(top_rows(result(&top)));
    }
    rows.join("\n")
}

fn top_rows(top: &Value) -> Vec<String> {
    let mut rows = vec![format!(
        "tracked {} evicted {}",
        top.get("tracked").unwrap().as_u64().unwrap(),
        top.get("evicted").unwrap().as_u64().unwrap()
    )];
    for row in top.get("clients").unwrap().as_array().unwrap() {
        let n = |key: &str| row.get(key).and_then(Value::as_u64).unwrap();
        rows.push(format!(
            "{} requests {} errors {} kernel_cpu {} queue_wait {} bytes {} hits {} misses {} sheds {} expired {}",
            row.get("client").unwrap().as_str().unwrap(),
            n("requests"),
            n("errors"),
            n("kernel_cpu_micros") > 0,
            n("queue_wait_micros"),
            n("bytes_written"),
            n("cache_hits"),
            n("cache_misses"),
            n("sheds"),
            n("deadline_expired"),
        ));
    }
    rows
}

/// Per-client accounting looks each request's row up once, at its first
/// charge, and charges it without the table lock; every `top` column
/// must read as when each charge looked the row up. The rows below were
/// printed by the build before that change for this exact sequence.
#[test]
fn top_rows_match_per_charge_lookups() {
    let c = "c requests 3 errors 1 kernel_cpu true queue_wait 0 bytes 411 hits 1 misses 1 sheds 0 expired 0";
    let expected = [
        "tracked 2 evicted 1",
        c,
        "a requests 6 errors 0 kernel_cpu true queue_wait 0 bytes 665 hits 2 misses 1 sheds 0 expired 0",
        "tracked 2 evicted 1",
        c,
        "a requests 7 errors 0 kernel_cpu true queue_wait 0 bytes 1120 hits 2 misses 1 sheds 0 expired 0",
    ];
    assert_eq!(top_after_the_fixed_sequence(), expected.join("\n"));
}
