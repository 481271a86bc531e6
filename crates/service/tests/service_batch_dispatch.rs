//! Conformance tests for the batch dispatch fast path: the submitter
//! thread answers provably-cheap sub-requests inline (no pool hop), and
//! the fast path must be *behaviorally identical* to the pool path for
//! everything except latency —
//!
//! * **guard seams still fire**: an expired `deadline_ms` or an armed
//!   load-shed produces the same typed error envelope on the inline
//!   path as on the pool path, with no kernel span in the trace;
//! * **streamed accounting survives the split**: when some sub-requests
//!   inline and others ride the pool, every index is delivered exactly
//!   once and the terminal summary is last;
//! * **property test**: arbitrary mixed batches (cached / cold /
//!   cheap-inline / erroring subs) on a maximally contended 1-worker
//!   cap-1 pool answer exactly once with per-sub error isolation, and
//!   inline-eligible subs provably never touch the pool (`stats.pool`).

use proptest::prelude::*;
use serde_json::Value;
use srank_service::{Engine, EngineConfig, RequestCtx};

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

fn error_code(envelope: &Value) -> &str {
    envelope
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .unwrap_or("<no error code>")
}

/// Runs one line through the streaming entry point. A sink call may
/// carry a coalesced burst of newline-joined envelopes — split first.
fn stream(engine: &Engine, line: &str) -> Vec<Value> {
    let mut lines = Vec::new();
    engine
        .handle_line_streamed(
            line,
            &mut |payload| {
                for l in payload.split('\n') {
                    lines.push(serde_json::from_str(l).expect("emitted line is JSON"));
                }
                Ok(())
            },
            RequestCtx::default(),
        )
        .expect("in-memory sink never fails");
    lines
}

/// figure1 (5 rows, d = 2): exact kernel, far under the inline row
/// bound — the canonical inline-class verify target.
fn load_figure1(engine: &Engine) {
    result(&call(
        engine,
        r#"{"op": "registry.load", "dataset": "fig", "builtin": "figure1"}"#,
    ));
}

/// bluenile at d = 5: Monte-Carlo kernel; with a sample budget above
/// the inline threshold its verifies are pool-class.
fn load_bluenile(engine: &Engine) {
    result(&call(
        engine,
        r#"{"op": "registry.load", "dataset": "bn", "builtin": "bluenile", "n": 120, "d": 5, "seed": 7}"#,
    ));
}

fn pool_stats(engine: &Engine) -> Value {
    result(&call(engine, r#"{"op": "stats"}"#))
        .get("pool")
        .expect("stats carries a pool section")
        .clone()
}

fn stat(section: &Value, key: &str) -> u64 {
    section
        .get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats field {key} missing in {section:?}"))
}

/// Depth-first count of spans matching `phase` in a trace span forest.
fn count_phase(spans: &[Value], phase: &str) -> usize {
    spans
        .iter()
        .map(|span| {
            let own = usize::from(span.get("phase").and_then(Value::as_str) == Some(phase));
            let kids = span
                .get("children")
                .and_then(Value::as_array)
                .map_or(0, |c| count_phase(c, phase));
            own + kids
        })
        .sum()
}

// ---------------------------------------------------------------------
// Guard conformance on the inline fast path

/// An inline-classified sub-request reached after the batch deadline
/// has expired is shed at the dequeue seam on the submitter thread —
/// the same typed `deadline_exceeded` envelope the pool path produces,
/// and provably without entering a kernel (no kernel span, and no
/// pool_queue span since nothing touched the pool).
#[test]
fn inline_fast_path_honors_the_ambient_deadline() {
    let engine = Engine::new(EngineConfig {
        trace_sample: 1,
        faults: Some("kernel_delay_ms=30".into()),
        ..EngineConfig::default()
    });
    load_figure1(&engine);

    // Sub 0 passes the dequeue check (the 5ms budget is fresh), then
    // burns it in the injected 30ms kernel stall → shed at Kernel
    // stage. By the time the submitter classifies sub 1 the deadline
    // is dead → shed at Dequeue, before any kernel work.
    let line = r#"{"op": "batch", "stream": true, "deadline_ms": 5, "client": "t", "requests": [
        {"op": "verify", "dataset": "fig", "weights": [1, 1]},
        {"op": "verify", "dataset": "fig", "weights": [1, 2]}]}"#;
    let lines = stream(&engine, &line.replace('\n', " "));
    assert_eq!(lines.len(), 3, "2 sub envelopes + terminal");
    for envelope in &lines[..2] {
        assert_eq!(
            error_code(envelope),
            "deadline_exceeded",
            "inline subs shed with the pool path's typed error: {}",
            serde_json::to_string(envelope).unwrap()
        );
    }
    let terminal = lines[2].clone();
    assert_eq!(
        result(&terminal).get("errors").and_then(Value::as_u64),
        Some(2)
    );

    // Both expiries are counted at their guard seam.
    let stats = result(&call(&engine, r#"{"op": "stats"}"#)).clone();
    let guard = stats.get("guard").expect("guard stats");
    assert!(
        stat(guard, "deadline_expired_at_dequeue") >= 1,
        "the late sub must be shed at the dequeue seam: {guard:?}"
    );
    assert!(
        stat(guard, "deadline_expired_in_kernel") >= 1,
        "the first sub must be shed at the kernel seam: {guard:?}"
    );

    // The trace proves no sub touched the pool or ran a kernel.
    let trace_response = call(
        &engine,
        r#"{"op": "trace", "filter_op": "batch", "limit": 2}"#,
    );
    let traces = result(&trace_response)
        .get("traces")
        .and_then(Value::as_array)
        .expect("traces array");
    assert!(!traces.is_empty(), "the batch must be traced");
    let spans = traces[0]
        .get("spans")
        .and_then(Value::as_array)
        .expect("trace spans");
    assert_eq!(
        count_phase(spans, "sub_request"),
        2,
        "both subs traced under the batch root"
    );
    assert_eq!(
        count_phase(spans, "pool_queue"),
        0,
        "inline subs must never wait on the pool queue"
    );
    assert_eq!(
        count_phase(spans, "kernel"),
        0,
        "a shed sub must never enter a kernel"
    );

    // Both subs were answered inline; the pool saw nothing.
    let pool = pool_stats(&engine);
    assert_eq!(stat(&pool, "submitted"), 0);
    assert_eq!(stat(&pool, "inline_answered"), 2);

    // Both sheds are accounted to the batch's tag, as a pool job's
    // would be: the batch plus two failed, expired subs.
    let top = result(&call(&engine, r#"{"op": "top", "sort_by": "requests"}"#)).clone();
    let row = top
        .get("clients")
        .and_then(Value::as_array)
        .expect("clients array")
        .iter()
        .find(|row| row.get("client").and_then(Value::as_str) == Some("t"))
        .unwrap_or_else(|| panic!("no row for the batch tag: {top:?}"))
        .clone();
    assert_eq!(
        (
            stat(&row, "requests"),
            stat(&row, "errors"),
            stat(&row, "deadline_expired")
        ),
        (3, 2, 2),
        "{row:?}"
    );
}

/// An armed load-shed bites on the submitter fast path exactly as it
/// does on a worker: with the pool queue provably deep, a cold
/// inline-class verify is shed on the submitter thread with the same
/// typed `overloaded` envelope the pool path produces — never computed.
#[test]
fn inline_fast_path_is_subject_to_admission_control() {
    let engine = std::sync::Arc::new(Engine::new(EngineConfig {
        pool_workers: 2,
        guard: srank_service::guard::GuardConfig {
            shed_pool_queue: 1,
            ..Default::default()
        },
        ..EngineConfig::default()
    }));
    load_figure1(&engine);

    std::thread::scope(|s| {
        // Three background batches of slow, admission-free pool jobs
        // (big synthetic dataset loads). Each batch keeps a window of 2
        // (= pool width) in flight, the 2 workers execute 2 at a time,
        // so ~4 jobs sit in the work queue for the whole load duration
        // — a stable depth above the shed threshold.
        for t in 0..3 {
            let engine = std::sync::Arc::clone(&engine);
            s.spawn(move || {
                let subs: Vec<String> = (0..3)
                    .map(|i| {
                        format!(
                            r#"{{"op": "registry.load", "dataset": "big{t}{i}", "builtin": "bluenile", "n": 500000, "d": 6, "seed": {i}}}"#
                        )
                    })
                    .collect();
                let line = format!(
                    r#"{{"op": "batch", "stream": true, "requests": [{}]}}"#,
                    subs.join(", ")
                );
                engine
                    .handle_line_streamed(&line, &mut |_| Ok(()), RequestCtx::default())
                    .expect("in-memory sink never fails");
            });
        }

        // Wait until the queue is provably deep (with margin over the
        // threshold so transient pops cannot race the probe below).
        let deep = (0..2_000).any(|_| {
            if stat(&pool_stats(&engine), "queue_depth") >= 3 {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            false
        });
        assert!(deep, "background loads never built pool queue depth");

        let inline_before = stat(&pool_stats(&engine), "inline_answered");
        let response = call(
            &engine,
            r#"{"op": "batch", "requests": [{"op": "verify", "dataset": "fig", "weights": [1, 1]}]}"#,
        );
        let results = result(&response)
            .get("results")
            .and_then(Value::as_array)
            .expect("batch results");
        assert_eq!(results.len(), 1);
        assert_eq!(
            error_code(&results[0]),
            "overloaded",
            "the inline sub must be shed by admission control: {}",
            serde_json::to_string(&results[0]).unwrap()
        );
        // The shed happened on the submitter thread — the probe never
        // became a pool submission.
        assert_eq!(
            stat(&pool_stats(&engine), "inline_answered"),
            inline_before + 1
        );
    });
}

// ---------------------------------------------------------------------
// Streamed interleaving of inline and pool sub-responses

/// A streamed batch whose subs split across the inline and pool paths
/// still delivers every index exactly once with the terminal summary
/// strictly last, and the split is observable in `stats.pool`.
#[test]
fn streamed_batch_interleaves_inline_and_pool_subs_exactly_once() {
    let engine = Engine::new(EngineConfig {
        pool_workers: 1,
        stream_queue_cap: std::num::NonZeroUsize::new(1),
        ..EngineConfig::default()
    });
    load_figure1(&engine);
    load_bluenile(&engine);

    // 8 subs: indexes 0,2,4,6 inline-class (figure1 verify / ping),
    // 1,3,5 pool-class (cold MC verifies), 7 pool-class erroring.
    let line = r#"{"op": "batch", "stream": true, "requests": [
        {"op": "verify", "dataset": "fig", "weights": [1, 1]},
        {"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1], "samples": 4000},
        {"op": "ping"},
        {"op": "verify", "dataset": "bn", "weights": [2, 1, 1, 1, 1], "samples": 4000},
        {"op": "verify", "dataset": "fig", "weights": [1, 3]},
        {"op": "verify", "dataset": "bn", "weights": [3, 1, 1, 1, 1], "samples": 4000},
        {"op": "ping"},
        {"op": "verify", "dataset": "ghost", "weights": [1, 1]}]}"#;
    let lines = stream(&engine, &line.replace('\n', " "));
    assert_eq!(lines.len(), 9, "8 sub envelopes + terminal");

    let mut seen = [false; 8];
    for envelope in &lines[..8] {
        let tag = envelope.get("stream").expect("sub lines carry a tag");
        assert_eq!(tag.get("last").and_then(Value::as_bool), Some(false));
        let index = tag
            .get("index")
            .and_then(Value::as_u64)
            .expect("sub lines carry an index") as usize;
        assert!(!seen[index], "index {index} delivered twice");
        seen[index] = true;
    }
    assert!(seen.iter().all(|&s| s), "every index delivered");

    let terminal = &lines[8];
    let tag = terminal.get("stream").expect("terminal carries a tag");
    assert_eq!(
        tag.get("last").and_then(Value::as_bool),
        Some(true),
        "terminal summary must be the final line"
    );
    let summary = result(terminal);
    assert_eq!(summary.get("count").and_then(Value::as_u64), Some(8));
    assert_eq!(summary.get("errors").and_then(Value::as_u64), Some(1));

    let pool = pool_stats(&engine);
    assert_eq!(stat(&pool, "submitted"), 4, "3 cold verifies + 1 error");
    assert_eq!(
        stat(&pool, "inline_answered"),
        4,
        "2 fig verifies + 2 pings"
    );
}

// ---------------------------------------------------------------------
// Property test: mixed batches on a maximally contended pool

#[derive(Clone, Copy, Debug)]
enum SubKind {
    /// Result-cache hit: answered inline from the LRU.
    Cached,
    /// Cold Monte-Carlo verify above the inline sample bound.
    ColdPool,
    /// Cold exact verify under the inline row bound.
    CheapInline,
    /// Verify against an unloaded dataset — pool path, typed error.
    Erroring,
}

fn sub_line(kind: SubKind, index: usize) -> String {
    match kind {
        SubKind::Cached => {
            r#"{"op": "verify", "dataset": "bn", "weights": [9, 9, 9, 9, 9], "samples": 2500}"#
                .to_string()
        }
        SubKind::ColdPool => format!(
            r#"{{"op": "verify", "dataset": "bn", "weights": [1, {}, 1, 1, 1], "samples": 2500}}"#,
            index + 2
        ),
        SubKind::CheapInline => {
            format!(
                r#"{{"op": "verify", "dataset": "fig", "weights": [1, {}]}}"#,
                index + 2
            )
        }
        SubKind::Erroring => {
            r#"{"op": "verify", "dataset": "ghost", "weights": [1, 1]}"#.to_string()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any mix of cached / cold / cheap-inline / erroring subs on a
    /// 1-worker cap-1 pool: every sub answered exactly once, errors
    /// isolated to their own envelope, and the inline/pool split
    /// exactly accounted in `stats.pool`.
    #[test]
    fn mixed_batches_answer_exactly_once_with_exact_pool_accounting(
        raw_kinds in prop::collection::vec(0usize..4, 1..10),
        transport in 0u8..2,
    ) {
        let kinds: Vec<SubKind> = raw_kinds
            .iter()
            .map(|&k| match k {
                0 => SubKind::Cached,
                1 => SubKind::ColdPool,
                2 => SubKind::CheapInline,
                _ => SubKind::Erroring,
            })
            .collect();
        let streamed = transport == 1;
        let engine = Engine::new(EngineConfig {
            pool_workers: 1,
            stream_queue_cap: std::num::NonZeroUsize::new(1),
            ..EngineConfig::default()
        });
        load_figure1(&engine);
        load_bluenile(&engine);
        // Warm the result the Cached subs hit. Direct calls never ride
        // the pool, so the baseline pool counters stay zero.
        result(&call(&engine, &sub_line(SubKind::Cached, 0)));

        let subs: Vec<String> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| sub_line(k, i))
            .collect();
        let n = subs.len();
        let stream_flag = if streamed { r#""stream": true, "# } else { "" };
        let line = format!(
            r#"{{"op": "batch", {stream_flag}"requests": [{}]}}"#,
            subs.join(", ")
        );

        // Collect one envelope per index regardless of transport shape.
        let mut envelopes: Vec<Option<Value>> = vec![None; n];
        if streamed {
            let lines = stream(&engine, &line);
            prop_assert_eq!(lines.len(), n + 1, "n sub envelopes + terminal");
            for envelope in &lines[..n] {
                let index = envelope
                    .get("stream")
                    .and_then(|t| t.get("index"))
                    .and_then(Value::as_u64)
                    .expect("sub lines carry an index") as usize;
                prop_assert!(envelopes[index].is_none(), "index {} twice", index);
                envelopes[index] = Some(envelope.clone());
            }
        } else {
            let response = call(&engine, &line);
            let results = result(&response)
                .get("results")
                .and_then(Value::as_array)
                .expect("batch results");
            prop_assert_eq!(results.len(), n);
            for (index, envelope) in results.iter().enumerate() {
                envelopes[index] = Some(envelope.clone());
            }
        }

        // Error isolation: erroring subs fail typed, siblings succeed.
        for (index, kind) in kinds.iter().enumerate() {
            let envelope = envelopes[index].as_ref().expect("every index answered");
            match kind {
                SubKind::Erroring => prop_assert_eq!(
                    error_code(envelope),
                    "not_found",
                    "ghost-dataset sub {} fails typed: {}",
                    index,
                    serde_json::to_string(envelope).unwrap()
                ),
                _ => prop_assert_eq!(
                    envelope.get("ok").and_then(Value::as_bool),
                    Some(true),
                    "sub {} ({:?}) must not be poisoned by siblings: {}",
                    index,
                    kind,
                    serde_json::to_string(envelope).unwrap()
                ),
            }
        }

        // Exact pool accounting: inline-eligible subs never touch the
        // pool; everything else is a real submission.
        let pool_class = kinds
            .iter()
            .filter(|k| matches!(k, SubKind::ColdPool | SubKind::Erroring))
            .count() as u64;
        // (`completed` is deliberately not asserted: a worker bumps it
        // only after its response push, which can trail the delivery.)
        let pool = pool_stats(&engine);
        prop_assert_eq!(stat(&pool, "submitted"), pool_class);
        prop_assert_eq!(stat(&pool, "inline_answered"), (n as u64) - pool_class);
    }
}
