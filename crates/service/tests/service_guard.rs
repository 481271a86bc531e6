//! Conformance tests for `srank-guard` — deadlines, admission control,
//! client retry/backoff, and the `health` op.
//!
//! The deadline-conformance tests prove the central guard invariant
//! *via the trace recorder*: a request whose deadline expired before
//! the kernel phase is answered `deadline_exceeded` and its span tree
//! contains **no kernel span** — the expensive work was shed, not
//! merely failed. The backoff property tests drive the pure
//! [`BackoffSchedule`] without sockets or sleeps.

use proptest::prelude::*;
use serde_json::Value;
use srank_service::client::expect_ok;
use srank_service::guard::LoadSignals;
use srank_service::{ClientError, Engine, EngineConfig, RetryPolicy};

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

fn error_code(response: &Value) -> &str {
    assert_eq!(
        response.get("ok").and_then(Value::as_bool),
        Some(false),
        "expected error response, got {}",
        serde_json::to_string(response).unwrap()
    );
    response
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .expect("error responses carry a code")
}

fn load_bluenile(engine: &Engine) {
    // d = 5 forces the Monte-Carlo verify kernel (the phase deadlines
    // guard), with enough samples that the kernel is where time goes.
    result(&call(
        engine,
        r#"{"op": "registry.load", "dataset": "bn", "builtin": "bluenile", "n": 120, "d": 5, "seed": 7}"#,
    ));
}

/// Depth-first: does any span in the tree carry `phase`?
fn tree_has_phase(spans: &[Value], phase: &str) -> bool {
    spans.iter().any(|span| {
        span.get("phase").and_then(Value::as_str) == Some(phase)
            || span
                .get("children")
                .and_then(Value::as_array)
                .is_some_and(|children| tree_has_phase(children, phase))
    })
}

// ---------------------------------------------------------------------
// Deadlines

/// An expired deadline answers `deadline_exceeded` *before* the kernel
/// runs: the request's span tree has no kernel span. (The injected
/// kernel delay sits between the cache miss and the deadline check, so
/// a 1ms budget is guaranteed dead by the time the kernel would start.)
#[test]
fn expired_deadline_never_reaches_the_kernel_phase() {
    let engine = Engine::new(EngineConfig {
        trace_sample: 1,
        faults: Some("kernel_delay_ms=30".into()),
        ..EngineConfig::default()
    });
    load_bluenile(&engine);
    let response = call(
        &engine,
        r#"{"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1], "deadline_ms": 1}"#,
    );
    assert_eq!(error_code(&response), "deadline_exceeded");

    // The guard counted the kernel-stage expiry...
    let stats = call(&engine, r#"{"op": "stats"}"#);
    let guard = result(&stats).get("guard").expect("stats carries guard");
    assert_eq!(
        guard.get("deadline_expired_total").and_then(Value::as_u64),
        Some(1)
    );
    assert_eq!(
        guard
            .get("deadline_expired_in_kernel")
            .and_then(Value::as_u64),
        Some(1)
    );

    // ...and the span tree proves the kernel never ran.
    let traces = call(
        &engine,
        r#"{"op": "trace", "filter_op": "verify", "limit": 4}"#,
    );
    let traces = result(&traces)
        .get("traces")
        .and_then(Value::as_array)
        .expect("traces array");
    assert!(!traces.is_empty(), "the expired request must be traced");
    let spans = traces[0]
        .get("spans")
        .and_then(Value::as_array)
        .expect("trace carries spans");
    assert!(
        tree_has_phase(spans, "cache_probe"),
        "the request got as far as the cache miss: {}",
        serde_json::to_string(&traces[0]).unwrap()
    );
    assert!(
        !tree_has_phase(spans, "kernel"),
        "an expired request must never open a kernel span: {}",
        serde_json::to_string(&traces[0]).unwrap()
    );
}

/// A huge-sample Monte-Carlo verify with a tiny budget is abandoned
/// *between sampling chunks* — no injected fault needed. The chunked
/// oracle re-checks the deadline every `KERNEL_CHUNK` samples, so one
/// giant verify cannot hold a worker past its caller's patience.
#[test]
fn chunked_verify_kernel_abandons_mid_sampling_on_deadline() {
    let engine = Engine::new(EngineConfig::default());
    load_bluenile(&engine);
    let response = call(
        &engine,
        r#"{"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1],
            "samples": 500000, "deadline_ms": 1}"#,
    );
    assert_eq!(error_code(&response), "deadline_exceeded");
    let stats = call(&engine, r#"{"op": "stats"}"#);
    let guard = result(&stats).get("guard").expect("stats carries guard");
    assert_eq!(
        guard
            .get("deadline_expired_in_kernel")
            .and_then(Value::as_u64),
        Some(1),
        "the expiry is attributed to the kernel seam"
    );
    // The abandoned work was not cached: re-running without a deadline
    // computes (and then caches) the full answer.
    let full = call(
        &engine,
        r#"{"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1], "samples": 500000}"#,
    );
    assert_eq!(full.get("cached").and_then(Value::as_bool), Some(false));
    result(&full);
}

/// The batch draw itself checks the deadline every `KERNEL_CHUNK`
/// samples: a 1 ms verify on a 500k-sample batch gives up inside the
/// draw, which caches nothing, so the same verify without a deadline
/// draws the batch again.
#[test]
fn verify_abandons_the_batch_draw_on_deadline() {
    let engine = Engine::new(EngineConfig::default());
    load_bluenile(&engine);
    let verify =
        r#"{"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1], "samples": 500000"#;
    let response = call(&engine, &format!(r#"{verify}, "deadline_ms": 1}}"#));
    assert_eq!(error_code(&response), "deadline_exceeded");
    result(&call(&engine, &format!("{verify}}}")));
    let stats = call(&engine, r#"{"op": "stats"}"#);
    let sample_cache = result(&stats)
        .get("sample_cache")
        .expect("stats carries sample_cache");
    assert_eq!(
        sample_cache.get("misses").and_then(Value::as_u64),
        Some(2),
        "the abandoned draw cached nothing: {sample_cache:?}"
    );
}

/// A batch restored by a warm restart has no grid index yet, so the first
/// verify on it builds one, and that build checks the deadline between
/// `KERNEL_CHUNK`-sample slices of each pass. A 1 ms deadline on the
/// restored batch expires in the kernel although nothing is drawn; the
/// abandoned build keeps nothing, and the same verify without a deadline
/// then answers what the process that drew the batch answered.
#[test]
fn verify_on_a_restored_batch_abandons_the_index_build_on_deadline() {
    let dir = std::env::temp_dir().join(format!("srank-guard-index-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let engine_over_dir = || {
        Engine::new(EngineConfig {
            data_dir: Some(dir.clone()),
            ..EngineConfig::default()
        })
    };
    let verify = |deadline: &str| {
        format!(
            r#"{{"op": "verify", "dataset": "bn", "weights": [1, 2, 1, 2, 1], "samples": 200000{deadline}}}"#
        )
    };
    let expected = {
        let engine = engine_over_dir();
        load_bluenile(&engine);
        result(&call(
            &engine,
            r#"{"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1], "samples": 200000}"#,
        ));
        result(&call(&engine, r#"{"op": "snapshot"}"#));
        // Computed after the snapshot, so the restart must compute it
        // again rather than serve it from the restored result cache.
        result(&call(&engine, &verify(""))).clone()
    };

    let engine = engine_over_dir();
    let response = call(&engine, &verify(r#", "deadline_ms": 1"#));
    assert_eq!(error_code(&response), "deadline_exceeded");
    let stats = call(&engine, r#"{"op": "stats"}"#);
    let stats = result(&stats);
    assert_eq!(
        stats
            .get("guard")
            .and_then(|g| g.get("deadline_expired_in_kernel"))
            .and_then(Value::as_u64),
        Some(1),
        "the expiry is attributed to the kernel seam"
    );
    assert_eq!(
        stats
            .get("sample_cache")
            .and_then(|c| c.get("misses"))
            .and_then(Value::as_u64),
        Some(0),
        "the batch was restored, not drawn: the deadline expired past the draw"
    );
    let full = call(&engine, &verify(""));
    assert_eq!(full.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(result(&full), &expected);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same request without a deadline rides through the injected delay
/// and completes — the fault alone doesn't fail anything.
#[test]
fn kernel_delay_without_deadline_still_completes() {
    let engine = Engine::new(EngineConfig {
        faults: Some("kernel_delay_ms=20".into()),
        ..EngineConfig::default()
    });
    load_bluenile(&engine);
    let response = call(
        &engine,
        r#"{"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1]}"#,
    );
    assert!(
        result(&response).get("stability").is_some(),
        "delayed but undeadlined request completes"
    );
}

/// A generous deadline is not tripped by a fast request, and cache hits
/// are served even with a tiny budget (shedding prefers cold work).
#[test]
fn live_deadlines_do_not_fail_fast_requests() {
    let engine = Engine::new(EngineConfig::default());
    load_bluenile(&engine);
    let warm =
        r#"{"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1], "deadline_ms": 30000}"#;
    result(&call(&engine, warm));
    // Warm now: a cache hit answers instantly regardless of budget.
    let hit = call(
        &engine,
        r#"{"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1], "deadline_ms": 30000}"#,
    );
    assert_eq!(hit.get("cached").and_then(Value::as_bool), Some(true));
}

/// `deadline_ms: 0` is a client error, not "no deadline".
#[test]
fn zero_deadline_is_rejected() {
    let engine = Engine::new(EngineConfig::default());
    let response = call(&engine, r#"{"op": "ping", "deadline_ms": 0}"#);
    assert_eq!(error_code(&response), "bad_request");
}

/// `--default-deadline-ms` applies to requests without their own
/// `deadline_ms` field.
#[test]
fn default_deadline_applies_when_request_carries_none() {
    let engine = Engine::new(EngineConfig {
        faults: Some("kernel_delay_ms=30".into()),
        guard: srank_service::guard::GuardConfig {
            default_deadline_ms: 1,
            ..Default::default()
        },
        ..EngineConfig::default()
    });
    load_bluenile(&engine);
    let response = call(
        &engine,
        r#"{"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1]}"#,
    );
    assert_eq!(error_code(&response), "deadline_exceeded");
}

/// Deadlines ride into batch sub-requests through the pool: a batch
/// with a dead budget sheds every cold sub-request at dequeue or kernel
/// entry, each answered with its own typed envelope.
#[test]
fn batch_sub_requests_inherit_the_batch_deadline() {
    let engine = Engine::new(EngineConfig {
        faults: Some("kernel_delay_ms=30".into()),
        ..EngineConfig::default()
    });
    load_bluenile(&engine);
    let response = call(
        &engine,
        r#"{"op": "batch", "deadline_ms": 1, "requests": [
            {"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1]},
            {"op": "verify", "dataset": "bn", "weights": [2, 1, 1, 1, 1]}]}"#,
    );
    let results = result(&response)
        .get("results")
        .and_then(Value::as_array)
        .expect("batch results");
    assert_eq!(results.len(), 2, "every sub-request answered");
    for envelope in results {
        assert_eq!(
            error_code(envelope),
            "deadline_exceeded",
            "each cold sub-request shed: {}",
            serde_json::to_string(envelope).unwrap()
        );
    }
}

// ---------------------------------------------------------------------
// Admission control + health

/// The health op: `ok` on a fresh engine, `overloaded` right after a
/// shed, with the shed counters attached.
#[test]
fn health_reports_overloaded_after_a_shed() {
    let engine = Engine::new(EngineConfig {
        guard: srank_service::guard::GuardConfig {
            shed_pool_queue: 1,
            ..Default::default()
        },
        ..EngineConfig::default()
    });
    let health = call(&engine, r#"{"op": "health"}"#);
    assert_eq!(
        result(&health).get("status").and_then(Value::as_str),
        Some("ok")
    );
    // Force one shed through the public guard API with synthetic
    // swamped signals (driving a real pool past its queue threshold
    // deterministically would need a timing race).
    let err = engine
        .guard()
        .admit_cold(
            srank_service::Op::Verify,
            LoadSignals {
                pool_queue_depth: 50,
                avg_pool_wait_micros: 2_000,
                session_wait_p99_micros: None,
            },
        )
        .expect_err("over threshold must shed");
    assert_eq!(err.code, srank_service::ErrorCode::Overloaded);
    let health = call(&engine, r#"{"op": "health"}"#);
    let health = result(&health);
    assert_eq!(
        health.get("status").and_then(Value::as_str),
        Some("overloaded")
    );
    assert_eq!(
        health
            .get("shed")
            .and_then(|s| s.get("shed_total"))
            .and_then(Value::as_u64),
        Some(1)
    );
}

/// An `overloaded` envelope carries `retry_after_ms` on the wire, and
/// the client classifies it as `ClientError::Overloaded`.
#[test]
fn overloaded_envelope_round_trips_retry_after() {
    let err = srank_service::ServiceError::overloaded("busy", 120);
    let envelope = srank_service::proto::envelope(None, Err(err));
    assert_eq!(
        envelope
            .get("error")
            .and_then(|e| e.get("retry_after_ms"))
            .and_then(Value::as_u64),
        Some(120)
    );
    match expect_ok(&envelope) {
        Err(ClientError::Overloaded { retry_after_ms, .. }) => {
            assert_eq!(retry_after_ms, Some(120))
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // deadline_exceeded classifies as a timeout.
    let envelope = srank_service::proto::envelope(
        None,
        Err(srank_service::ServiceError::deadline_exceeded("late")),
    );
    assert!(matches!(expect_ok(&envelope), Err(ClientError::Timeout(_))));
}

// ---------------------------------------------------------------------
// Backoff schedule properties

proptest! {
    /// Every delay respects the [base, cap] bounds (absent a server
    /// hint), and the running total never exceeds the budget.
    #[test]
    fn backoff_delays_stay_in_bounds(
        seed in 0u64..1_000_000,
        base_ms in 1u64..100,
        cap_factor in 1u64..50,
        budget_ms in 100u64..60_000,
    ) {
        let cap_ms = base_ms * cap_factor;
        let policy = RetryPolicy {
            max_retries: 1_000,
            base: std::time::Duration::from_millis(base_ms),
            cap: std::time::Duration::from_millis(cap_ms),
            budget: std::time::Duration::from_millis(budget_ms),
            seed,
        };
        let mut schedule = policy.schedule();
        let mut total = 0u64;
        while let Some(delay) = schedule.next_delay_ms(None) {
            prop_assert!(delay >= base_ms, "delay {delay} under base {base_ms}");
            prop_assert!(delay <= cap_ms.max(base_ms), "delay {delay} over cap {cap_ms}");
            total += delay;
            prop_assert!(total <= budget_ms, "total {total} over budget {budget_ms}");
            prop_assert_eq!(total, schedule.slept_ms());
            prop_assert!(total < 1_000_000, "schedule must exhaust its budget");
        }
        // Exhausted: every later ask stays exhausted.
        prop_assert!(schedule.next_delay_ms(None).is_none());
        prop_assert!(budget_ms - total <= cap_ms.max(base_ms),
            "stopped while a max-size delay still fit: slept {total} of {budget_ms}");
    }

    /// A server `retry_after_ms` hint floors the delay — even past the
    /// cap — and still counts against the budget.
    #[test]
    fn backoff_honors_retry_after_hints(
        seed in 0u64..1_000_000,
        hint in 1u64..10_000,
    ) {
        let policy = RetryPolicy { seed, ..RetryPolicy::default() };
        let cap_ms = policy.cap.as_millis() as u64;
        let budget_ms = policy.budget.as_millis() as u64;
        let mut schedule = policy.schedule();
        match schedule.next_delay_ms(Some(hint)) {
            Some(delay) => {
                prop_assert!(delay >= hint, "delay {delay} ignores hint {hint}");
                prop_assert!(delay <= cap_ms.max(hint), "delay {delay} above both cap and hint");
                prop_assert_eq!(schedule.slept_ms(), delay);
            }
            None => prop_assert!(hint > budget_ms,
                "only a hint beyond the whole budget may exhaust immediately"),
        }
    }

    /// The schedule is deterministic in its seed: same policy, same
    /// hints, same delays (what makes chaos runs reproducible).
    #[test]
    fn backoff_is_deterministic_per_seed(seed in 0u64..1_000_000) {
        let policy = RetryPolicy { seed, ..RetryPolicy::default() };
        let mut a = policy.schedule();
        let mut b = policy.schedule();
        for i in 0..32 {
            let hint = if i % 3 == 0 { Some(40) } else { None };
            prop_assert_eq!(a.next_delay_ms(hint), b.next_delay_ms(hint));
        }
    }
}

/// Jitter actually jitters: across seeds, first delays are not all
/// equal (decorrelation is the point of the policy).
#[test]
fn backoff_jitter_varies_across_seeds() {
    let first: std::collections::HashSet<u64> = (0..64)
        .map(|seed| {
            RetryPolicy {
                seed,
                ..RetryPolicy::default()
            }
            .schedule()
            .next_delay_ms(None)
            .expect("budget allows a first delay")
        })
        .collect();
    assert!(
        first.len() > 8,
        "64 seeds produced only {} distinct first delays",
        first.len()
    );
}
