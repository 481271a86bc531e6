//! Chaos suite for `srank-guard`: fault injection (`SRANK_FAULTS`)
//! against the store, the transport, and the kernel, proving the
//! resilience invariants end to end —
//!
//! * **nothing is lost**: state snapshotted through injected store
//!   failures survives a restart bit-for-bit once a snapshot succeeds;
//! * **every accepted request is answered exactly once**: streamed
//!   batches under kernel faults emit one envelope per sub-request,
//!   each `ok` or a typed `deadline_exceeded` — never silence, never a
//!   duplicate;
//! * **nothing is double-executed**: a fault-delayed enumeration yields
//!   the same candidate sequence as an unfaulted twin, and a dropped
//!   connection severs *before* dispatch, so a retried idempotent read
//!   never re-runs accepted work;
//! * **failures are observable**: injected faults show up in
//!   `stats.store` / `stats.faults` and in the `health` op.
//!
//! Every fault set here is seeded, so the "random" failures are a
//! fixed, reproducible sequence — a chaos test that flakes is a bug.

use serde_json::Value;
use srank_service::{serve_tcp, Client, Engine, EngineConfig, RequestCtx, RetryPolicy};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

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

/// A per-test temp data dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("srank-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        Self(dir)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn load_bluenile(engine: &Engine) {
    result(&call(
        engine,
        r#"{"op": "registry.load", "dataset": "bn", "builtin": "bluenile", "n": 120, "d": 5, "seed": 7}"#,
    ));
}

// ---------------------------------------------------------------------
// Store faults: retried persistence loses nothing

/// Snapshots fail (injected write errors), are retried until one lands,
/// and a restart over the same dir then serves the warm answer — the
/// failures were surfaced in `stats.store`, and no work was lost. The
/// fault seam fires *before* any bytes hit disk (and real writes are
/// tmp+rename), so a failed attempt can never corrupt a later one.
#[test]
fn store_write_faults_are_retried_until_nothing_is_lost() {
    let dir = TempDir::new("write-faults");
    let verify = r#"{"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1]}"#;
    let cold_answer;
    {
        let engine = Engine::new(EngineConfig {
            data_dir: Some(dir.path().clone()),
            faults: Some("store_write=0.6,seed=11".into()),
            ..EngineConfig::default()
        });
        load_bluenile(&engine);
        cold_answer = result(&call(&engine, verify)).clone();

        // Retry the snapshot until the injected failures let one through
        // — exactly what the journal's backoff loop does, collapsed in
        // time. Seeded faults make the attempt count reproducible.
        let mut attempts = 0;
        loop {
            attempts += 1;
            assert!(
                attempts <= 500,
                "seeded fault sequence must let a snapshot through"
            );
            let response = call(&engine, r#"{"op": "snapshot"}"#);
            if response.get("ok").and_then(Value::as_bool) == Some(true) {
                break;
            }
        }

        // The failures were counted and described, not swallowed.
        let stats = call(&engine, r#"{"op": "stats"}"#);
        let store = result(&stats).get("store").expect("stats carries store");
        let failures = store
            .get("write_failures")
            .and_then(Value::as_u64)
            .expect("store stats carry write_failures");
        assert!(failures > 0, "seed 11 at rate 0.6 must inject failures");
        let last_error = store
            .get("last_error")
            .and_then(Value::as_str)
            .expect("failures leave a last_error");
        assert!(
            last_error.contains("injected fault"),
            "last_error names the cause: {last_error}"
        );
        let faults = result(&stats).get("faults").expect("stats carries faults");
        assert_eq!(
            faults.get("store_write_injected").and_then(Value::as_u64),
            Some(failures),
            "every injected store failure is attributed to the fault point"
        );
    }

    // Restart without faults: the successful snapshot restored whole.
    let engine = Engine::new(EngineConfig {
        data_dir: Some(dir.path().clone()),
        ..EngineConfig::default()
    });
    let response = call(&engine, verify);
    assert_eq!(
        response.get("cached").and_then(Value::as_bool),
        Some(true),
        "the retried snapshot preserved the warm cache"
    );
    assert_eq!(
        result(&response),
        &cold_answer,
        "restored answer is byte-identical to the pre-fault one"
    );
}

/// Injected *read* errors at restore time degrade, never panic: the
/// engine comes up cold but fully functional, and recomputes the same
/// answer the lost cache held.
#[test]
fn store_read_faults_degrade_to_a_cold_start() {
    let dir = TempDir::new("read-faults");
    let verify = r#"{"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1]}"#;
    let warm_answer;
    {
        let engine = Engine::new(EngineConfig {
            data_dir: Some(dir.path().clone()),
            ..EngineConfig::default()
        });
        load_bluenile(&engine);
        warm_answer = result(&call(&engine, verify)).clone();
        result(&call(&engine, r#"{"op": "snapshot"}"#));
    }

    let engine = Engine::new(EngineConfig {
        data_dir: Some(dir.path().clone()),
        faults: Some("store_read=1.0,seed=5".into()),
        ..EngineConfig::default()
    });
    // Restore read nothing; the dataset must be re-loaded…
    load_bluenile(&engine);
    let response = call(&engine, verify);
    assert_eq!(
        response.get("cached").and_then(Value::as_bool),
        Some(false),
        "unreadable snapshots mean a cold start, not a crash"
    );
    // …and the recomputed answer matches what the snapshot held.
    assert_eq!(result(&response), &warm_answer);
}

// ---------------------------------------------------------------------
// Transport faults: severed connections, retrying clients

/// Several clients hammer a server that randomly severs connections
/// (and stalls flushes). Every idempotent read eventually succeeds via
/// `call_retry`'s reconnect path, and the drops are visible in the
/// `health` op. The server injects the drop *before* dispatch, so a
/// dropped request was never executed — retrying cannot double-run it.
#[test]
fn dropped_connections_are_survived_by_retrying_clients() {
    let engine = Arc::new(Engine::new(EngineConfig {
        faults: Some("drop_connection=0.3,slow_flush=0.2,seed=3".into()),
        ..EngineConfig::default()
    }));
    let mut server = serve_tcp(Arc::clone(&engine), "127.0.0.1:0", 4).expect("bind");
    let addr = server.addr();

    let clients = 4;
    let calls_per_client = 20;
    std::thread::scope(|scope| {
        for worker in 0..clients {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let policy = RetryPolicy {
                    max_retries: 12,
                    base: Duration::from_millis(2),
                    cap: Duration::from_millis(20),
                    budget: Duration::from_secs(10),
                    seed: 0xC4A0 + worker as u64,
                };
                for i in 0..calls_per_client {
                    let request: Value =
                        serde_json::from_str(r#"{"op": "ping"}"#).expect("request");
                    let result = client
                        .call_retry(&request, &policy)
                        .unwrap_or_else(|e| panic!("client {worker} call {i} failed: {e}"));
                    assert_eq!(result.get("pong").and_then(Value::as_bool), Some(true));
                }
            });
        }
    });

    let health = call(&engine, r#"{"op": "health"}"#);
    let faults = result(&health)
        .get("faults")
        .expect("health carries faults");
    assert_eq!(faults.get("armed").and_then(Value::as_bool), Some(true));
    let dropped = faults
        .get("connections_dropped")
        .and_then(Value::as_u64)
        .expect("health counts dropped connections");
    assert!(
        dropped > 0,
        "seed 3 at rate 0.3 over {} requests must sever some connections",
        clients * calls_per_client
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// Exactly-once accounting under kernel faults

/// Streamed batches under an injected kernel delay: the batch with a
/// dead deadline sheds every cold sub-request with a *typed* error, the
/// batch without one completes, and each emits exactly one envelope per
/// sub-request plus one terminal — every accepted request answered
/// exactly once, every shed request reported, none lost.
#[test]
fn streamed_batches_account_for_every_sub_request_exactly_once() {
    let engine = Engine::new(EngineConfig {
        faults: Some("kernel_delay_ms=25".into()),
        ..EngineConfig::default()
    });
    load_bluenile(&engine);

    let stream = |line: &str| {
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
    };
    let batch = |deadline: &str| {
        format!(
            r#"{{"op": "batch", "stream": true{deadline}, "requests": [
                {{"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1]}},
                {{"op": "verify", "dataset": "bn", "weights": [2, 1, 1, 1, 1]}},
                {{"op": "verify", "dataset": "bn", "weights": [1, 2, 1, 1, 1]}},
                {{"op": "verify", "dataset": "bn", "weights": [1, 1, 2, 1, 1]}}]}}"#
        )
    };

    for (deadline, expect_shed) in [(r#", "deadline_ms": 1"#, true), ("", false)] {
        let lines = stream(&batch(deadline));
        let mut indexes = Vec::new();
        let mut terminals = 0;
        for line in &lines {
            let tag = line.get("stream").expect("streamed lines carry a tag");
            if tag.get("last").and_then(Value::as_bool) == Some(true) {
                terminals += 1;
                continue;
            }
            indexes.push(
                tag.get("index")
                    .and_then(Value::as_u64)
                    .expect("sub envelopes carry their index"),
            );
            let ok = line.get("ok").and_then(Value::as_bool).expect("envelope");
            if expect_shed {
                assert!(!ok, "a dead batch deadline sheds every cold sub-request");
                let code = line
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Value::as_str);
                assert_eq!(code, Some("deadline_exceeded"), "sheds are typed, not lost");
            } else {
                assert!(ok, "no deadline: the kernel delay alone fails nothing");
            }
        }
        assert_eq!(terminals, 1, "exactly one terminal per stream");
        indexes.sort_unstable();
        assert_eq!(
            indexes,
            vec![0, 1, 2, 3],
            "each sub-request answered exactly once — no loss, no duplicates"
        );
    }

    // The shed requests were counted, not silently dropped.
    let stats = call(&engine, r#"{"op": "stats"}"#);
    let guard = result(&stats).get("guard").expect("stats carries guard");
    assert_eq!(
        guard.get("deadline_expired_total").and_then(Value::as_u64),
        Some(4),
        "every shed sub-request is accounted in guard stats"
    );
}

// ---------------------------------------------------------------------
// No double execution: faulted and unfaulted twins agree

/// A kernel-delayed engine enumerates the *same* candidate sequence as
/// an unfaulted twin: the fault seam adds latency, never a re-draw or a
/// skipped step. (A double-executed `session.get_next` would burn an
/// extra Monte-Carlo draw and desynchronize the sequences immediately.)
#[test]
fn kernel_faults_never_double_execute_enumeration() {
    let sequence = |faults: Option<&str>| {
        let engine = Engine::new(EngineConfig {
            faults: faults.map(String::from),
            ..EngineConfig::default()
        });
        load_bluenile(&engine);
        let open = result(&call(
            &engine,
            r#"{"op": "session.open", "dataset": "bn", "kind": "randomized", "scope": "top-k-set", "k": 5, "seed": 77, "budget": 400}"#,
        ))
        .clone();
        let id = open
            .get("session")
            .and_then(Value::as_u64)
            .expect("session id");
        (0..5)
            .map(|_| {
                result(&call(
                    &engine,
                    &format!(r#"{{"op": "session.get_next", "session": {id}}}"#),
                ))
                .clone()
            })
            .collect::<Vec<_>>()
    };

    let faulted = sequence(Some("kernel_delay_ms=2"));
    let clean = sequence(None);
    assert_eq!(
        serde_json::to_string(&Value::Array(faulted)).unwrap(),
        serde_json::to_string(&Value::Array(clean)).unwrap(),
        "injected delays must not change, repeat, or skip any enumeration step"
    );
}

// ---------------------------------------------------------------------
// Client backoff: retry_after_ms hints vs the sleep budget

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The backoff schedule never hands out more total sleep than its
    /// budget, never revives after exhaustion, and always honors the
    /// server's `retry_after_ms` hint as a floor — for any seed, any
    /// budget, and any hint sequence. (Raw hints at or above 30_000
    /// encode `None` — a server response without a hint.)
    #[test]
    fn backoff_schedule_never_oversleeps_its_budget(
        seed in 0u64..u64::MAX,
        budget_ms in 1u64..5_000,
        raw_hints in prop::collection::vec(0u64..40_000, 1..20),
    ) {
        let hints = raw_hints
            .iter()
            .map(|&h| (h < 30_000).then_some(h));
        let policy = RetryPolicy {
            seed,
            budget: Duration::from_millis(budget_ms),
            ..RetryPolicy::default()
        };
        let mut schedule = policy.schedule();
        let mut total = 0u64;
        let mut dead = false;
        for hint in hints {
            match schedule.next_delay_ms(hint) {
                Some(delay) => {
                    prop_assert!(!dead, "schedule revived after exhaustion");
                    if let Some(h) = hint {
                        prop_assert!(delay >= h, "hint {} must floor delay {}", h, delay);
                    }
                    total += delay;
                    prop_assert!(
                        total <= budget_ms,
                        "total sleep {} exceeds the {}ms budget",
                        total,
                        budget_ms
                    );
                }
                None => dead = true,
            }
        }
        prop_assert_eq!(schedule.slept_ms(), total);
    }

    /// A server hint larger than the remaining budget exhausts the
    /// schedule immediately — the client must not sleep a partial
    /// (too-short) delay and retry into a server that asked for more
    /// patience than the client has left.
    #[test]
    fn an_unaffordable_retry_hint_exhausts_the_schedule_immediately(
        seed in 0u64..u64::MAX,
        budget_ms in 1u64..10_000,
    ) {
        let policy = RetryPolicy {
            seed,
            budget: Duration::from_millis(budget_ms),
            ..RetryPolicy::default()
        };
        let mut schedule = policy.schedule();
        prop_assert_eq!(schedule.next_delay_ms(Some(budget_ms + 1)), None);
        // Exhaustion is sticky: even affordable follow-up hints stay dead.
        prop_assert_eq!(schedule.next_delay_ms(Some(1)), None);
        prop_assert_eq!(schedule.next_delay_ms(None), None);
        prop_assert_eq!(schedule.slept_ms(), 0);
    }
}
