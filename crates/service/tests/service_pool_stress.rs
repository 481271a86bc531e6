//! Stress tests of the persistent pool + streaming pipeline: many
//! concurrent clients fanning M-sub batches onto a deliberately tiny
//! (2-worker) pool. The invariants: no deadlock (the test finishes), the
//! bounded response queue actually blocks (backpressure observable via
//! `stats`), every envelope arrives exactly once, and the worker count
//! stays constant.
//!
//! The `stress_` variant is heavier and `#[ignore]`d by default; it runs
//! under `scripts/check.sh --stress` behind a timeout guard so a
//! regression that wedges the pipeline fails fast instead of hanging CI.

use serde_json::Value;
use srank_service::{serve_tcp, Client, Engine, EngineConfig, RequestCtx};
use std::sync::Arc;

fn obj(s: &str) -> Value {
    serde_json::from_str(s).expect("test request is valid JSON")
}

/// A 2-worker engine with a cap-1 response queue — the most
/// contention-prone configuration that can still make progress.
fn tiny_pool_engine() -> Arc<Engine> {
    Arc::new(Engine::new(EngineConfig {
        pool_workers: 2,
        stream_queue_cap: std::num::NonZeroUsize::new(1),
        ..EngineConfig::default()
    }))
}

/// Runs `clients` threads × `rounds` streamed batches of `subs`
/// sub-requests each over TCP, checking completeness per batch; plus one
/// in-process slow-sink streamer on the same engine to force observable
/// backpressure. Returns the final `stats.pool` section.
fn hammer(engine: &Arc<Engine>, clients: usize, rounds: usize, subs: usize) -> Value {
    let mut server = serve_tcp(Arc::clone(engine), "127.0.0.1:0", clients.max(2)).expect("bind");
    let addr = server.addr();

    let mut setup = Client::connect(addr).expect("connect");
    setup
        .call_ok(&obj(
            r#"{"op": "registry.load", "dataset": "h", "builtin": "figure1"}"#,
        ))
        .expect("load");

    // Sub-request mix: cacheable verifies, pings, and one guaranteed
    // error per batch (errors must not poison siblings under load).
    let batch_line = |round: usize| {
        let subs: Vec<String> = (0..subs)
            .map(|i| match i % 3 {
                0 => format!(
                    r#"{{"id": {i}, "op": "verify", "dataset": "h", "weights": [1, {}]}}"#,
                    1 + (round + i) % 5
                ),
                1 => format!(r#"{{"id": {i}, "op": "ping"}}"#),
                _ if i == 2 => format!(
                    r#"{{"id": {i}, "op": "verify", "dataset": "ghost", "weights": [1, 1]}}"#
                ),
                _ => format!(r#"{{"id": {i}, "op": "stats"}}"#),
            })
            .collect();
        format!(
            r#"{{"op": "batch", "stream": true, "requests": [{}]}}"#,
            subs.join(", ")
        )
    };

    std::thread::scope(|s| {
        // TCP clients: full streamed batches, indexes checked complete.
        for t in 0..clients {
            let batch_line = &batch_line;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..rounds {
                    let request = obj(&batch_line(round + t));
                    let mut seen = vec![false; subs];
                    let terminal = client
                        .call_streamed(&request, |envelope| {
                            let index = envelope
                                .get("stream")
                                .and_then(|s| s.get("index"))
                                .and_then(Value::as_u64)
                                .expect("streamed envelope carries an index")
                                as usize;
                            assert!(!seen[index], "client {t}: index {index} twice");
                            seen[index] = true;
                        })
                        .expect("stream completes");
                    assert!(
                        seen.iter().all(|&s| s),
                        "client {t} round {round}: envelopes missing"
                    );
                    let result = terminal.get("result").expect("terminal summary");
                    assert_eq!(
                        result.get("count").and_then(Value::as_u64),
                        Some(subs as u64)
                    );
                    assert!(result.get("errors").and_then(Value::as_u64) >= Some(1));
                }
            });
        }
        // One in-process streamer with a deliberately slow sink: with a
        // cap-1 response queue the workers must block pushing — the
        // backpressure the stats assertion below observes.
        s.spawn(|| {
            let engine = Arc::clone(engine);
            for round in 0..rounds {
                let mut emitted = 0usize;
                engine
                    .handle_line_streamed(
                        &batch_line(round),
                        &mut |payload| {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                            // One sink call may carry a coalesced burst of
                            // newline-joined envelope lines — count lines,
                            // not calls.
                            emitted += payload.split('\n').count();
                            Ok(())
                        },
                        RequestCtx::default(),
                    )
                    .expect("in-memory sink never fails");
                assert_eq!(emitted, subs + 1, "subs + terminal");
            }
        });
    });

    let stats = setup.call_ok(&obj(r#"{"op": "stats"}"#)).expect("stats");
    server.shutdown();
    stats.get("pool").expect("pool stats").clone()
}

#[test]
fn two_worker_pool_survives_concurrent_streamed_batches() {
    let engine = tiny_pool_engine();
    let pool = hammer(&engine, 4, 4, 12);
    assert_eq!(
        pool.get("threads_spawned").and_then(Value::as_u64),
        Some(2),
        "a 2-worker pool must never grow under load"
    );
    assert!(
        pool.get("backpressure_waits").and_then(Value::as_u64) > Some(0),
        "the cap-1 response queue must have blocked a worker: {}",
        serde_json::to_string(&pool).unwrap()
    );
    // Quiescent at the end: everything submitted was completed.
    assert_eq!(
        pool.get("submitted").and_then(Value::as_u64),
        pool.get("completed").and_then(Value::as_u64)
    );
    assert_eq!(pool.get("queue_depth").and_then(Value::as_u64), Some(0));
    assert_eq!(pool.get("executing").and_then(Value::as_u64), Some(0));
}

/// The heavyweight variant for `scripts/check.sh --stress`: more
/// clients, rounds, and maximal (64-sub) batches. Ignored by default —
/// it takes tens of seconds in debug builds.
#[test]
#[ignore = "heavy; run via scripts/check.sh --stress"]
fn stress_heavy_streaming_pipeline_on_a_two_worker_pool() {
    let engine = tiny_pool_engine();
    let pool = hammer(&engine, 8, 8, 64);
    assert_eq!(pool.get("threads_spawned").and_then(Value::as_u64), Some(2));
    assert_eq!(
        pool.get("submitted").and_then(Value::as_u64),
        pool.get("completed").and_then(Value::as_u64)
    );
    assert!(pool.get("backpressure_waits").and_then(Value::as_u64) > Some(0));
}
