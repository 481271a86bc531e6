//! Conformance and property tests of pool-aware session scheduling and
//! per-connection multiplexing.
//!
//! The acceptance bar for the session dispatch queue: N concurrent
//! clients hammering one session see every request answered exactly
//! once, in per-session FIFO order, with **zero** `session_busy`
//! refusals on the default config — the busy-refusal path used to drop
//! exactly this workload. Sweep-2D sessions make "exactly once" and
//! "in order" mechanically checkable: every `get_next` answers with its
//! region's `region_lo`, which is unique per enumeration step, so the
//! union of all clients' responses must equal (as a multiset) a prefix
//! of a reference enumeration, and mapping each response to its index
//! in that reference recovers the grant order — each client's own
//! indices must be increasing (its requests are sequential, and the
//! dispatch queue is FIFO).
//!
//! The multiplexing bar: two streamed batches interleave on one socket
//! (the fast one finishes while the slow one is still in flight), with
//! plain calls still answered in between — all demultiplexed by the
//! `stream.request` id echo.

use proptest::prelude::*;
use serde_json::Value;
use srank_service::{serve_tcp, Client, Engine, EngineConfig, RequestCtx, StreamEvent};
use std::sync::Arc;

fn obj(s: &str) -> Value {
    serde_json::from_str(s).expect("test request is valid JSON")
}

/// Loads a 2-D synthetic dataset with plenty of distinct rankings and
/// opens one shared sweep2d session; returns the session id.
fn open_shared_session(client: &mut Client, n: usize) -> u64 {
    client
        .call_ok(&obj(&format!(
            r#"{{"op": "registry.load", "dataset": "s", "builtin": "synthetic-independent", "n": {n}, "d": 2, "seed": 3}}"#
        )))
        .expect("load");
    client
        .call_ok(&obj(
            r#"{"op": "session.open", "dataset": "s", "kind": "sweep2d"}"#,
        ))
        .expect("open")
        .get("session")
        .and_then(Value::as_u64)
        .expect("session id")
}

/// One `session.get_next`, returning the step's `region_lo`. Panics on
/// `done: true` (the tests size their workloads well under the
/// enumeration length) and on any error.
fn get_next_region(client: &mut Client, session: u64) -> f64 {
    let next = client
        .call_ok(&obj(&format!(
            r#"{{"op": "session.get_next", "session": {session}}}"#
        )))
        .expect("get_next answered (no lost work, no busy refusal)");
    assert_ne!(
        next.get("done").and_then(Value::as_bool),
        Some(true),
        "enumeration exhausted — test workload sized wrong"
    );
    next.get("region_lo")
        .and_then(Value::as_f64)
        .expect("sweep2d step carries region_lo")
}

/// Drains `count` reference steps from a *fresh* session with identical
/// open parameters (the sweep is deterministic, so this is the ground
/// truth the concurrent runs must match).
fn reference_regions(client: &mut Client, count: usize) -> Vec<f64> {
    let session = client
        .call_ok(&obj(
            r#"{"op": "session.open", "dataset": "s", "kind": "sweep2d"}"#,
        ))
        .expect("open reference")
        .get("session")
        .and_then(Value::as_u64)
        .expect("session id");
    let regions: Vec<f64> = (0..count)
        .map(|_| get_next_region(client, session))
        .collect();
    client
        .call_ok(&obj(&format!(
            r#"{{"op": "session.close", "session": {session}}}"#
        )))
        .expect("close reference");
    regions
}

fn session_stats(client: &mut Client) -> (Value, Value) {
    let stats = client.call_ok(&obj(r#"{"op": "stats"}"#)).expect("stats");
    (
        stats.get("session_table").expect("session_table").clone(),
        stats.get("session_queue").expect("session_queue").clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// THE no-lost-work property: N concurrent TCP clients hammer one
    /// session; every request is answered exactly once (the union of
    /// responses is exactly a prefix of the reference enumeration), each
    /// client sees its own responses in FIFO order, and the default
    /// config refuses nothing.
    #[test]
    fn concurrent_clients_on_one_session_lose_no_work(
        clients in 2usize..5,
        per_client in 5usize..20,
    ) {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let mut server = serve_tcp(Arc::clone(&engine), "127.0.0.1:0", clients + 1).expect("bind");
        let addr = server.addr();
        let mut setup = Client::connect(addr).expect("connect");
        let session = open_shared_session(&mut setup, 60);

        let total = clients * per_client;
        let mut streams: Vec<Vec<f64>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    s.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        (0..per_client)
                            .map(|_| get_next_region(&mut client, session))
                            .collect::<Vec<f64>>()
                    })
                })
                .collect();
            for handle in handles {
                streams.push(handle.join().expect("client thread"));
            }
        });

        // Exactly once, nothing skipped: the union of all clients'
        // responses is exactly the first `total` reference steps (the
        // enumeration is by decreasing stability; region_lo is the
        // step's unique fingerprint, not a monotone quantity).
        let reference = reference_regions(&mut setup, total);
        let mut seen: Vec<f64> = streams.iter().flatten().copied().collect();
        seen.sort_by(f64::total_cmp);
        let mut expected = reference.clone();
        expected.sort_by(f64::total_cmp);
        prop_assert_eq!(seen.len(), total);
        prop_assert_eq!(&seen, &expected, "every request answered exactly once");

        // Per-session FIFO: a client's next request is only sent after
        // its previous response, so its grants are ordered — mapping its
        // responses back to reference enumeration indices must give a
        // strictly increasing sequence.
        let index_of: std::collections::HashMap<u64, usize> = reference
            .iter()
            .enumerate()
            .map(|(i, r)| (r.to_bits(), i))
            .collect();
        for (t, stream) in streams.iter().enumerate() {
            let indices: Vec<usize> = stream
                .iter()
                .map(|r| *index_of.get(&r.to_bits()).expect("step is in the reference"))
                .collect();
            for w in indices.windows(2) {
                prop_assert!(w[0] < w[1], "client {t} saw out-of-order steps {indices:?}");
            }
        }

        // Zero refusals on the default config; contention shows up (if
        // at all) as queued work, not as dropped work.
        let (table, queue) = session_stats(&mut setup);
        prop_assert_eq!(
            table.get("refusals").and_then(Value::as_u64),
            Some(0),
            "no session_busy refusals: {}", serde_json::to_string(&table).unwrap()
        );
        prop_assert_eq!(
            queue.get("queued_total").and_then(Value::as_u64),
            queue.get("granted").and_then(Value::as_u64),
            "every queued request was granted: {}", serde_json::to_string(&queue).unwrap()
        );
        prop_assert_eq!(queue.get("depth").and_then(Value::as_u64), Some(0));

        server.shutdown();
    }
}

#[test]
fn batch_sub_requests_on_one_session_park_and_redispatch() {
    // A buffered batch aiming 16 get_next sub-requests at ONE session:
    // under PR-3 semantics most of them raced into `session_busy` and
    // were dropped; now they park on the session's dispatch queue, the
    // pool re-dispatches them as the checkout returns, and all 16 answer
    // distinct consecutive enumeration steps.
    let engine = Engine::new(EngineConfig {
        pool_workers: 4,
        ..EngineConfig::default()
    });
    let call = |line: &str| -> Value {
        serde_json::from_str(&engine.handle_line(line)).expect("response is JSON")
    };
    call(
        r#"{"op": "registry.load", "dataset": "b", "builtin": "bluenile", "n": 60, "d": 5, "seed": 1}"#,
    );
    // A randomized session: each get_next samples `budget` fresh weight
    // vectors, which (a) takes long enough that the pool's in-flight
    // sub-requests reliably collide on the checkout, and (b) reports a
    // cumulative `samples_used`, so exactly-once execution is the exact
    // set {budget, 2·budget, …, SUBS·budget}.
    const BUDGET: u64 = 5000;
    let opened = call(&format!(
        r#"{{"op": "session.open", "dataset": "b", "kind": "randomized", "scope": "full", "budget": {BUDGET}}}"#
    ));
    let session = opened
        .get("result")
        .and_then(|r| r.get("session"))
        .and_then(Value::as_u64)
        .expect("session id");

    const SUBS: usize = 16;
    let subs: Vec<String> = (0..SUBS)
        .map(|i| format!(r#"{{"id": {i}, "op": "session.get_next", "session": {session}}}"#))
        .collect();
    let response = call(&format!(
        r#"{{"op": "batch", "requests": [{}]}}"#,
        subs.join(", ")
    ));
    let results = response
        .get("result")
        .and_then(|r| r.get("results"))
        .and_then(Value::as_array)
        .expect("batch results");
    assert_eq!(results.len(), SUBS);
    let mut samples_used: Vec<u64> = results
        .iter()
        .map(|envelope| {
            assert_eq!(
                envelope.get("ok").and_then(Value::as_bool),
                Some(true),
                "no sub-request may be refused: {}",
                serde_json::to_string(envelope).unwrap()
            );
            envelope
                .get("result")
                .and_then(|r| r.get("samples_used"))
                .and_then(Value::as_u64)
                .expect("samples_used")
        })
        .collect();
    samples_used.sort_unstable();
    let expected: Vec<u64> = (1..=SUBS as u64).map(|k| k * BUDGET).collect();
    assert_eq!(
        samples_used, expected,
        "each sub-request advanced the session exactly once, serialized through the queue"
    );

    let stats = call(r#"{"op": "stats"}"#);
    let table = stats
        .get("result")
        .and_then(|r| r.get("session_table"))
        .expect("session_table");
    assert_eq!(
        table.get("refusals").and_then(Value::as_u64),
        Some(0),
        "parking replaced every busy refusal"
    );
    // With 4 workers racing one session, at least some sub-requests must
    // actually have parked (the first holds the session while the other
    // in-flight ones arrive).
    let queue = stats
        .get("result")
        .and_then(|r| r.get("session_queue"))
        .expect("session_queue");
    assert!(
        queue.get("queued_total").and_then(Value::as_u64) >= Some(1),
        "expected observable parking: {}",
        serde_json::to_string(queue).unwrap()
    );
}

#[test]
fn queued_request_survives_an_idle_eviction_sweep() {
    // Regression (idle-eviction vs queued-sub-request race): a session
    // with pending queued work must not be evicted out from under its
    // queue, even by an aggressive TTL-zero sweep running mid-handoff,
    // nor by the reaps of `session.open` at capacity and of `stats`.
    let engine = Arc::new(Engine::new(EngineConfig {
        max_sessions: 1,
        ..EngineConfig::default()
    }));
    let call = |line: &str| -> Value {
        serde_json::from_str(&engine.handle_line(line)).expect("response is JSON")
    };
    call(
        r#"{"op": "registry.load", "dataset": "b", "builtin": "bluenile", "n": 60, "d": 5, "seed": 1}"#,
    );
    // A randomized session whose get_next is deliberately slow (large
    // budget), so the queued second request reliably parks behind it.
    let opened = call(
        r#"{"op": "session.open", "dataset": "b", "kind": "randomized", "scope": "full", "budget": 400000}"#,
    );
    let session = opened
        .get("result")
        .and_then(|r| r.get("session"))
        .and_then(Value::as_u64)
        .expect("session id");

    std::thread::scope(|s| {
        let slow = s.spawn(|| {
            call(&format!(
                r#"{{"op": "session.get_next", "session": {session}}}"#
            ))
        });
        std::thread::sleep(std::time::Duration::from_millis(100));
        let queued = s.spawn(|| {
            call(&format!(
                r#"{{"op": "session.get_next", "session": {session}, "budget": 1000}}"#
            ))
        });
        std::thread::sleep(std::time::Duration::from_millis(100));
        // The sweep runs while the first request holds the session and
        // the second is (in all but pathological schedules) queued on it.
        assert_eq!(
            engine.evict_idle_sessions(Some(std::time::Duration::ZERO)),
            0,
            "a session with in-flight + queued work is not evictable"
        );
        let refused = call(r#"{"op": "session.open", "dataset": "b", "kind": "randomized"}"#);
        assert_eq!(
            refused
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str),
            Some("session_limit"),
            "the reap at capacity keeps the busy session: {refused:?}"
        );
        let stats = call(r#"{"op": "stats"}"#);
        let table = stats
            .get("result")
            .and_then(|r| r.get("session_table"))
            .expect("session_table");
        assert_eq!(table.get("open").and_then(Value::as_u64), Some(1));
        assert_eq!(table.get("checked_out").and_then(Value::as_u64), Some(1));
        for handle in [slow, queued] {
            let response = handle.join().expect("request thread");
            assert_eq!(
                response.get("ok").and_then(Value::as_bool),
                Some(true),
                "queued request must survive the sweep: {}",
                serde_json::to_string(&response).unwrap()
            );
        }
    });
}

#[test]
fn multiplexed_streams_interleave_on_one_socket() {
    // Two streamed batches in flight on ONE connection: the fast one
    // must finish while the slow one is still streaming, and a plain
    // call issued between pulls is answered correctly (its response is
    // routed around the buffered stream envelopes).
    let engine = Arc::new(Engine::new(EngineConfig {
        pool_workers: 4,
        ..EngineConfig::default()
    }));
    let mut server = serve_tcp(Arc::clone(&engine), "127.0.0.1:0", 2).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .call_ok(&obj(
            r#"{"op": "registry.load", "dataset": "b", "builtin": "bluenile", "n": 60, "d": 5, "seed": 1}"#,
        ))
        .expect("load");

    let slow = client
        .stream_begin(&obj(
            r#"{"id": "slow", "op": "batch", "stream": true, "requests": [
                {"id": "s0", "op": "verify", "dataset": "b", "weights": [1, 1, 1, 1, 1], "samples": 150000}
            ]}"#,
        ))
        .expect("begin slow");
    let fast = client
        .stream_begin(&obj(
            r#"{"id": "fast", "op": "batch", "stream": true, "requests": [
                {"id": "f0", "op": "ping"}, {"id": "f1", "op": "ping"}, {"id": "f2", "op": "ping"}
            ]}"#,
        ))
        .expect("begin fast");
    assert_eq!(client.streams_in_flight(), 2);

    // A plain call while two streams are in flight: demuxed correctly.
    let pong = client
        .call_ok(&obj(r#"{"op": "ping"}"#))
        .expect("plain call between streams");
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));

    // Drain the FAST stream to completion first: its envelopes must all
    // arrive while the slow verify is still in flight.
    let mut fast_envelopes = 0;
    loop {
        match client.stream_next(fast).expect("fast stream") {
            StreamEvent::Envelope(envelope) => {
                assert!(envelope
                    .get("id")
                    .and_then(Value::as_str)
                    .unwrap()
                    .starts_with('f'));
                fast_envelopes += 1;
            }
            StreamEvent::Done(terminal) => {
                assert_eq!(
                    terminal
                        .get("result")
                        .and_then(|r| r.get("count"))
                        .and_then(Value::as_u64),
                    Some(3)
                );
                break;
            }
        }
    }
    assert_eq!(fast_envelopes, 3);
    assert_eq!(
        client.streams_in_flight(),
        1,
        "the fast batch finished while the slow one is still streaming"
    );

    // Now the slow stream completes too — nothing was lost to the
    // interleaving.
    let mut slow_envelopes = 0;
    while let StreamEvent::Envelope(envelope) = client.stream_next(slow).expect("slow stream") {
        assert_eq!(envelope.get("id").and_then(Value::as_str), Some("s0"));
        assert_eq!(envelope.get("ok").and_then(Value::as_bool), Some(true));
        slow_envelopes += 1;
    }
    assert_eq!(slow_envelopes, 1);
    assert_eq!(client.streams_in_flight(), 0);

    server.shutdown();
}

#[test]
fn plain_call_refuses_an_id_colliding_with_an_in_flight_stream() {
    // A call() whose id equals an in-flight stream's key would be
    // indistinguishable from that stream's terminal line; the client
    // must refuse it up front instead of hanging on a swallowed
    // response.
    let engine = Arc::new(Engine::with_defaults());
    let mut server = serve_tcp(Arc::clone(&engine), "127.0.0.1:0", 2).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .call_ok(&obj(
            r#"{"op": "registry.load", "dataset": "b", "builtin": "bluenile", "n": 60, "d": 5, "seed": 1}"#,
        ))
        .expect("load");
    let stream = client
        .stream_begin(&obj(
            r#"{"id": "x", "op": "batch", "stream": true, "requests": [
                {"op": "verify", "dataset": "b", "weights": [1, 1, 1, 1, 1], "samples": 100000}
            ]}"#,
        ))
        .expect("begin");
    let err = client
        .call(&obj(r#"{"id": "x", "op": "ping"}"#))
        .expect_err("colliding id refused");
    assert!(err.to_string().contains("collides"), "{err}");
    // A non-colliding call still works, and the stream still completes.
    let pong = client
        .call_ok(&obj(r#"{"id": "y", "op": "ping"}"#))
        .expect("distinct id fine");
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
    let mut events = 0;
    while let StreamEvent::Envelope(_) = client.stream_next(stream).expect("stream") {
        events += 1;
    }
    assert_eq!(events, 1);
    server.shutdown();
}

#[test]
fn stream_tags_echo_the_outer_request_id() {
    // Every line of a streamed batch carries the outer id in its
    // `stream.request` tag — the demultiplexing contract.
    let engine = Engine::with_defaults();
    let line = r#"{"id": "outer-7", "op": "batch", "stream": true, "requests": [{"op": "ping"}, {"op": "ping"}]}"#;
    let mut lines: Vec<Value> = Vec::new();
    engine
        .handle_line_streamed(
            line,
            &mut |payload| {
                for l in payload.split('\n') {
                    lines.push(serde_json::from_str(l).expect("line is JSON"));
                }
                Ok(())
            },
            RequestCtx::default(),
        )
        .unwrap();
    assert_eq!(lines.len(), 3, "two envelopes + terminal");
    for line in &lines {
        let tag = line.get("stream").expect("tagged");
        assert_eq!(
            tag.get("request").and_then(Value::as_str),
            Some("outer-7"),
            "stream.request echoes the outer id on every line"
        );
    }
}

#[test]
fn client_surfaces_connection_closed_and_fails_fast() {
    // A server that dies mid-response used to surface as a raw JSON
    // parse error and leave the client desynced; now it must be a clear
    // "connection closed" error, and the next call must fail fast.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        use std::io::{Read, Write};
        let (mut socket, _) = listener.accept().expect("accept");
        let mut buffer = [0u8; 1024];
        let _ = socket.read(&mut buffer); // the request line
                                          // A truncated response line, then EOF (server death mid-write).
        socket.write_all(br#"{"ok": tr"#).expect("write");
    });
    let mut client = Client::connect(addr).expect("connect");
    let err = client.call(&obj(r#"{"op": "ping"}"#)).expect_err("died");
    assert!(
        matches!(err, srank_service::ClientError::Transport(_)),
        "clear transport error, not a parse error: {err}"
    );
    let again = client.call(&obj(r#"{"op": "ping"}"#)).expect_err("dead");
    assert!(
        matches!(&again, srank_service::ClientError::Transport(why)
            if why.contains("connection closed")),
        "later calls fail fast on the dead connection: {again}"
    );
    server.join().unwrap();
}

#[test]
fn client_demuxes_by_request_echo_and_handles_eof_mid_stream() {
    // A hand-rolled server answers one tagged envelope for the client's
    // auto-injected stream id ("mux-0"), then dies. The client must
    // deliver that envelope, then surface "connection closed" (not a
    // parse error) on the next pull, and fail fast afterwards.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        use std::io::{Read, Write};
        let (mut socket, _) = listener.accept().expect("accept");
        let mut buffer = [0u8; 4096];
        let _ = socket.read(&mut buffer);
        socket
            .write_all(
                br#"{"id": 0, "ok": true, "cached": false, "result": {"pong": true}, "stream": {"batch_id": 1, "request": "mux-0", "index": 0, "last": false}}
"#,
            )
            .expect("write");
    });
    let mut client = Client::connect(addr).expect("connect");
    let stream = client
        .stream_begin(&obj(
            r#"{"op": "batch", "stream": true, "requests": [{"id": 0, "op": "ping"}, {"id": 1, "op": "ping"}]}"#,
        ))
        .expect("begin");
    match client.stream_next(stream).expect("first envelope") {
        StreamEvent::Envelope(envelope) => {
            assert_eq!(envelope.get("id").and_then(Value::as_u64), Some(0));
        }
        StreamEvent::Done(t) => panic!("not terminal: {}", serde_json::to_string(&t).unwrap()),
    }
    let err = client.stream_next(stream).expect_err("server died");
    assert!(
        matches!(err, srank_service::ClientError::Transport(_)),
        "EOF mid-stream is a transport error: {err}"
    );
    let fast = client.call(&obj(r#"{"op": "ping"}"#)).expect_err("dead");
    assert!(
        matches!(&fast, srank_service::ClientError::Transport(why)
            if why.contains("connection closed")),
        "{fast}"
    );
    server.join().unwrap();
}

/// The heavyweight variant for `scripts/check.sh` (stress section): many
/// clients × direct get_nexts AND multiplexed streamed batches whose
/// sub-requests all target the SAME session, on a deliberately tiny
/// 2-worker pool with a cap-1 response queue. Invariants: the test
/// finishes (no deadlock between parked sub-requests, the response
/// queue, and the mux threads), every enumeration step is answered
/// exactly once, zero busy refusals, pool quiescent at the end.
#[test]
#[ignore = "heavy; run via scripts/check.sh stress section"]
fn stress_shared_session_hammered_through_queue_and_mux() {
    let engine = Arc::new(Engine::new(EngineConfig {
        pool_workers: 2,
        stream_queue_cap: std::num::NonZeroUsize::new(1),
        ..EngineConfig::default()
    }));
    const CLIENTS: usize = 6;
    const DIRECT: usize = 10;
    const BATCHES: usize = 2;
    const SUBS: usize = 5;
    let mut server = serve_tcp(Arc::clone(&engine), "127.0.0.1:0", CLIENTS + 1).expect("bind");
    let addr = server.addr();
    let mut setup = Client::connect(addr).expect("connect");
    let session = open_shared_session(&mut setup, 80);

    let mut all: Vec<f64> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut mine: Vec<f64> = Vec::new();
                    // Direct sequential get_nexts (FIFO-ordered per client)...
                    for _ in 0..DIRECT {
                        mine.push(get_next_region(&mut client, session));
                    }
                    // ...then two multiplexed streamed batches of get_next
                    // sub-requests, all on the same shared session.
                    let subs: Vec<String> = (0..SUBS)
                        .map(|i| {
                            format!(
                                r#"{{"id": {i}, "op": "session.get_next", "session": {session}}}"#
                            )
                        })
                        .collect();
                    let batch = format!(
                        r#"{{"op": "batch", "stream": true, "requests": [{}]}}"#,
                        subs.join(", ")
                    );
                    let streams: Vec<_> = (0..BATCHES)
                        .map(|_| client.stream_begin(&obj(&batch)).expect("begin"))
                        .collect();
                    let mut open = streams.len();
                    while open > 0 {
                        match client.stream_next_any().expect("pump").1 {
                            StreamEvent::Envelope(envelope) => {
                                assert_eq!(
                                    envelope.get("ok").and_then(Value::as_bool),
                                    Some(true),
                                    "no sub-request refused: {}",
                                    serde_json::to_string(&envelope).unwrap()
                                );
                                mine.push(
                                    envelope
                                        .get("result")
                                        .and_then(|r| r.get("region_lo"))
                                        .and_then(Value::as_f64)
                                        .expect("region_lo"),
                                );
                            }
                            StreamEvent::Done(_) => open -= 1,
                        }
                    }
                    mine
                })
            })
            .collect();
        for handle in handles {
            all.extend(handle.join().expect("client thread"));
        }
    });

    let total = CLIENTS * (DIRECT + BATCHES * SUBS);
    all.sort_by(f64::total_cmp);
    let mut reference = reference_regions(&mut setup, total);
    reference.sort_by(f64::total_cmp);
    assert_eq!(all.len(), total);
    assert_eq!(all, reference, "every request answered exactly once");

    let (table, queue) = session_stats(&mut setup);
    assert_eq!(
        table.get("refusals").and_then(Value::as_u64),
        Some(0),
        "{}",
        serde_json::to_string(&table).unwrap()
    );
    assert_eq!(
        queue.get("queued_total").and_then(Value::as_u64),
        queue.get("granted").and_then(Value::as_u64)
    );
    let stats = setup.call_ok(&obj(r#"{"op": "stats"}"#)).expect("stats");
    let pool = stats.get("pool").expect("pool");
    assert_eq!(
        pool.get("submitted").and_then(Value::as_u64),
        pool.get("completed").and_then(Value::as_u64),
        "pool quiescent: {}",
        serde_json::to_string(pool).unwrap()
    );
    assert_eq!(pool.get("executing").and_then(Value::as_u64), Some(0));

    server.shutdown();
}
