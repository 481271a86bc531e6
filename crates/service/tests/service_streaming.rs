//! Conformance and property tests of the streaming batch pipeline (wire
//! protocol v2): streamed envelopes are a permutation of the buffered
//! response, `last` fires exactly once with complete indexes, per-sub
//! errors stay isolated, the first envelope lands before the last
//! sub-request finishes, and the persistent pool never spawns threads in
//! steady state.

use proptest::prelude::*;
use serde_json::Value;
use srank_service::{Engine, EngineConfig, RequestCtx};

fn engine() -> Engine {
    Engine::new(EngineConfig::default())
}

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

/// Runs one request line through the streaming entry point, collecting
/// every emitted line in order. One sink call may carry a coalesced
/// burst of newline-joined envelope lines — split before parsing, as a
/// real line transport would.
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

/// Streamed sub lines (tagged, `last: false`) and the single terminal.
fn split_stream(lines: &[Value]) -> (Vec<&Value>, &Value) {
    let (mut subs, mut terminal) = (Vec::new(), None);
    for line in lines {
        let tag = line.get("stream").expect("streamed lines carry a tag");
        if tag.get("last").and_then(Value::as_bool) == Some(true) {
            assert!(terminal.is_none(), "'last' fired more than once");
            terminal = Some(line);
        } else {
            subs.push(line);
        }
    }
    (subs, terminal.expect("'last' must fire exactly once"))
}

/// An envelope with the volatile fields (`cached`, `stream`) removed, so
/// streamed and buffered runs compare on content.
fn canonical(envelope: &Value) -> Value {
    let Value::Object(fields) = envelope else {
        panic!("envelopes are objects")
    };
    Value::Object(
        fields
            .iter()
            .filter(|(k, _)| k != "cached" && k != "stream")
            .cloned()
            .collect(),
    )
}

fn load_figure1(e: &Engine) {
    call(
        e,
        r#"{"op": "registry.load", "dataset": "h", "builtin": "figure1"}"#,
    );
}

fn pool_stats(e: &Engine) -> Value {
    result(&call(e, r#"{"op": "stats"}"#))
        .get("pool")
        .expect("stats carries a pool section")
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary batch shapes, the streamed lines are a permutation
    /// of the buffered response: same envelope per index, every index
    /// present exactly once, one terminal.
    #[test]
    fn streamed_envelopes_are_a_permutation_of_the_buffered_response(
        n_subs in 1usize..12,
        seed in 0u64..1000,
    ) {
        let e = engine();
        load_figure1(&e);
        // A mix of cacheable verifies (weights vary with the seed), pings,
        // and deliberate failures, so the permutation covers every
        // envelope kind.
        let subs: Vec<String> = (0..n_subs)
            .map(|i| match (seed as usize + i) % 3 {
                0 => format!(
                    r#"{{"id": {i}, "op": "verify", "dataset": "h", "weights": [1, {}]}}"#,
                    1 + (seed as usize + i) % 5
                ),
                1 => format!(r#"{{"id": {i}, "op": "ping"}}"#),
                _ => format!(r#"{{"id": {i}, "op": "verify", "dataset": "ghost", "weights": [1, 1]}}"#),
            })
            .collect();
        let requests = subs.join(", ");
        let buffered = call(&e, &format!(r#"{{"op": "batch", "requests": [{requests}]}}"#));
        let expected = result(&buffered).get("results").unwrap().as_array().unwrap();

        let lines = stream(&e, &format!(r#"{{"op": "batch", "stream": true, "requests": [{requests}]}}"#));
        let (streamed, terminal) = split_stream(&lines);
        prop_assert_eq!(streamed.len(), n_subs);

        let mut seen = vec![false; n_subs];
        for line in streamed {
            let index = line.get("stream").unwrap().get("index").unwrap().as_u64().unwrap() as usize;
            prop_assert!(!seen[index], "index {} emitted twice", index);
            seen[index] = true;
            prop_assert_eq!(canonical(line), canonical(&expected[index]));
        }
        prop_assert!(seen.iter().all(|&s| s), "indexes must be complete");
        let count = result(terminal).get("count").unwrap().as_u64().unwrap();
        prop_assert_eq!(count as usize, n_subs);
    }
}

#[test]
fn last_fires_exactly_once_even_for_empty_and_single_batches() {
    let e = engine();
    load_figure1(&e);
    for requests in ["", r#"{"op": "ping"}"#] {
        let lines = stream(
            &e,
            &format!(
                r#"{{"id": "outer", "op": "batch", "stream": true, "requests": [{requests}]}}"#
            ),
        );
        let (subs, terminal) = split_stream(&lines);
        assert_eq!(subs.len(), usize::from(!requests.is_empty()));
        // The terminal line echoes the outer id and the batch size.
        assert_eq!(terminal.get("id").unwrap().as_str(), Some("outer"));
        assert_eq!(
            result(terminal).get("count").unwrap().as_u64(),
            Some(subs.len() as u64)
        );
        assert!(
            terminal.get("stream").unwrap().get("index").is_none(),
            "terminal carries no index"
        );
    }
}

#[test]
fn per_sub_errors_do_not_poison_siblings_when_streaming() {
    let e = engine();
    load_figure1(&e);
    let lines = stream(
        &e,
        r#"{"op": "batch", "stream": true, "requests": [
            {"id": "good", "op": "verify", "dataset": "h", "weights": [1, 1]},
            {"id": "missing", "op": "verify", "dataset": "nope", "weights": [1, 1]},
            {"id": "nested", "op": "batch", "requests": []},
            {"id": "alsogood", "op": "ping"}
        ]}"#,
    );
    let (subs, terminal) = split_stream(&lines);
    assert_eq!(subs.len(), 4);
    let by_id = |id: &str| {
        subs.iter()
            .find(|s| s.get("id").and_then(Value::as_str) == Some(id))
            .unwrap_or_else(|| panic!("envelope '{id}' missing"))
    };
    assert_eq!(by_id("good").get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(by_id("alsogood").get("ok").unwrap().as_bool(), Some(true));
    let code = |v: &Value| {
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            .map(str::to_string)
    };
    assert_eq!(code(by_id("missing")).as_deref(), Some("not_found"));
    assert_eq!(
        code(by_id("nested")).as_deref(),
        Some("bad_request"),
        "nested batches stay refused under streaming"
    );
    assert_eq!(result(terminal).get("errors").unwrap().as_u64(), Some(2));
}

#[test]
fn batch_shape_errors_answer_with_one_untagged_envelope() {
    let e = engine();
    let lines = stream(
        &e,
        r#"{"id": 3, "op": "batch", "stream": true, "requests": 7}"#,
    );
    assert_eq!(lines.len(), 1);
    assert_eq!(lines[0].get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(lines[0].get("id").unwrap().as_u64(), Some(3));
    assert!(
        lines[0].get("stream").is_none(),
        "shape errors are untagged"
    );
}

#[test]
fn stream_false_keeps_the_buffered_in_order_contract() {
    let e = engine();
    load_figure1(&e);
    let lines = stream(
        &e,
        r#"{"op": "batch", "stream": false, "requests": [
            {"id": 0, "op": "ping"}, {"id": 1, "op": "ping"}, {"id": 2, "op": "ping"}
        ]}"#,
    );
    assert_eq!(lines.len(), 1, "stream:false answers with one line");
    let results = result(&lines[0])
        .get("results")
        .unwrap()
        .as_array()
        .unwrap();
    for (i, sub) in results.iter().enumerate() {
        assert_eq!(sub.get("id").unwrap().as_u64(), Some(i as u64), "in order");
        assert!(sub.get("stream").is_none());
    }
}

#[test]
fn streaming_through_the_single_response_api_is_refused() {
    // `Engine::handle` / `handle_line` answer exactly one envelope; a
    // streaming batch there must fail loudly instead of silently
    // buffering.
    let e = engine();
    let response = call(
        &e,
        r#"{"op": "batch", "stream": true, "requests": [{"op": "ping"}]}"#,
    );
    assert_eq!(response.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(
        response.get("error").unwrap().get("code").unwrap().as_str(),
        Some("bad_request")
    );
}

#[test]
fn first_envelope_arrives_before_the_last_sub_request_finishes() {
    // Acceptance: one deliberately slow Monte-Carlo sub-request among
    // fast pings. Under the old buffered-only pipeline nothing would be
    // delivered until the slow verify finished; streaming must emit the
    // ping envelopes while it is still running.
    let e = Engine::new(EngineConfig {
        pool_workers: 4,
        ..EngineConfig::default()
    });
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "b", "builtin": "bluenile", "n": 60, "d": 5, "seed": 1}"#,
    );
    let lines = stream(
        &e,
        r#"{"op": "batch", "stream": true, "requests": [
            {"id": "slow", "op": "verify", "dataset": "b", "weights": [1, 1, 1, 1, 1], "samples": 120000},
            {"id": "p1", "op": "ping"}, {"id": "p2", "op": "ping"}, {"id": "p3", "op": "ping"},
            {"id": "p4", "op": "ping"}, {"id": "p5", "op": "ping"}, {"id": "p6", "op": "ping"}
        ]}"#,
    );
    let (subs, _) = split_stream(&lines);
    assert_eq!(subs.len(), 7);
    let slow_position = subs
        .iter()
        .position(|s| s.get("id").and_then(Value::as_str) == Some("slow"))
        .expect("slow envelope must arrive");
    assert!(
        slow_position > 0,
        "a ping envelope must be delivered before the slow sub-request finishes \
         (slow arrived at position {slow_position})"
    );
    assert_eq!(subs[0].get("ok").unwrap().as_bool(), Some(true));
}

#[test]
fn worker_thread_count_is_constant_across_100_batches() {
    // Regression for the PR 2 scoped fan-out: every batch op used to
    // spawn its workers. The persistent pool spawns once at Engine::new;
    // steady-state batch traffic must report zero additional spawns.
    let e = engine();
    load_figure1(&e);
    let before = pool_stats(&e);
    let spawned_before = before.get("threads_spawned").unwrap().as_u64().unwrap();
    let workers = before.get("workers").unwrap().as_u64().unwrap();
    assert_eq!(
        spawned_before, workers,
        "pool spawns exactly once, at startup"
    );

    for i in 0..100 {
        let line = format!(
            r#"{{"op": "batch", "requests": [
                {{"op": "ping"}},
                {{"op": "verify", "dataset": "h", "weights": [1, {}]}},
                {{"op": "ping"}}, {{"op": "ping"}}
            ]}}"#,
            1 + i % 7
        );
        // Alternate buffered and streamed traffic; both ride the pool.
        if i % 2 == 0 {
            result(&call(&e, &line));
        } else {
            let streamed = line.replacen(
                "\"op\": \"batch\"",
                "\"op\": \"batch\", \"stream\": true",
                1,
            );
            let lines = stream(&e, &streamed);
            let (subs, _) = split_stream(&lines);
            assert_eq!(subs.len(), 4);
        }
    }

    let after = pool_stats(&e);
    assert_eq!(
        after.get("threads_spawned").unwrap().as_u64().unwrap(),
        spawned_before,
        "zero thread spawns during steady-state batch traffic"
    );
    assert_eq!(after.get("executing").unwrap().as_u64(), Some(0));
    assert_eq!(after.get("queue_depth").unwrap().as_u64(), Some(0));
    assert_eq!(
        after.get("submitted").unwrap().as_u64().unwrap(),
        after.get("completed").unwrap().as_u64().unwrap(),
    );
    // Every sub in this mix is inline-eligible: pings classify on the op
    // name, the 2-D verifies are exact on a tiny dataset (cache hits
    // after the first run of each of the 7 weight vectors, cheap-inline
    // before). Nothing rides the pool at all.
    let submitted = after.get("submitted").unwrap().as_u64().unwrap();
    assert_eq!(
        submitted, 0,
        "inline-classified subs must bypass the pool entirely"
    );
    assert_eq!(
        after.get("inline_answered").unwrap().as_u64(),
        Some(400),
        "all 400 subs answered on the submitter thread"
    );
    assert_eq!(after.get("batches_buffered").unwrap().as_u64(), Some(50));
    assert_eq!(after.get("batches_streamed").unwrap().as_u64(), Some(50));
}

#[test]
fn stats_reports_per_op_latency_histograms() {
    let e = Engine::new(EngineConfig {
        trace_sample: 1,
        ..EngineConfig::default()
    });
    load_figure1(&e);
    let verify = r#"{"op": "verify", "dataset": "h", "weights": [1, 1]}"#;
    result(&call(&e, verify));
    // The batch's verify is a result-cache hit, answered inline on the
    // submitter thread — and counted like every other request.
    result(&call(
        &e,
        &format!(
            r#"{{"op": "batch", "requests": [{{"op": "ping"}}, {{"op": "ping"}}, {verify}]}}"#
        ),
    ));
    let stats = call(&e, r#"{"op": "stats"}"#);
    let ops = result(&stats).get("ops").unwrap();
    let count = |op: &str| {
        ops.get(op)
            .unwrap_or_else(|| panic!("op '{op}' missing from histograms"))
            .get("count")
            .unwrap()
            .as_u64()
            .unwrap()
    };
    assert_eq!(count("verify"), 2, "the inline cache hit is recorded");
    assert_eq!(count("batch"), 1);
    assert_eq!(count("ping"), 2, "sub-requests are recorded per-op too");
    assert!(count("registry.load") >= 1);
    // The inline hit runs under a `dispatch` span of its own, which holds
    // its cache probe.
    let str_of = |span: &Value, key: &str| span.get(key).and_then(Value::as_str).map(String::from);
    let children = |span: &Value| {
        span.get("children")
            .and_then(Value::as_array)
            .map(<[Value]>::to_vec)
    };
    let traced = call(&e, r#"{"op": "trace", "filter_op": "batch", "limit": 1}"#);
    let traces = result(&traced)
        .get("traces")
        .and_then(Value::as_array)
        .unwrap();
    let root = traces[0].get("spans").and_then(Value::as_array).unwrap()[0].clone();
    assert_eq!(str_of(&root, "phase").as_deref(), Some("request"));
    let sub = children(&root)
        .unwrap()
        .into_iter()
        .find(|s| {
            str_of(s, "phase").as_deref() == Some("sub_request")
                && str_of(s, "op").as_deref() == Some("verify")
        })
        .expect("the verify sub-request's span");
    let dispatch = children(&sub)
        .unwrap()
        .into_iter()
        .find(|s| str_of(s, "phase").as_deref() == Some("dispatch"))
        .expect("the inline hit's dispatch span");
    assert_eq!(str_of(&dispatch, "op").as_deref(), Some("verify"));
    let probe = &children(&dispatch).expect("the dispatch span has children")[0];
    assert_eq!(str_of(probe, "phase").as_deref(), Some("cache_probe"));
    assert_eq!(str_of(probe, "detail").as_deref(), Some("hit g1 inline"));
    let verify = ops.get("verify").unwrap();
    assert!(
        !verify
            .get("buckets")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty(),
        "histogram carries at least one non-empty bucket"
    );
}

#[test]
fn bounded_response_queue_backpressures_workers_observably() {
    // A 3-worker pool with a cap-1 response queue and a latched consumer:
    // workers finish `stats` subs (pool-riding — pings would be answered
    // inline nowadays) while the sink holds, so pushes must block —
    // visible in stats — while every envelope still arrives exactly once.
    //
    // The batch keeps at most `pool width` jobs in flight and counts a
    // response delivered before handing it to the sink, so while the sink
    // runs at most `width - 1` completions are pending. Width 3 leaves
    // two: one fills the cap-1 queue, the other must block on it. The
    // sink therefore holds each call until a worker has blocked, or until
    // no job is queued or running (fewer than two were pending), instead
    // of sleeping and hoping two completions race its wake-up.
    let e = Engine::new(EngineConfig {
        pool_workers: 3,
        stream_queue_cap: std::num::NonZeroUsize::new(1),
        ..EngineConfig::default()
    });
    let subs: Vec<String> = (0..16)
        .map(|i| format!(r#"{{"id": {i}, "op": "stats"}}"#))
        .collect();
    let line = format!(
        r#"{{"op": "batch", "stream": true, "requests": [{}]}}"#,
        subs.join(", ")
    );
    let counter = |pool: &Value, name: &str| pool.get(name).unwrap().as_u64().unwrap();
    let mut lines = Vec::new();
    e.handle_line_streamed(
        &line,
        &mut |payload| {
            let give_up = std::time::Instant::now() + std::time::Duration::from_secs(30);
            loop {
                let pool = pool_stats(&e);
                let blocked = counter(&pool, "backpressure_waits") > 0;
                let idle = counter(&pool, "executing") == 0 && counter(&pool, "queue_depth") == 0;
                if blocked || idle || std::time::Instant::now() > give_up {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            for l in payload.split('\n') {
                lines.push(serde_json::from_str(l).expect("line is JSON"));
            }
            Ok(())
        },
        RequestCtx::default(),
    )
    .unwrap();
    let (emitted, _) = split_stream(&lines);
    assert_eq!(emitted.len(), 16, "backpressure must not drop envelopes");
    let pool = pool_stats(&e);
    assert!(
        pool.get("backpressure_waits").unwrap().as_u64().unwrap() > 0,
        "the bounded queue must have blocked a worker at least once: {}",
        serde_json::to_string(&pool).unwrap()
    );
}

#[test]
fn a_wedged_stream_consumer_cannot_starve_other_batches() {
    // Regression: the in-flight window slot must be released only after
    // a job's response push lands. With the old order (slot freed before
    // the potentially-blocking push), a client that stopped reading
    // mid-stream let the submitter keep topping up the work queue until
    // every pool worker sat blocked on that one batch's full response
    // queue — and every other connection's batch hung forever.
    let engine = std::sync::Arc::new(Engine::new(EngineConfig {
        pool_workers: 2,
        stream_queue_cap: std::num::NonZeroUsize::new(1),
        ..EngineConfig::default()
    }));
    let (unblock_tx, unblock_rx) = std::sync::mpsc::channel::<()>();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<usize>();

    // Thread A: a streamed batch whose sink wedges after the first
    // envelope until the main thread releases it.
    let wedged = {
        let engine = std::sync::Arc::clone(&engine);
        std::thread::spawn(move || {
            // `stats` subs ride the pool (pings would be answered inline
            // on the submitter thread and never wedge a worker).
            let subs: Vec<String> = (0..12)
                .map(|i| format!(r#"{{"id": {i}, "op": "stats"}}"#))
                .collect();
            let line = format!(
                r#"{{"op": "batch", "stream": true, "requests": [{}]}}"#,
                subs.join(", ")
            );
            let mut emitted = 0usize;
            let mut released = false;
            engine
                .handle_line_streamed(
                    &line,
                    &mut |payload| {
                        emitted += payload.split('\n').count();
                        if !released {
                            unblock_rx.recv().expect("main releases the sink");
                            released = true;
                        }
                        Ok(())
                    },
                    RequestCtx::default(),
                )
                .unwrap();
            done_tx.send(emitted).unwrap();
        })
    };

    // Give A time to wedge with its window full.
    std::thread::sleep(std::time::Duration::from_millis(50));

    // Another client's buffered batch must still complete: the wedged
    // batch may hold at most its own window, never the whole pool.
    let other = {
        let engine = std::sync::Arc::clone(&engine);
        std::thread::spawn(move || {
            call(
                &engine,
                r#"{"op": "batch", "requests": [{"op": "stats"}, {"op": "stats"}, {"op": "stats"}]}"#,
            )
        })
    };
    // Watchdog join: a hang here is the starvation regression.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !other.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "buffered batch starved behind a wedged stream consumer"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let response = other.join().unwrap();
    assert_eq!(
        result(&response).get("count").unwrap().as_u64(),
        Some(3),
        "sibling batch completed while the stream was wedged"
    );

    // Release the wedged sink; its stream must finish completely.
    unblock_tx.send(()).unwrap();
    assert_eq!(
        done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("wedged stream finishes once released"),
        12 + 1,
        "all envelopes plus the terminal line"
    );
    wedged.join().unwrap();
}

#[test]
fn plain_client_call_on_a_streaming_request_fails_without_desyncing() {
    // Regression: `Client::call` used to read exactly one line, so a
    // `"stream": true` batch sent through it returned an arbitrary
    // sub-envelope and left the remaining lines buffered — shifting
    // every later response on the connection.
    let engine = std::sync::Arc::new(Engine::new(EngineConfig::default()));
    let mut server =
        srank_service::serve_tcp(std::sync::Arc::clone(&engine), "127.0.0.1:0", 2).expect("bind");
    let mut client = srank_service::Client::connect(server.addr()).expect("connect");

    let streaming: Value = serde_json::from_str(
        r#"{"op": "batch", "stream": true, "requests": [{"op": "ping"}, {"op": "ping"}, {"op": "ping"}]}"#,
    )
    .unwrap();
    let err = client
        .call(&streaming)
        .expect_err("plain call must refuse a streamed response");
    assert!(
        err.to_string().contains("call_streamed"),
        "error should point at the streaming API: {err}"
    );

    // The connection is still aligned: the next plain call answers
    // its own response, not a leftover streamed line.
    let pong = client
        .call_ok(&serde_json::from_str(r#"{"op": "ping"}"#).unwrap())
        .expect("connection stays usable");
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));

    server.shutdown();
}
