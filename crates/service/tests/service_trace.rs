//! Conformance tests for the request-lifecycle tracing layer
//! (`srank-trace`): a streamed multiplexed batch yields one complete
//! span subtree per sub-request with correct parent links, queue-wait
//! spans are provably nonzero when a cap-1 pool serializes sub-requests,
//! and the `trace` op's output stays well-formed under
//! proptest-generated concurrent load.

use proptest::prelude::*;
use serde_json::Value;
use srank_service::{Engine, EngineConfig, RequestCtx};

fn traced_config() -> EngineConfig {
    EngineConfig {
        trace_sample: 1,
        ..EngineConfig::default()
    }
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
/// every emitted line.
fn stream(engine: &Engine, line: &str) -> Vec<Value> {
    let mut lines = Vec::new();
    engine
        .handle_line_streamed(
            line,
            &mut |payload| {
                // One sink call may carry several newline-joined envelope
                // lines (flush coalescing) — split before parsing.
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

fn load_bluenile(engine: &Engine) {
    // d = 5 forces the Monte-Carlo verify kernel (exact kernels cover
    // d <= 3), so kernel spans carry sample counts and take real time.
    result(&call(
        engine,
        r#"{"op": "registry.load", "dataset": "bn", "builtin": "bluenile", "n": 120, "d": 5, "seed": 7}"#,
    ));
}

/// Queries the engine's trace recorder for recent `batch` root traces.
fn batch_traces(engine: &Engine, limit: usize) -> Vec<Value> {
    let response = call(
        engine,
        &format!(r#"{{"op": "trace", "filter_op": "batch", "limit": {limit}}}"#),
    );
    result(&response)
        .get("traces")
        .and_then(Value::as_array)
        .expect("trace result carries a traces array")
        .to_vec()
}

/// Depth-first collection of every span in a tree matching `phase`.
fn spans_with_phase<'a>(spans: &'a [Value], phase: &str, out: &mut Vec<&'a Value>) {
    for span in spans {
        if span.get("phase").and_then(Value::as_str) == Some(phase) {
            out.push(span);
        }
        if let Some(children) = span.get("children").and_then(Value::as_array) {
            spans_with_phase(children, phase, out);
        }
    }
}

fn find_phase<'a>(trace_or_span_list: &'a [Value], phase: &str) -> Vec<&'a Value> {
    let mut out = Vec::new();
    spans_with_phase(trace_or_span_list, phase, &mut out);
    out
}

fn children_of(span: &Value) -> &[Value] {
    span.get("children")
        .and_then(Value::as_array)
        .unwrap_or(&[])
}

/// One streamed batch produces one trace whose root owns exactly one
/// complete `sub_request` subtree per sub-request, with the lifecycle
/// phases (pool queue wait, dispatch, kernel, serialize) correctly
/// parented *inside* their sub-request's subtree — the attribution the
/// `trace` op exists to answer.
#[test]
fn streamed_batch_yields_one_span_subtree_per_sub_request() {
    let engine = Engine::new(traced_config());
    load_bluenile(&engine);
    let batch = r#"{"op": "batch", "stream": true, "requests": [
        {"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1], "samples": 4000},
        {"op": "verify", "dataset": "bn", "weights": [2, 1, 1, 1, 1], "samples": 4000},
        {"op": "verify", "dataset": "bn", "weights": [1, 2, 1, 1, 1], "samples": 4000}]}"#;
    let lines = stream(&engine, &batch.replace('\n', " "));
    assert_eq!(lines.len(), 4, "3 sub envelopes + 1 terminal");

    let traces = batch_traces(&engine, 4);
    assert!(!traces.is_empty(), "the streamed batch must be traced");
    let trace = &traces[0]; // most recently finished first
    assert_eq!(trace.get("op").and_then(Value::as_str), Some("batch"));
    let top = trace
        .get("spans")
        .and_then(Value::as_array)
        .expect("trace carries spans");
    let roots = find_phase(top, "request");
    assert_eq!(roots.len(), 1, "exactly one root request span");
    let root = roots[0];
    assert_eq!(root.get("op").and_then(Value::as_str), Some("batch"));

    // One sub_request subtree per sub-request, all parented on the root.
    let subs: Vec<&Value> = children_of(root)
        .iter()
        .filter(|s| s.get("phase").and_then(Value::as_str) == Some("sub_request"))
        .collect();
    assert_eq!(subs.len(), 3, "one sub_request span per sub-request");
    for sub in &subs {
        assert_eq!(
            sub.get("op").and_then(Value::as_str),
            Some("verify"),
            "sub_request spans carry the sub-request's op"
        );
        let kids = children_of(sub);
        let phase_of = |s: &Value| s.get("phase").and_then(Value::as_str).map(str::to_string);
        let kid_phases: Vec<String> = kids.iter().filter_map(phase_of).collect();
        assert!(
            kid_phases.iter().any(|p| p == "pool_queue"),
            "sub-request must attribute its pool queue wait, got {kid_phases:?}"
        );
        assert!(
            kid_phases.iter().any(|p| p == "dispatch"),
            "sub-request must contain its dispatch span, got {kid_phases:?}"
        );
        assert!(
            kid_phases.iter().any(|p| p == "serialize"),
            "streamed sub-response serialization must nest in its sub-request, got {kid_phases:?}"
        );
        // The kernel span lives under dispatch (cache miss → compute).
        let kernels = find_phase(kids, "kernel");
        assert_eq!(kernels.len(), 1, "each sub-request ran one kernel");
        assert!(
            kernels[0]
                .get("samples")
                .and_then(Value::as_u64)
                .unwrap_or(0)
                > 0,
            "Monte-Carlo kernels report their sample count"
        );
        let probes = find_phase(kids, "cache_probe");
        assert_eq!(probes.len(), 1, "each sub-request probed the cache");
        assert!(
            probes[0]
                .get("detail")
                .and_then(Value::as_str)
                .is_some_and(|d| d.starts_with("miss")),
            "first run must be a cache miss"
        );
    }
}

/// Two multiplexed streamed batches produce two *separate* complete
/// trees — sub-request spans never leak into the other batch's trace.
#[test]
fn multiplexed_streams_keep_their_span_trees_apart() {
    let engine = std::sync::Arc::new(Engine::new(traced_config()));
    load_bluenile(&engine);
    let mut handle = srank_service::serve_tcp(std::sync::Arc::clone(&engine), "127.0.0.1:0", 2)
        .expect("bind test server");
    let mut client = srank_service::Client::connect(handle.addr()).expect("connect");

    let batch = |subs: &[&str]| -> Value {
        serde_json::from_str(&format!(
            r#"{{"op": "batch", "stream": true, "requests": [{}]}}"#,
            subs.join(", ")
        ))
        .unwrap()
    };
    let a = client
        .stream_begin(&batch(&[
            r#"{"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1], "samples": 3000}"#,
            r#"{"op": "verify", "dataset": "bn", "weights": [3, 1, 1, 1, 1], "samples": 3000}"#,
        ]))
        .expect("begin stream a");
    let b = client
        .stream_begin(&batch(&[
            r#"{"op": "verify", "dataset": "bn", "weights": [1, 3, 1, 1, 1], "samples": 3000}"#,
            r#"{"op": "verify", "dataset": "bn", "weights": [1, 1, 3, 1, 1], "samples": 3000}"#,
            r#"{"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 3, 1], "samples": 3000}"#,
        ]))
        .expect("begin stream b");
    for id in [a, b] {
        while let srank_service::StreamEvent::Envelope(_) =
            client.stream_next(id).expect("stream event")
        {}
    }

    // A trace becomes queryable only once its root span closes — which
    // happens *after* the terminal line is flushed to this client (the
    // root covers serialization and flush). Poll briefly for both trees.
    let mut sub_counts: Vec<usize> = Vec::new();
    for _ in 0..100 {
        let trace_result = client.trace(Some("batch"), 0, None, 8).expect("trace op");
        let traces = trace_result
            .get("traces")
            .and_then(Value::as_array)
            .expect("traces array")
            .to_vec();
        sub_counts = traces
            .iter()
            .map(|t| {
                let top = t.get("spans").and_then(Value::as_array).unwrap();
                find_phase(top, "sub_request").len()
            })
            .collect();
        sub_counts.sort_unstable();
        if sub_counts == vec![2, 3] {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(
        sub_counts,
        vec![2, 3],
        "each mux stream keeps its own complete tree (2-sub and 3-sub)"
    );
    handle.shutdown();
}

/// On a 1-worker pool, sub-requests behind the first provably wait in
/// the pool queue — and the trace attributes that wait: at least one
/// `pool_queue` span records a nonzero duration.
#[test]
fn queue_wait_spans_are_nonzero_on_a_cap_1_engine() {
    let engine = Engine::new(EngineConfig {
        trace_sample: 1,
        pool_workers: 1,
        ..EngineConfig::default()
    });
    load_bluenile(&engine);
    // Heavy Monte-Carlo kernels: the single worker holds the queue long
    // enough that later sub-requests accumulate measurable wait.
    let batch = r#"{"op": "batch", "stream": true, "requests": [
        {"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1], "samples": 60000},
        {"op": "verify", "dataset": "bn", "weights": [5, 1, 1, 1, 1], "samples": 60000},
        {"op": "verify", "dataset": "bn", "weights": [1, 5, 1, 1, 1], "samples": 60000},
        {"op": "verify", "dataset": "bn", "weights": [1, 1, 5, 1, 1], "samples": 60000}]}"#;
    stream(&engine, &batch.replace('\n', " "));

    let traces = batch_traces(&engine, 2);
    assert!(!traces.is_empty());
    let top = traces[0].get("spans").and_then(Value::as_array).unwrap();
    let waits = find_phase(top, "pool_queue");
    assert_eq!(waits.len(), 4, "every sub-request records its queue wait");
    let max_wait = waits
        .iter()
        .filter_map(|w| w.get("micros").and_then(Value::as_u64))
        .max()
        .unwrap_or(0);
    assert!(
        max_wait > 0,
        "with one worker, some sub-request must have waited a nonzero time in the pool queue"
    );
    // The same waits show up in the always-on phase histograms, read
    // from the same intervals as the spans.
    let stats = call(&engine, r#"{"op": "stats"}"#);
    let phases = result(&stats).get("phases").expect("stats carries phases");
    let queue_wait = |key: &str| {
        phases
            .get("queue_wait")
            .and_then(|p| p.get("verify"))
            .and_then(|o| o.get(key))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    assert_eq!(queue_wait("count"), 4, "phase histogram counted every wait");
    let span_micros: u64 = waits
        .iter()
        .filter_map(|w| w.get("micros").and_then(Value::as_u64))
        .sum();
    assert_eq!(
        queue_wait("total_micros"),
        span_micros,
        "the histogram and the spans time the same waits"
    );
}

/// Recursively checks one rendered span for structural well-formedness.
fn assert_span_well_formed(span: &Value) {
    assert!(
        span.get("span")
            .and_then(Value::as_u64)
            .is_some_and(|s| s > 0),
        "span id present and nonzero: {span:?}"
    );
    assert!(
        span.get("phase").and_then(Value::as_str).is_some(),
        "span phase present: {span:?}"
    );
    assert!(
        span.get("micros").and_then(Value::as_u64).is_some(),
        "span duration present: {span:?}"
    );
    for child in children_of(span) {
        assert_span_well_formed(child);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Hammering one traced engine from several threads (verify work,
    /// stats, and trace queries racing the recorder) never yields a
    /// malformed `trace` response: every returned tree has exactly one
    /// root, structurally complete spans, and respects the limit.
    #[test]
    fn trace_op_output_is_stable_under_concurrent_load(
        threads in 2usize..5,
        requests_per_thread in 2usize..6,
        limit in 1usize..6,
    ) {
        let engine = std::sync::Arc::new(Engine::new(traced_config()));
        load_bluenile(&engine);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let engine = std::sync::Arc::clone(&engine);
                scope.spawn(move || {
                    for i in 0..requests_per_thread {
                        let w = 1 + ((t * 7 + i) % 5) as u64;
                        call(&engine, &format!(
                            r#"{{"op": "verify", "dataset": "bn", "weights": [{w}, 1, 1, 1, 1], "samples": 2000}}"#
                        ));
                        call(&engine, r#"{"op": "stats"}"#);
                        call(&engine, r#"{"op": "trace", "limit": 3}"#);
                    }
                });
            }
        });
        let response = call(&engine, &format!(r#"{{"op": "trace", "limit": {limit}}}"#));
        let trace_result = result(&response);
        let traces = trace_result
            .get("traces")
            .and_then(Value::as_array)
            .expect("traces array");
        prop_assert!(traces.len() <= limit, "limit respected");
        prop_assert!(
            trace_result.get("recorded").and_then(Value::as_u64).unwrap_or(0) > 0,
            "concurrent load must have recorded traces"
        );
        for trace in traces {
            prop_assert!(trace.get("trace").and_then(Value::as_u64).is_some());
            prop_assert!(trace.get("op").and_then(Value::as_str).is_some());
            let top = trace.get("spans").and_then(Value::as_array).expect("spans");
            let roots = find_phase(top, "request");
            prop_assert_eq!(roots.len(), 1, "exactly one root per returned tree");
            for span in top {
                assert_span_well_formed(span);
            }
        }
    }
}

/// The `trace` op's filters actually filter: `filter_op` keeps only
/// matching roots and `min_micros` drops fast traces.
#[test]
fn trace_op_filters_by_op_and_duration() {
    let engine = Engine::new(traced_config());
    load_bluenile(&engine);
    call(
        &engine,
        r#"{"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1], "samples": 20000}"#,
    );
    call(&engine, r#"{"op": "stats"}"#);

    let by_op = call(
        &engine,
        r#"{"op": "trace", "filter_op": "verify", "limit": 16}"#,
    );
    let traces = result(&by_op)
        .get("traces")
        .and_then(Value::as_array)
        .unwrap()
        .to_vec();
    assert!(!traces.is_empty(), "the verify trace is queryable");
    for t in &traces {
        assert_eq!(t.get("op").and_then(Value::as_str), Some("verify"));
    }

    let absurd = call(
        &engine,
        r#"{"op": "trace", "min_micros": 999999999999, "limit": 16}"#,
    );
    let none = result(&absurd)
        .get("traces")
        .and_then(Value::as_array)
        .unwrap()
        .to_vec();
    assert!(none.is_empty(), "no trace lasted 11 days");
}

/// A randomized `session.get_next` tags its kernel span with the samples
/// *this* advance drew — not the session's running total, which would
/// also count earlier advances and a primed batch.
#[test]
fn randomized_get_next_kernel_spans_count_only_this_advance() {
    let engine = Engine::new(traced_config());
    load_bluenile(&engine);
    let open = |extra: &str| {
        let opened = call(
            &engine,
            &format!(
                r#"{{"op": "session.open", "dataset": "bn", "kind": "randomized", "scope": "top-k-ranked", "k": 5, "samples": 4000, "seed": 3{extra}}}"#
            ),
        );
        result(&opened)
            .get("session")
            .and_then(Value::as_u64)
            .expect("session id")
    };
    let sessions = [open(r#", "prime": true"#), open("")];
    for id in sessions {
        for _ in 0..2 {
            result(&call(
                &engine,
                &format!(r#"{{"op": "session.get_next", "session": {id}, "budget": 700}}"#),
            ));
        }
    }
    let response = call(
        &engine,
        r#"{"op": "trace", "filter_op": "session.get_next", "limit": 16}"#,
    );
    let traces = result(&response)
        .get("traces")
        .and_then(Value::as_array)
        .expect("trace result carries a traces array")
        .to_vec();
    assert_eq!(traces.len(), 4, "every advance is traced");
    for trace in &traces {
        let spans = trace
            .get("spans")
            .and_then(Value::as_array)
            .expect("trace carries spans");
        let kernels = find_phase(spans, "kernel");
        assert_eq!(kernels.len(), 1, "one kernel span per advance");
        assert_eq!(
            kernels[0].get("samples").and_then(Value::as_u64),
            Some(700),
            "the kernel span counts the samples this advance drew"
        );
    }
}

/// The phase histograms in `stats`: `stats name -> (count, total_micros)`
/// summed over ops.
fn histogram_totals(engine: &Engine) -> Vec<(String, (u64, u64))> {
    let stats = call(engine, r#"{"op": "stats"}"#);
    let phases = result(&stats).get("phases").expect("stats carries phases");
    let Value::Object(phases) = phases else {
        panic!("phases is an object");
    };
    phases
        .iter()
        .map(|(name, ops)| {
            let Value::Object(ops) = ops else {
                panic!("a phase holds one histogram per op");
            };
            let read = |h: &Value, key: &str| h.get(key).and_then(Value::as_u64).unwrap();
            let totals = ops.iter().fold((0, 0), |(count, micros), (_, h)| {
                (count + read(h, "count"), micros + read(h, "total_micros"))
            });
            (name.clone(), totals)
        })
        .collect()
}

/// Every recorded span of `phase`, over every trace the recorder holds.
fn span_totals(engine: &Engine, phase: &str) -> (u64, u64) {
    let response = call(engine, r#"{"op": "trace", "limit": 1000}"#);
    let traces = result(&response)
        .get("traces")
        .and_then(Value::as_array)
        .expect("trace result carries a traces array");
    let mut spans = Vec::new();
    for trace in traces {
        spans_with_phase(
            trace.get("spans").and_then(Value::as_array).unwrap(),
            phase,
            &mut spans,
        );
    }
    let micros = spans
        .iter()
        .map(|s| s.get("micros").and_then(Value::as_u64).unwrap())
        .sum();
    (spans.len() as u64, micros)
}

fn health_counter(engine: &Engine, block: &str, key: &str) -> u64 {
    let health = call(engine, r#"{"op": "health"}"#);
    result(&health)
        .get(block)
        .and_then(|b| b.get(key))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("health carries {block}.{key}"))
}

fn stats_counter(engine: &Engine, block: &str, key: &str) -> u64 {
    let stats = call(engine, r#"{"op": "stats"}"#);
    result(&stats)
        .get(block)
        .and_then(|b| b.get(key))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats carries {block}.{key}"))
}

/// Polls `ready` until it holds (the tests' only cross-thread sync).
fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    for _ in 0..2000 {
        if ready() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    panic!("timed out waiting until {what}");
}

/// Loads a small 2-D dataset and opens a sweep2d session on it.
fn open_sweep_session(engine: &Engine) -> u64 {
    result(&call(
        engine,
        r#"{"op": "registry.load", "dataset": "s", "builtin": "synthetic-independent", "n": 40, "d": 2, "seed": 3}"#,
    ));
    let opened = call(
        engine,
        r#"{"op": "session.open", "dataset": "s", "kind": "sweep2d"}"#,
    );
    result(&opened)
        .get("session")
        .and_then(Value::as_u64)
        .expect("session id")
}

/// Every histogram phase, on every path that times it, reads one
/// interval for its span and its histogram sample: per phase, the
/// histogram's count and `total_micros` grow by exactly the number and
/// the summed `micros` of its spans. The paths: a cold verify through
/// the line entry point, a streamed batch, a buffered batch's pooled
/// sub-request, and a `session.get_next` parked inline and one parked
/// on the pool.
#[test]
fn every_histogram_phase_reads_its_spans_interval() {
    let engine = Engine::new(EngineConfig {
        trace_sample: 1,
        pool_workers: 2,
        // Every kernel holds its session (or worker) long enough for a
        // second request to park behind it.
        faults: Some("kernel_delay_ms=150".into()),
        ..EngineConfig::default()
    });
    load_bluenile(&engine);
    let session = open_sweep_session(&engine);
    let get_next = format!(r#"{{"op": "session.get_next", "session": {session}}}"#);
    let before = histogram_totals(&engine);
    assert!(
        before.is_empty(),
        "setup times no histogram phase: {before:?}"
    );

    stream(
        &engine,
        r#"{"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1], "samples": 5000}"#,
    );
    stream(
        &engine,
        r#"{"op": "batch", "stream": true, "requests": [{"op": "verify", "dataset": "bn", "weights": [2, 1, 1, 1, 1], "samples": 5000}, {"op": "ping"}]}"#,
    );
    stream(
        &engine,
        r#"{"op": "batch", "requests": [{"op": "verify", "dataset": "bn", "weights": [1, 2, 1, 1, 1], "samples": 5000}]}"#,
    );
    // Inline park: a second direct get_next arrives while the first
    // holds the session through its kernel delay.
    let delays = health_counter(&engine, "faults", "kernel_delays_injected");
    std::thread::scope(|scope| {
        scope.spawn(|| stream(&engine, &get_next));
        wait_until("the first get_next holds the session", || {
            health_counter(&engine, "faults", "kernel_delays_injected") > delays
        });
        stream(&engine, &get_next);
    });
    // Pool park: two sub-requests on one session, one per worker.
    stream(
        &engine,
        &format!(r#"{{"op": "batch", "stream": true, "requests": [{get_next}, {get_next}]}}"#),
    );
    assert_eq!(
        stats_counter(&engine, "session_queue", "queued_total"),
        2,
        "one get_next parked inline and one on the pool"
    );

    let after = histogram_totals(&engine);
    let names: Vec<&str> = after.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["queue_wait", "session_wait", "kernel", "serialize"]);
    for (name, histogram) in &after {
        let span = if name == "queue_wait" {
            "pool_queue"
        } else {
            name
        };
        let spans = span_totals(&engine, span);
        assert_eq!(
            *histogram, spans,
            "{name}: the histogram's (count, total_micros) against its {span} spans'"
        );
    }
}

/// A `session.get_next` parked on the pool waits for the session from
/// park to grant. Its continuation's own wait for a worker, here behind
/// a slow pool job, is pool time: neither its `session_wait` span nor
/// its histogram sample may include it. That wait is the request's
/// second `queue_wait` sample, a `pool_queue` span inside its `dispatch`
/// span.
#[test]
fn pooled_session_wait_ends_at_the_grant() {
    const DELAY_MS: u64 = 400;
    let engine = Engine::new(EngineConfig {
        trace_sample: 1,
        pool_workers: 1,
        faults: Some(format!("kernel_delay_ms={DELAY_MS}")),
        ..EngineConfig::default()
    });
    load_bluenile(&engine);
    let session = open_sweep_session(&engine);
    let get_next = format!(r#"{{"op": "session.get_next", "session": {session}}}"#);
    let delays = || health_counter(&engine, "faults", "kernel_delays_injected");
    std::thread::scope(|scope| {
        // A direct get_next holds the session through its kernel delay.
        scope.spawn(|| stream(&engine, &get_next));
        wait_until("the direct get_next holds the session", || delays() == 1);
        // Halfway through that hold, a batch sub-request on the same
        // session parks, freeing the only worker.
        std::thread::sleep(std::time::Duration::from_millis(DELAY_MS / 2));
        scope.spawn(|| {
            stream(
                &engine,
                &format!(r#"{{"op": "batch", "requests": [{get_next}]}}"#),
            )
        });
        wait_until("the sub-request parks", || {
            stats_counter(&engine, "session_queue", "queued_total") == 1
        });
        // A cold verify takes the worker before the grant, so the
        // continuation queues behind its whole kernel delay.
        scope.spawn(|| {
            stream(
                &engine,
                r#"{"op": "batch", "requests": [{"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1], "samples": 5000}]}"#,
            )
        });
        wait_until("the verify holds the worker", || delays() >= 2);
    });
    let delay_micros = DELAY_MS * 1000;
    let (count, span_micros) = span_totals(&engine, "session_wait");
    assert_eq!(count, 1, "one park");
    assert!(
        span_micros < delay_micros,
        "the session_wait span reads {span_micros} µs, past the grant"
    );
    let histogram = histogram_totals(&engine)
        .into_iter()
        .find(|(name, _)| name == "session_wait")
        .map(|(_, totals)| totals);
    assert_eq!(
        histogram,
        Some((1, span_micros)),
        "the histogram reads the span's interval"
    );

    // The grant comes as the direct get_next's delay ends; the verify
    // took the worker halfway through it and holds it for a whole delay.
    let response = call(&engine, r#"{"op": "trace", "limit": 1000}"#);
    let traces = result(&response)
        .get("traces")
        .and_then(Value::as_array)
        .expect("trace result carries a traces array");
    let mut parked = Vec::new();
    for trace in traces {
        let spans = trace.get("spans").and_then(Value::as_array).unwrap();
        parked.extend(
            find_phase(spans, "dispatch")
                .into_iter()
                .filter(|d| !find_phase(children_of(d), "session_wait").is_empty()),
        );
    }
    assert_eq!(parked.len(), 1, "the park's dispatch span");
    let worker_waits = find_phase(children_of(parked[0]), "pool_queue");
    assert_eq!(worker_waits.len(), 1, "one worker wait under the dispatch");
    let worker_wait = worker_waits[0]
        .get("micros")
        .and_then(Value::as_u64)
        .unwrap();
    assert!(
        worker_wait >= delay_micros / 4,
        "the continuation waited {worker_wait} µs for the worker"
    );
    let queue = get_next_histogram(&engine, &["phases", "queue_wait"]);
    let read = |key: &str| queue.get(key).and_then(Value::as_u64).unwrap();
    assert_eq!(read("count"), 2, "the submit's and the grant's waits");
    assert_eq!(
        read("max_micros"),
        worker_wait,
        "the histogram reads the span's interval"
    );
}

/// One op-level histogram of `stats` (`block` is `ops`, or a phase under
/// `phases`), for `session.get_next`.
fn get_next_histogram(engine: &Engine, path: &[&str]) -> Value {
    let stats = call(engine, r#"{"op": "stats"}"#);
    let mut at = result(&stats);
    for key in path {
        at = at
            .get(key)
            .unwrap_or_else(|| panic!("stats carries {path:?}"));
    }
    at.get("session.get_next")
        .cloned()
        .unwrap_or_else(|| panic!("stats {path:?} has a session.get_next row"))
}

/// A `session.get_next` parked on a busy session is answered alike on
/// both parks — a direct request blocking its thread, and a streamed
/// batch's sub-request parked on the pool. Its `dispatch` span holds the
/// `session_wait` and `kernel` spans, both naming the session; its op
/// latency includes the park wait; and its `session_wait` sample reads
/// the same interval as `stats.session_queue`.
#[test]
fn pooled_session_wait_span_carries_the_session() {
    const DELAY_MICROS: u64 = 150_000;
    for pooled in [false, true] {
        let engine = Engine::new(EngineConfig {
            trace_sample: 1,
            pool_workers: 2,
            // The first advance holds the session long enough for the
            // second to park behind it.
            faults: Some(format!("kernel_delay_ms={}", DELAY_MICROS / 1000)),
            ..EngineConfig::default()
        });
        let session = open_sweep_session(&engine);
        let get_next = format!(r#"{{"op": "session.get_next", "session": {session}}}"#);
        if pooled {
            stream(
                &engine,
                &format!(
                    r#"{{"op": "batch", "stream": true, "requests": [{get_next}, {get_next}]}}"#
                ),
            );
        } else {
            std::thread::scope(|scope| {
                scope.spawn(|| result(&call(&engine, &get_next)).clone());
                wait_until("the first get_next holds the session", || {
                    health_counter(&engine, "faults", "kernel_delays_injected") > 0
                });
                result(&call(&engine, &get_next));
            });
        }
        let path = if pooled { "pool" } else { "transport" };
        assert_eq!(
            stats_counter(&engine, "session_queue", "queued_total"),
            1,
            "{path}: one get_next parked"
        );

        let response = call(
            &engine,
            &format!(r#"{{"op": "trace", "session": {session}, "limit": 16}}"#),
        );
        let traces = result(&response)
            .get("traces")
            .and_then(Value::as_array)
            .expect("trace result carries a traces array");
        let mut waits = Vec::new();
        let mut parked = Vec::new();
        for trace in traces {
            let spans = trace.get("spans").and_then(Value::as_array).unwrap();
            waits.extend(find_phase(spans, "session_wait"));
            parked.extend(
                find_phase(spans, "dispatch")
                    .into_iter()
                    .filter(|d| !find_phase(children_of(d), "session_wait").is_empty()),
            );
        }
        assert_eq!(waits.len(), 1, "{path}: the park's span: {waits:?}");
        assert_eq!(parked.len(), 1, "{path}: the park's wait is under dispatch");
        for phase in ["session_wait", "kernel"] {
            let spans = find_phase(children_of(parked[0]), phase);
            assert_eq!(spans.len(), 1, "{path}: one {phase} under the dispatch");
            assert_eq!(
                spans[0].get("session").and_then(Value::as_u64),
                Some(session),
                "{path}: the parked request's {phase} span names its session"
            );
        }

        let read = |h: &Value, key: &str| h.get(key).and_then(Value::as_u64).unwrap();
        let op = get_next_histogram(&engine, &["ops"]);
        let wait = get_next_histogram(&engine, &["phases", "session_wait"]);
        assert!(
            read(&op, "max_micros") >= read(&wait, "max_micros") + DELAY_MICROS,
            "{path}: the parked request's latency {op:?} covers its wait {wait:?} and its advance"
        );
        assert_eq!(
            stats_counter(&engine, "session_queue", "wait_micros"),
            read(&wait, "total_micros"),
            "{path}: the queue counters and the phase read one clock"
        );
    }
}
