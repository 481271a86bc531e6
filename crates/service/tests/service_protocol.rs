//! End-to-end protocol tests against an in-process engine: registry load,
//! consumer queries (verify/overview) with result caching, producer
//! sessions with monotone `get_next`, idle eviction, and determinism of
//! the seeded Monte-Carlo paths.

use serde_json::Value;
use srank_service::metrics::Phase;
use srank_service::{Engine, EngineConfig, ErrorCode, Op, RequestCtx};
use std::time::Duration;

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

fn error_code(response: &Value) -> &str {
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
    response
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .expect("error responses carry a code")
}

#[test]
fn load_verify_overview_on_figure1() {
    let e = engine();
    let loaded = call(
        &e,
        r#"{"id": 1, "op": "registry.load", "dataset": "hiring", "builtin": "figure1"}"#,
    );
    let r = result(&loaded);
    assert_eq!(r.get("rows").unwrap().as_u64(), Some(5));
    assert_eq!(r.get("dim").unwrap().as_u64(), Some(2));

    // Figure 1: the equal-weights ranking ⟨t2, t4, t3, t5, t1⟩.
    let verified = call(
        &e,
        r#"{"op": "verify", "dataset": "hiring", "weights": [1, 1]}"#,
    );
    let r = result(&verified);
    assert_eq!(r.get("method").unwrap().as_str(), Some("exact-2d"));
    let stability = r.get("stability").unwrap().as_f64().unwrap();
    assert!(stability > 0.0 && stability < 1.0);
    let head: Vec<u64> = r
        .get("head")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect();
    assert_eq!(head, vec![1, 3, 2, 4, 0]);

    // Figure 1c: eleven feasible rankings.
    let overview = call(&e, r#"{"op": "overview", "dataset": "hiring"}"#);
    let r = result(&overview);
    assert_eq!(r.get("rankings").unwrap().as_u64(), Some(11));
    assert!((r.get("total_mass").unwrap().as_f64().unwrap() - 1.0).abs() < 1e-9);
}

#[test]
fn repeated_identical_verify_is_served_from_cache() {
    let e = engine();
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "f", "builtin": "fifa", "n": 60, "seed": 3}"#,
    );
    let request = r#"{"op": "verify", "dataset": "f", "weights": [1, 1, 1, 1], "samples": 4000}"#;

    let cold = call(&e, request);
    assert_eq!(cold.get("cached").unwrap().as_bool(), Some(false));
    let hot = call(&e, request);
    assert_eq!(
        hot.get("cached").unwrap().as_bool(),
        Some(true),
        "second identical query hits"
    );
    assert_eq!(
        result(&cold),
        result(&hot),
        "cache returns the identical result"
    );

    let stats = call(&e, r#"{"op": "stats"}"#);
    let cache = result(&stats).get("result_cache").unwrap();
    assert_eq!(cache.get("hits").unwrap().as_u64(), Some(1));
    assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1));

    // A different parameterization misses.
    let other = call(
        &e,
        r#"{"op": "verify", "dataset": "f", "weights": [1, 1, 1, 1], "samples": 4000, "seed": 9}"#,
    );
    assert_eq!(other.get("cached").unwrap().as_bool(), Some(false));
}

#[test]
fn reloading_a_dataset_invalidates_its_cache_entries() {
    let e = engine();
    let load = r#"{"op": "registry.load", "dataset": "d", "builtin": "dot", "n": 80, "seed": 5}"#;
    call(&e, load);
    let request = r#"{"op": "verify", "dataset": "d", "weights": [1, 1, 1]}"#;
    assert_eq!(
        call(&e, request).get("cached").unwrap().as_bool(),
        Some(false)
    );
    assert_eq!(
        call(&e, request).get("cached").unwrap().as_bool(),
        Some(true)
    );
    // Reload under the same name: new generation ⇒ cold again.
    call(&e, load);
    assert_eq!(
        call(&e, request).get("cached").unwrap().as_bool(),
        Some(false)
    );
}

#[test]
fn monte_carlo_sample_batches_are_shared_across_queries() {
    let e = engine();
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "b", "builtin": "bluenile", "n": 50, "d": 5, "seed": 1}"#,
    );
    // Different weight vectors on the same dataset/ROI: the sample batch
    // is drawn once and reused (second query differs only in weights).
    call(
        &e,
        r#"{"op": "verify", "dataset": "b", "weights": [1, 1, 1, 1, 1], "samples": 3000}"#,
    );
    call(
        &e,
        r#"{"op": "verify", "dataset": "b", "weights": [2, 1, 1, 1, 1], "samples": 3000}"#,
    );
    let stats = call(&e, r#"{"op": "stats"}"#);
    let samples = result(&stats).get("sample_cache").unwrap();
    assert_eq!(samples.get("misses").unwrap().as_u64(), Some(1), "one draw");
    assert_eq!(samples.get("hits").unwrap().as_u64(), Some(1), "one reuse");
}

#[test]
fn session_get_next_is_monotonically_non_increasing_until_done() {
    let e = engine();
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "h", "builtin": "figure1"}"#,
    );
    let opened = call(
        &e,
        r#"{"op": "session.open", "dataset": "h", "kind": "sweep2d"}"#,
    );
    let id = result(&opened).get("session").unwrap().as_u64().unwrap();

    let mut stabilities = Vec::new();
    loop {
        let next = call(
            &e,
            &format!(r#"{{"op": "session.get_next", "session": {id}}}"#),
        );
        let r = result(&next);
        if r.get("done").unwrap().as_bool() == Some(true) {
            assert_eq!(r.get("returned").unwrap().as_u64(), Some(11));
            break;
        }
        stabilities.push(r.get("stability").unwrap().as_f64().unwrap());
    }
    assert_eq!(stabilities.len(), 11, "Figure 1c has 11 regions");
    for w in stabilities.windows(2) {
        assert!(
            w[1] <= w[0] + 1e-12,
            "stability must be non-increasing: {stabilities:?}"
        );
    }
    assert!((stabilities.iter().sum::<f64>() - 1.0).abs() < 1e-9);

    let closed = call(
        &e,
        &format!(r#"{{"op": "session.close", "session": {id}}}"#),
    );
    assert_eq!(result(&closed).get("closed").unwrap().as_bool(), Some(true));
    let gone = call(
        &e,
        &format!(r#"{{"op": "session.get_next", "session": {id}}}"#),
    );
    assert_eq!(error_code(&gone), "session_not_found");
}

#[test]
fn md_session_on_fifa_is_monotone_and_incremental() {
    let e = engine();
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "f", "builtin": "fifa", "n": 40, "seed": 2}"#,
    );
    let opened = call(
        &e,
        r#"{"op": "session.open", "dataset": "f", "kind": "md", "samples": 3000, "seed": 4}"#,
    );
    let id = result(&opened).get("session").unwrap().as_u64().unwrap();
    let mut prev = f64::INFINITY;
    for _ in 0..5 {
        let next = call(
            &e,
            &format!(r#"{{"op": "session.get_next", "session": {id}}}"#),
        );
        let r = result(&next);
        assert_eq!(r.get("done").unwrap().as_bool(), Some(false));
        let s = r.get("stability").unwrap().as_f64().unwrap();
        assert!(s <= prev + 1e-12);
        prev = s;
        assert_eq!(r.get("len").unwrap().as_u64(), Some(40));
        assert_eq!(r.get("head").unwrap().as_array().unwrap().len(), 10);
    }
}

#[test]
fn randomized_session_replays_identically_for_one_seed() {
    let run = || {
        let e = engine();
        call(
            &e,
            r#"{"op": "registry.load", "dataset": "f", "builtin": "fifa", "n": 30, "seed": 8}"#,
        );
        let opened = call(
            &e,
            r#"{"op": "session.open", "dataset": "f", "kind": "randomized",
                "scope": "top-k-set", "k": 5, "seed": 77, "budget": 1500}"#,
        );
        let id = result(&opened).get("session").unwrap().as_u64().unwrap();
        let mut out = Vec::new();
        for _ in 0..3 {
            let next = call(
                &e,
                &format!(r#"{{"op": "session.get_next", "session": {id}}}"#),
            );
            out.push(serde_json::to_string(result(&next)).unwrap());
        }
        out
    };
    assert_eq!(run(), run(), "same seed ⇒ identical session stream");
}

#[test]
fn identical_monte_carlo_requests_agree_across_fresh_engines() {
    // Determinism of the service's Monte-Carlo oracle: a fresh engine
    // (cold cache) must reproduce the same verify result for the same
    // request, because the sample batch is derived from the request seed.
    let request = r#"{"op": "verify", "dataset": "b", "weights": [1, 2, 1, 1, 2], "samples": 5000, "seed": 31}"#;
    let run = || {
        let e = engine();
        call(
            &e,
            r#"{"op": "registry.load", "dataset": "b", "builtin": "bluenile", "n": 40, "d": 5, "seed": 6}"#,
        );
        serde_json::to_string(result(&call(&e, request))).unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn idle_sessions_are_evicted() {
    let e = engine();
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "h", "builtin": "figure1"}"#,
    );
    let opened = call(&e, r#"{"op": "session.open", "dataset": "h"}"#);
    let id = result(&opened).get("session").unwrap().as_u64().unwrap();
    // A get_next keeps it warm.
    let next = call(
        &e,
        &format!(r#"{{"op": "session.get_next", "session": {id}}}"#),
    );
    result(&next);
    // Now force the idle sweep with a zero TTL (as the configured TTL
    // would after 300 idle seconds).
    assert_eq!(e.evict_idle_sessions(Some(Duration::ZERO)), 1);
    let gone = call(
        &e,
        &format!(r#"{{"op": "session.get_next", "session": {id}}}"#),
    );
    assert_eq!(error_code(&gone), "session_not_found");
}

/// One expiry scenario: runs on a fresh engine (figure1 loaded as `h`,
/// `max_sessions` 2, a data dir) and reports what the client saw.
type ExpiryScenario = fn(&Engine) -> String;

fn open_session(e: &Engine) -> Result<u64, String> {
    let opened = call(e, r#"{"op": "session.open", "dataset": "h"}"#);
    match opened.get("ok").and_then(Value::as_bool) {
        Some(true) => Ok(result(&opened).get("session").unwrap().as_u64().unwrap()),
        _ => Err(error_code(&opened).to_string()),
    }
}

/// `ok`, or the error code.
fn outcome(response: &Value) -> String {
    match response.get("ok").and_then(Value::as_bool) {
        Some(true) => "ok".to_string(),
        _ => error_code(response).to_string(),
    }
}

/// Sessions expire where they are touched, and every answer is the one
/// a sweep before each request gave: an expired session is
/// `session_not_found` to `get_next` and `session.save` and not closed
/// by `close`; `open` at `max_sessions` succeeds when every slot has
/// expired and answers `session_limit` when every slot is live; `stats`
/// counts no expired session. Each row runs at an `idle_ttl` of 0 and of
/// an hour.
#[test]
fn expiry_answers_match_a_sweep_before_every_request() {
    let rows: [(&str, ExpiryScenario, &str, &str); 5] = [
        (
            "get_next",
            |e| {
                let id = open_session(e).unwrap();
                outcome(&call(
                    e,
                    &format!(r#"{{"op": "session.get_next", "session": {id}}}"#),
                ))
            },
            "session_not_found",
            "ok",
        ),
        (
            "close",
            |e| {
                let id = open_session(e).unwrap();
                let closed = call(e, &format!(r#"{{"op": "session.close", "session": {id}}}"#));
                let closed = result(&closed).get("closed").unwrap().as_bool().unwrap();
                format!("closed {closed}")
            },
            "closed false",
            "closed true",
        ),
        (
            "session.save",
            |e| {
                let id = open_session(e).unwrap();
                outcome(&call(
                    e,
                    &format!(r#"{{"op": "session.save", "session": {id}}}"#),
                ))
            },
            "session_not_found",
            "ok",
        ),
        (
            "open at max_sessions",
            |e| {
                open_session(e).unwrap();
                open_session(e).unwrap();
                match open_session(e) {
                    Ok(_) => "ok".to_string(),
                    Err(code) => code,
                }
            },
            "ok",
            "session_limit",
        ),
        (
            "stats",
            |e| {
                open_session(e).unwrap();
                open_session(e).unwrap();
                let stats = call(e, r#"{"op": "stats"}"#);
                let stats = result(&stats);
                let table = stats.get("session_table").unwrap();
                format!(
                    "open {} checked_out {} listed {}",
                    table.get("open").unwrap().as_u64().unwrap(),
                    table.get("checked_out").unwrap().as_u64().unwrap(),
                    stats.get("sessions").unwrap().as_array().unwrap().len()
                )
            },
            "open 0 checked_out 0 listed 0",
            "open 2 checked_out 0 listed 2",
        ),
    ];
    for (ttl, column) in [(Duration::ZERO, 0), (Duration::from_secs(3600), 1)] {
        for (i, (name, scenario, expired, live)) in rows.iter().enumerate() {
            let dir = std::env::temp_dir()
                .join(format!("srank-expiry-{}-{column}-{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let e = Engine::new(EngineConfig {
                idle_ttl: ttl,
                max_sessions: 2,
                data_dir: Some(dir.clone()),
                ..EngineConfig::default()
            });
            call(
                &e,
                r#"{"op": "registry.load", "dataset": "h", "builtin": "figure1"}"#,
            );
            let want = if column == 0 { expired } else { live };
            assert_eq!(&scenario(&e), want, "{name} at idle_ttl {ttl:?}");
            drop(e);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// No request path sweeps the session table: a cached `verify`, a
/// `get_next`, a `ping` and a batch of them each touch only the shard
/// their session id (if any) names, so the engine's sweep counter stands
/// still. The table's views (`stats`) and the explicit eviction call are
/// what move it. The supervisor, the other sweeper, is off here.
#[test]
fn no_request_path_sweeps_the_session_table() {
    let e = Engine::new(EngineConfig {
        watchdog_stall_ms: 0,
        ..EngineConfig::default()
    });
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "h", "builtin": "figure1"}"#,
    );
    let id = open_session(&e).unwrap();
    let verify = r#"{"op": "verify", "dataset": "h", "weights": [1, 1]}"#;
    call(&e, verify);
    let get_next = format!(r#"{{"op": "session.get_next", "session": {id}}}"#);
    let batch =
        format!(r#"{{"op": "batch", "requests": [{verify}, {get_next}, {{"op": "ping"}}]}}"#);
    let before = e.session_sweeps();
    for request in [
        verify,
        get_next.as_str(),
        r#"{"op": "ping"}"#,
        batch.as_str(),
    ] {
        let response = call(&e, request);
        result(&response);
        assert_eq!(e.session_sweeps(), before, "{request} swept the table");
    }
    assert_eq!(
        call(&e, verify).get("cached").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(e.session_sweeps(), before);
    call(&e, r#"{"op": "stats"}"#);
    assert_eq!(
        e.session_sweeps(),
        before + 1,
        "stats reaps before it counts"
    );
    e.evict_idle_sessions(None);
    assert_eq!(e.session_sweeps(), before + 2);
}

#[test]
fn sessions_go_stale_when_their_dataset_is_reloaded() {
    let e = engine();
    let load = r#"{"op": "registry.load", "dataset": "h", "builtin": "figure1"}"#;
    call(&e, load);
    let opened = call(&e, r#"{"op": "session.open", "dataset": "h"}"#);
    let id = result(&opened).get("session").unwrap().as_u64().unwrap();
    call(&e, load); // new generation
    let stale = call(
        &e,
        &format!(r#"{{"op": "session.get_next", "session": {id}}}"#),
    );
    assert_eq!(error_code(&stale), "session_not_found");
}

#[test]
fn tau_tolerant_verification() {
    let e = engine();
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "h", "builtin": "figure1"}"#,
    );
    let strict = call(&e, r#"{"op": "verify", "dataset": "h", "weights": [1, 1]}"#);
    let strict = result(&strict);
    assert!(strict.get("tau").is_none(), "plain verify carries no tau");
    let tolerant = call(
        &e,
        r#"{"op": "verify", "dataset": "h", "weights": [1, 1], "tau": 1}"#,
    );
    let r = result(&tolerant);
    assert_eq!(r.get("method").unwrap().as_str(), Some("exact-2d-tau"));
    assert_eq!(r.get("tau").unwrap().as_u64(), Some(1));
    assert_eq!(r.get("items"), strict.get("items"));
    assert_eq!(r.get("head"), strict.get("head"), "same ranking, same head");
    let tau1 = r.get("stability").unwrap().as_f64().unwrap();
    let strict = strict.get("stability").unwrap().as_f64().unwrap();
    assert!(tau1 >= strict - 1e-12, "tolerance can only add mass");
    // n = 5: no two rankings are more than 10 swaps apart.
    let all = call(
        &e,
        r#"{"op": "verify", "dataset": "h", "weights": [1, 1], "tau": 10}"#,
    );
    assert_eq!(result(&all).get("stability").unwrap().as_f64(), Some(1.0));
}

/// The τ-ball is one angle interval only inside the closed first
/// quadrant, so `tau` refuses weights outside it; plain `verify` still
/// answers them.
#[test]
fn tau_tolerant_verification_rejects_out_of_quadrant_weights() {
    let e = engine();
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "h", "builtin": "figure1"}"#,
    );
    for weights in ["[-1, 1]", "[1, -0.5]", "[0, 0]"] {
        let tolerant = call(
            &e,
            &format!(r#"{{"op": "verify", "dataset": "h", "weights": {weights}, "tau": 1}}"#),
        );
        assert_eq!(error_code(&tolerant), "bad_request", "{weights}");
        let plain = call(
            &e,
            &format!(r#"{{"op": "verify", "dataset": "h", "weights": {weights}}}"#),
        );
        result(&plain);
    }
    let axis = call(
        &e,
        r#"{"op": "verify", "dataset": "h", "weights": [0, 1], "tau": 1}"#,
    );
    result(&axis);
}

#[test]
fn protocol_error_codes() {
    let e = engine();
    assert_eq!(error_code(&call(&e, r#"{"op": "nope"}"#)), "bad_request");
    assert_eq!(error_code(&call(&e, r#"{"nop": 1}"#)), "bad_request");
    assert_eq!(
        error_code(&call(
            &e,
            r#"{"op": "verify", "dataset": "ghost", "weights": [1, 1]}"#
        )),
        "not_found"
    );
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "h", "builtin": "figure1"}"#,
    );
    assert_eq!(
        error_code(&call(
            &e,
            r#"{"op": "verify", "dataset": "h", "weights": [1, 1, 1]}"#
        )),
        "bad_request"
    );
    assert_eq!(
        error_code(&call(&e, r#"{"op": "session.get_next", "session": 999}"#)),
        "session_not_found"
    );
    let raw = e.handle_line("{not json");
    let parsed: Value = serde_json::from_str(&raw).unwrap();
    assert_eq!(error_code(&parsed), "parse_error");
    // The id is echoed even on failures, for request/response pairing.
    let with_id = call(&e, r#"{"id": "abc", "op": "nope"}"#);
    assert_eq!(with_id.get("id").unwrap().as_str(), Some("abc"));
}

#[test]
fn ill_typed_get_next_params_do_not_corrupt_the_session() {
    // Regression: a fallible parameter read after the session state had
    // been taken out used to swap the session to an exhausted placeholder.
    let e = engine();
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "f", "builtin": "fifa", "n": 30, "seed": 8}"#,
    );
    let opened = call(
        &e,
        r#"{"op": "session.open", "dataset": "f", "kind": "randomized", "scope": "full", "seed": 3, "budget": 500}"#,
    );
    let id = result(&opened).get("session").unwrap().as_u64().unwrap();
    let bad = call(
        &e,
        &format!(r#"{{"op": "session.get_next", "session": {id}, "budget": "abc"}}"#),
    );
    assert_eq!(error_code(&bad), "bad_request");
    // The session still works and is still a randomized session.
    let next = call(
        &e,
        &format!(r#"{{"op": "session.get_next", "session": {id}}}"#),
    );
    let r = result(&next);
    assert_eq!(r.get("done").unwrap().as_bool(), Some(false));
    assert!(
        r.get("confidence_error").is_some(),
        "randomized payload expected"
    );
}

#[test]
fn degenerate_roi_rays_are_rejected_not_panicked() {
    // Regression: a zero ray used to reach the cone sampler's expect()
    // and unwind the worker thread.
    let e = engine();
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "f", "builtin": "fifa", "n": 20, "seed": 1}"#,
    );
    let zero = call(
        &e,
        r#"{"op": "verify", "dataset": "f", "weights": [1, 1, 1, 1],
            "roi": {"around": [0, 0, 0, 0], "theta": 0.5}, "samples": 100}"#,
    );
    assert_eq!(error_code(&zero), "bad_request");
    let huge_theta = call(
        &e,
        r#"{"op": "verify", "dataset": "f", "weights": [1, 1, 1, 1],
            "roi": {"around": [1, 1, 1, 1], "theta": 9.0}, "samples": 100}"#,
    );
    assert_eq!(error_code(&huge_theta), "bad_request");
}

#[test]
fn invalid_dataset_shapes_are_rejected_not_panicked() {
    // Regression: synthetic builtins without 'd' and one-column CSVs used
    // to reach library asserts and unwind the transport.
    let e = engine();
    let no_d = call(
        &e,
        r#"{"op": "registry.load", "dataset": "s", "builtin": "synthetic-independent", "n": 50}"#,
    );
    assert_eq!(error_code(&no_d), "bad_request");
    let with_d = call(
        &e,
        r#"{"op": "registry.load", "dataset": "s", "builtin": "synthetic-independent", "n": 50, "d": 3}"#,
    );
    assert_eq!(result(&with_d).get("dim").unwrap().as_u64(), Some(3));

    // One scoring attribute: rejected at the registry boundary.
    let dir = std::env::temp_dir().join("srank_service_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("one_col.csv");
    std::fs::write(&path, "x\n1\n2\n3\n").unwrap();
    let one_col = call(
        &e,
        &format!(
            r#"{{"op": "registry.load", "dataset": "one", "csv": "{}", "higher": ["x"]}}"#,
            path.display()
        ),
    );
    assert_eq!(error_code(&one_col), "bad_request");
    std::fs::remove_file(&path).ok();
}

#[test]
fn oversized_requests_are_refused_not_allocated() {
    let e = engine();
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "f", "builtin": "fifa", "n": 20, "seed": 1}"#,
    );
    let huge_samples = call(
        &e,
        r#"{"op": "verify", "dataset": "f", "weights": [1, 1, 1, 1], "samples": 2000000000}"#,
    );
    assert_eq!(error_code(&huge_samples), "bad_request");
    let huge_n = call(
        &e,
        r#"{"op": "registry.load", "dataset": "x", "builtin": "dot", "n": 2000000000}"#,
    );
    assert_eq!(error_code(&huge_n), "bad_request");
    let opened = call(
        &e,
        r#"{"op": "session.open", "dataset": "f", "kind": "randomized", "scope": "full", "seed": 1}"#,
    );
    let id = result(&opened).get("session").unwrap().as_u64().unwrap();
    let huge_budget = call(
        &e,
        &format!(r#"{{"op": "session.get_next", "session": {id}, "budget": 2000000000}}"#),
    );
    assert_eq!(error_code(&huge_budget), "bad_request");
}

#[test]
fn registry_list_and_drop_round_trip() {
    let e = engine();
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "a", "builtin": "figure1"}"#,
    );
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "b", "builtin": "dot", "n": 30}"#,
    );
    let listed = call(&e, r#"{"op": "registry.list"}"#);
    let names: Vec<&str> = result(&listed)
        .get("datasets")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|d| d.get("dataset").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, vec!["a", "b"]);
    let dropped = call(&e, r#"{"op": "registry.drop", "dataset": "a"}"#);
    assert_eq!(
        result(&dropped).get("dropped").unwrap().as_bool(),
        Some(true)
    );
    let again = call(&e, r#"{"op": "registry.drop", "dataset": "a"}"#);
    assert_eq!(
        result(&again).get("dropped").unwrap().as_bool(),
        Some(false)
    );
}

#[test]
fn batch_returns_envelopes_in_request_order() {
    let e = engine();
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "h", "builtin": "figure1"}"#,
    );
    let batch = call(
        &e,
        r#"{"id": "outer", "op": "batch", "requests": [
            {"id": 1, "op": "verify", "dataset": "h", "weights": [1, 1]},
            {"id": 2, "op": "ping"},
            {"id": 3, "op": "verify", "dataset": "h", "weights": [2, 1]},
            {"id": 4, "op": "stats"}
        ]}"#,
    );
    assert_eq!(batch.get("id").unwrap().as_str(), Some("outer"));
    let result = result(&batch);
    assert_eq!(result.get("count").unwrap().as_u64(), Some(4));
    let results = result.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 4);
    for (i, sub) in results.iter().enumerate() {
        assert_eq!(
            sub.get("id").unwrap().as_u64(),
            Some(i as u64 + 1),
            "in-order envelope {i}"
        );
        assert_eq!(sub.get("ok").unwrap().as_bool(), Some(true));
    }
    assert!(results[0].get("result").unwrap().get("stability").is_some());
    assert_eq!(
        results[1]
            .get("result")
            .unwrap()
            .get("pong")
            .unwrap()
            .as_bool(),
        Some(true)
    );
    // Sub-results flow through the result cache like top-level queries.
    let direct = call(&e, r#"{"op": "verify", "dataset": "h", "weights": [1, 1]}"#);
    assert_eq!(direct.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(
        result.get("results").unwrap().as_array().unwrap()[0]
            .get("result")
            .unwrap()
            .get("stability")
            .unwrap()
            .as_f64(),
        direct
            .get("result")
            .unwrap()
            .get("stability")
            .unwrap()
            .as_f64()
    );
}

#[test]
fn batch_sub_requests_fail_independently() {
    let e = engine();
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "h", "builtin": "figure1"}"#,
    );
    let batch = call(
        &e,
        r#"{"op": "batch", "requests": [
            {"id": "good", "op": "ping"},
            {"id": "missing", "op": "verify", "dataset": "nope", "weights": [1, 1]},
            {"id": "nested", "op": "batch", "requests": []},
            {"id": "alsogood", "op": "verify", "dataset": "h", "weights": [1, 1]}
        ]}"#,
    );
    let results = result(&batch).get("results").unwrap().as_array().unwrap();
    assert_eq!(results[0].get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(results[1].get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(
        results[1]
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("not_found")
    );
    assert_eq!(results[2].get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(
        results[2]
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("bad_request"),
        "nested batch refused per-sub"
    );
    assert_eq!(results[3].get("ok").unwrap().as_bool(), Some(true));
}

#[test]
fn batch_validates_its_own_shape() {
    let e = engine();
    assert_eq!(error_code(&call(&e, r#"{"op": "batch"}"#)), "bad_request");
    assert_eq!(
        error_code(&call(&e, r#"{"op": "batch", "requests": 7}"#)),
        "bad_request"
    );
    // Empty batches are legal and answer immediately.
    let empty = call(&e, r#"{"op": "batch", "requests": []}"#);
    assert_eq!(result(&empty).get("count").unwrap().as_u64(), Some(0));
    // Over the cap: refused as a whole.
    let subs: Vec<String> = (0..65).map(|_| r#"{"op": "ping"}"#.to_string()).collect();
    let line = format!(r#"{{"op": "batch", "requests": [{}]}}"#, subs.join(", "));
    assert_eq!(error_code(&call(&e, &line)), "bad_request");
}

/// `"client"` must be a string wherever it appears: a top-level request
/// and a buffered batch answer `bad_request`, a streamed batch answers
/// with one plain untagged envelope (like its other shape errors), and a
/// sub-request gets its own error envelope while its siblings run.
#[test]
fn a_non_string_client_is_refused_everywhere() {
    let e = engine();
    assert_eq!(
        error_code(&call(&e, r#"{"op": "ping", "client": 7}"#)),
        "bad_request"
    );
    assert_eq!(
        error_code(&call(
            &e,
            r#"{"op": "batch", "client": 7, "requests": [{"op": "ping"}]}"#
        )),
        "bad_request"
    );
    let streamed = |line: &str| {
        let mut lines: Vec<Value> = Vec::new();
        e.handle_line_streamed(
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
        lines
    };
    let refused = streamed(
        r#"{"id": "s", "op": "batch", "stream": true, "client": 7, "requests": [{"op": "ping"}]}"#,
    );
    assert_eq!(refused.len(), 1, "one plain envelope: {refused:?}");
    assert_eq!(error_code(&refused[0]), "bad_request");
    assert!(refused[0].get("stream").is_none(), "untagged: {refused:?}");
    assert_eq!(refused[0].get("id").and_then(Value::as_str), Some("s"));

    let batch = call(
        &e,
        r#"{"op": "batch", "requests": [{"id": "bad", "op": "ping", "client": 8}, {"id": "good", "op": "ping", "client": "t"}]}"#,
    );
    let results = result(&batch).get("results").unwrap().as_array().unwrap();
    assert_eq!(error_code(&results[0]), "bad_request");
    let message = results[0]
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .unwrap();
    assert!(message.contains("client"), "{results:?}");
    assert_eq!(results[0].get("id").and_then(Value::as_str), Some("bad"));
    assert_eq!(result(&results[1]).get("pong"), Some(&Value::Bool(true)));
    let lines =
        streamed(r#"{"op": "batch", "stream": true, "requests": [{"op": "ping", "client": 8}]}"#);
    assert_eq!(lines.len(), 2, "sub envelope + terminal: {lines:?}");
    assert_eq!(error_code(&lines[0]), "bad_request");
}

#[test]
fn primed_randomized_session_counts_the_cached_batch() {
    let e = engine();
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "d", "builtin": "dot", "n": 40}"#,
    );
    // Priming feeds the shared sample batch through the accumulator: the
    // first get_next with a zero budget must already have estimates based
    // on `samples` observations.
    let opened = call(
        &e,
        r#"{"op": "session.open", "dataset": "d", "kind": "randomized", "prime": true, "samples": 4000, "seed": 9}"#,
    );
    let id = result(&opened).get("session").unwrap().as_u64().unwrap();
    let next = call(
        &e,
        &format!(r#"{{"op": "session.get_next", "session": {id}, "budget": 0}}"#),
    );
    assert_eq!(
        result(&next).get("samples_used").unwrap().as_u64(),
        Some(4000),
        "primed session starts with the batch counted"
    );
    // The same open without priming has nothing to report at budget 0.
    let cold = call(
        &e,
        r#"{"op": "session.open", "dataset": "d", "kind": "randomized", "seed": 9}"#,
    );
    let cold_id = result(&cold).get("session").unwrap().as_u64().unwrap();
    let cold_next = call(
        &e,
        &format!(r#"{{"op": "session.get_next", "session": {cold_id}, "budget": 0}}"#),
    );
    assert_eq!(
        result(&cold_next).get("done").unwrap().as_bool(),
        Some(true),
        "unprimed session has observed nothing yet"
    );
    // Priming hit the shared sample cache (drawn once at open).
    let stats = call(&e, r#"{"op": "stats"}"#);
    let sample_cache = result(&stats).get("sample_cache").unwrap();
    assert_eq!(sample_cache.get("entries").unwrap().as_u64(), Some(1));
}

#[test]
fn primed_session_continued_through_a_streamed_batch_never_replays_the_primed_samples() {
    // The streaming pipeline runs session.get_next on a pool worker; the
    // no-replay guarantee of `prime: true` (the session's live RNG stream
    // must not repeat the primed cache batch) has to survive that path
    // identically to a direct request.
    let e = engine();
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "d", "builtin": "dot", "n": 40}"#,
    );
    let open = |req: &str| {
        let opened = call(&e, req);
        result(&opened).get("session").unwrap().as_u64().unwrap()
    };
    let open_line = r#"{"op": "session.open", "dataset": "d", "kind": "randomized", "prime": true, "samples": 2000, "seed": 9}"#;
    // Reference: the primed table alone (budget 0).
    let prime_only = open(open_line);
    let batch_stability = {
        let next = call(
            &e,
            &format!(r#"{{"op": "session.get_next", "session": {prime_only}, "budget": 0}}"#),
        );
        result(&next).get("stability").unwrap().as_f64().unwrap()
    };
    // Same open, continued with live draws *through a streamed batch*.
    let continued = open(open_line);
    let line = format!(
        r#"{{"op": "batch", "stream": true, "requests": [
            {{"id": "next", "op": "session.get_next", "session": {continued}, "budget": 2000}},
            {{"id": "p", "op": "ping"}}
        ]}}"#
    );
    let mut lines: Vec<Value> = Vec::new();
    e.handle_line_streamed(
        &line,
        &mut |payload| {
            for l in payload.split('\n') {
                lines.push(serde_json::from_str(l).expect("line is JSON"));
            }
            Ok(())
        },
        RequestCtx::default(),
    )
    .unwrap();
    assert_eq!(lines.len(), 3, "two sub envelopes + terminal");
    let next = lines
        .iter()
        .find(|l| l.get("id").and_then(Value::as_str) == Some("next"))
        .expect("get_next envelope streamed");
    let r = result(next);
    assert_eq!(
        r.get("samples_used").unwrap().as_u64(),
        Some(4000),
        "primed 2000 + live 2000"
    );
    let continued_stability = r.get("stability").unwrap().as_f64().unwrap();
    assert_ne!(
        continued_stability, batch_stability,
        "a streamed continuation must draw fresh samples, not replay the primed batch"
    );
}

#[test]
fn primed_session_continuation_does_not_replay_the_primed_batch() {
    // Regression: the primed batch is drawn from StdRng(seed); if the
    // session's private RNG also started at StdRng(seed), the first
    // `samples` live draws would replay the batch verbatim — every count
    // doubled, stability ratios identical, confidence intervals tightened
    // by sqrt(2) on zero new information. Detectable exactly: the doubled
    // table's top stability equals the batch-only top stability.
    let e = engine();
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "d", "builtin": "dot", "n": 40}"#,
    );
    let open = |req: &str| {
        let opened = call(&e, req);
        result(&opened).get("session").unwrap().as_u64().unwrap()
    };
    let prime_only = open(
        r#"{"op": "session.open", "dataset": "d", "kind": "randomized", "prime": true, "samples": 2000, "seed": 9}"#,
    );
    let batch_stability = {
        let next = call(
            &e,
            &format!(r#"{{"op": "session.get_next", "session": {prime_only}, "budget": 0}}"#),
        );
        result(&next).get("stability").unwrap().as_f64().unwrap()
    };
    let continued = open(
        r#"{"op": "session.open", "dataset": "d", "kind": "randomized", "prime": true, "samples": 2000, "seed": 9}"#,
    );
    let next = call(
        &e,
        &format!(r#"{{"op": "session.get_next", "session": {continued}, "budget": 2000}}"#),
    );
    assert_eq!(
        result(&next).get("samples_used").unwrap().as_u64(),
        Some(4000)
    );
    let continued_stability = result(&next).get("stability").unwrap().as_f64().unwrap();
    assert_ne!(
        continued_stability, batch_stability,
        "continuation must draw fresh samples, not replay the primed batch"
    );
}

/// The arrangement-walk rendering of a 3-D `overview`: the leaf
/// stabilities of `GET-NEXTmd` over `batch`, laid out exactly as the
/// engine renders an overview.
fn overview_via_arrangement_walk(
    data: &srank_core::Dataset,
    roi: &srank_core::prelude::RegionOfInterest,
    batch: srank_sample::store::SampleBuffer,
) -> Value {
    use srank_service::proto::Object;
    let mut e = srank_core::MdEnumerator::with_samples(data, roi, batch).unwrap();
    let stabilities = std::iter::from_fn(|| e.get_next())
        .map(|r| r.stability)
        .collect();
    let overview = srank_core::StabilityOverview::from_stabilities(stabilities).unwrap();
    let coverage = [0.25, 0.5, 0.75, 0.9, 0.99]
        .iter()
        .map(|&f| {
            let v = overview
                .rankings_to_cover(f)
                .map_or(Value::Null, |n| Value::Number(n as f64));
            (format!("{}", (f * 100.0).round() as u64), v)
        })
        .collect::<Vec<_>>();
    Object::new()
        .field("rankings", overview.len())
        .field("effective_rankings", overview.effective_rankings())
        .field("total_mass", overview.total_mass())
        .field("coverage", Value::Object(coverage))
        .field("method", "monte-carlo")
        .build()
}

#[test]
fn overview_3d_is_byte_identical_to_the_arrangement_walk() {
    use rand::SeedableRng;
    use srank_core::prelude::RegionOfInterest;
    let e = engine();
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "d3", "builtin": "dot", "n": 80, "seed": 5}"#,
    );
    let data = e.core_arc().registry().get("d3").unwrap().dataset.clone();
    let cases = [
        (
            r#"{"op": "overview", "dataset": "d3", "samples": 400, "seed": 9}"#,
            None,
        ),
        (
            r#"{"op": "overview", "dataset": "d3", "samples": 400, "seed": 9, "roi": {"around": [0.1, 1, 1], "theta": 0.3}}"#,
            Some((vec![0.1, 1.0, 1.0], 0.3)),
        ),
    ];
    for (line, cone) in cases {
        let roi = match &cone {
            None => RegionOfInterest::full(3),
            Some((around, theta)) => RegionOfInterest::cone(around, *theta),
        };
        // The engine draws its batch from `StdRng::seed_from_u64(seed)`.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let batch = roi.sampler().sample_buffer(&mut rng, 400);
        let expected = overview_via_arrangement_walk(&data, &roi, batch);
        let got = call(&e, line);
        assert_eq!(
            serde_json::to_string(result(&got)).unwrap(),
            serde_json::to_string(&expected).unwrap(),
            "{line}"
        );
    }
    // Overview still draws through the shared sample cache: the md
    // session over the same batch is a hit, not a second draw.
    call(
        &e,
        r#"{"op": "session.open", "dataset": "d3", "kind": "md", "samples": 400, "seed": 9}"#,
    );
    let stats = call(&e, r#"{"op": "stats"}"#);
    let samples = result(&stats).get("sample_cache").unwrap();
    assert_eq!(
        samples.get("misses").unwrap().as_u64(),
        Some(2),
        "one draw per ROI"
    );
    assert_eq!(samples.get("hits").unwrap().as_u64(), Some(1));
}

/// Three `session.get_next` payloads per top-k scope on bluenile
/// (n = 2000, d = 5, k = 10, budget 3000, seed 11), pinned as text
/// captured from the packed-key top-k selection the fused kernel
/// replaced: any drift in the selected items, counts, confidence errors
/// or exemplar weights shows up here byte for byte.
#[test]
fn randomized_top_k_payloads_are_pinned() {
    let e = engine();
    call(
        &e,
        r#"{"op": "registry.load", "dataset": "bn", "builtin": "bluenile", "n": 2000, "d": 5, "seed": 43}"#,
    );
    let cases: [(&str, [&str; 3]); 2] = [
        (
            "top-k-ranked",
            [
                r#"{"done":false,"stability":0.0016666666666666668,"len":10,"head":[301,1555,511,102,757,520,210,243,1877,1914],"confidence_error":0.0014596530020503002,"samples_used":3000,"samples_total":3000,"distinct_rankings":2904,"regions_emitted":1,"exemplar_weights":[0.6762963520917972,0.2306022452622229,0.03215496748507755,0.6656412672518065,0.21291690873388194]}"#,
                r#"{"done":false,"stability":0.0011666666666666668,"len":10,"head":[301,1427,664,1862,1174,511,1555,1871,102,520],"confidence_error":0.000863758580508341,"samples_used":6000,"samples_total":6000,"distinct_rankings":5666,"regions_emitted":2,"exemplar_weights":[0.14022516466772886,0.47255826998019596,0.20477471638416503,0.7581608191173199,0.37454648917373606]}"#,
                r#"{"done":false,"stability":0.0008888888888888889,"len":10,"head":[301,1427,664,1862,1174,1871,511,1555,1265,1406],"confidence_error":0.0006156834361204373,"samples_used":9000,"samples_total":9000,"distinct_rankings":8304,"regions_emitted":3,"exemplar_weights":[0.14950865789948264,0.6030965096899426,0.2242210603166874,0.722172055102433,0.20521744602370792]}"#,
            ],
        ),
        (
            "top-k-set",
            [
                r#"{"done":false,"stability":0.013666666666666667,"len":10,"head":[102,301,511,520,664,1174,1427,1555,1862,1871],"confidence_error":0.004154613425967729,"samples_used":3000,"samples_total":3000,"distinct_rankings":1402,"regions_emitted":1,"exemplar_weights":[0.47208987558087795,0.4558255360870406,0.2552934256266036,0.6961467196032922,0.13985435868217405]}"#,
                r#"{"done":false,"stability":0.010166666666666666,"len":10,"head":[102,301,511,520,664,757,1174,1427,1555,1862],"confidence_error":0.0025382991009092943,"samples_used":6000,"samples_total":6000,"distinct_rankings":2154,"regions_emitted":2,"exemplar_weights":[0.4412436104223407,0.34759556431683164,0.10286371170455766,0.7457774960187987,0.34309821214196584]}"#,
                r#"{"done":false,"stability":0.010333333333333333,"len":10,"head":[60,121,301,565,681,1014,1096,1343,1498,1782],"confidence_error":0.002089255372602909,"samples_used":9000,"samples_total":9000,"distinct_rankings":2710,"regions_emitted":3,"exemplar_weights":[0.7547504236413224,0.2644650612516669,0.13951198843126764,0.23293342938637868,0.5354329574733432]}"#,
            ],
        ),
    ];
    for (scope, pinned) in cases {
        let opened = call(
            &e,
            &format!(
                r#"{{"op": "session.open", "dataset": "bn", "kind": "randomized", "scope": "{scope}", "k": 10, "budget": 3000, "seed": 11}}"#
            ),
        );
        let id = result(&opened).get("session").unwrap().as_u64().unwrap();
        for (i, expected) in pinned.iter().enumerate() {
            let next = call(
                &e,
                &format!(r#"{{"op": "session.get_next", "session": {id}}}"#),
            );
            assert_eq!(
                serde_json::to_string(result(&next)).unwrap(),
                *expected,
                "{scope} advance {i}"
            );
        }
    }
}

/// `verify` payloads pinned as text captured from the scalar oracle and
/// comparator rank the block sieve and radix rank replaced: Monte-Carlo
/// on fifa n = 1000 (whose ranking regions hold no sample), on a
/// 12-item bluenile table with non-zero stabilities (full orthant and a
/// cone inside it), and exact 2-D on csmetrics n = 1000. Any drift in a
/// ranking head or a count shows up here byte for byte.
#[test]
fn verify_payloads_are_pinned() {
    let e = engine();
    for load in [
        r#"{"op": "registry.load", "dataset": "fifa", "builtin": "fifa", "n": 1000, "seed": 7}"#,
        r#"{"op": "registry.load", "dataset": "bn12", "builtin": "bluenile", "n": 12, "seed": 7}"#,
        r#"{"op": "registry.load", "dataset": "cs", "builtin": "csmetrics", "n": 1000, "seed": 7}"#,
    ] {
        result(&call(&e, load));
    }
    let cases = [
        (
            r#"{"op": "verify", "dataset": "fifa", "weights": [1, 0.5, 0.3, 0.2], "samples": 20000, "seed": 5}"#,
            r#"{"stability":0,"method":"monte-carlo","items":1000,"head":[305,152,910,584,764,773,569,953,233,397],"samples":20000}"#,
        ),
        (
            r#"{"op": "verify", "dataset": "fifa", "weights": [0.2, 0.9, 0.4, 0.1], "samples": 20000, "seed": 5}"#,
            r#"{"stability":0,"method":"monte-carlo","items":1000,"head":[305,152,764,910,584,233,225,469,773,992],"samples":20000}"#,
        ),
        (
            r#"{"op": "verify", "dataset": "fifa", "weights": [0.7, 0.7, 0.1, 0.3], "samples": 20000, "seed": 5}"#,
            r#"{"stability":0,"method":"monte-carlo","items":1000,"head":[305,152,910,764,584,953,773,233,569,397],"samples":20000}"#,
        ),
        (
            r#"{"op": "verify", "dataset": "fifa", "weights": [0.05, 0.1, 1, 0.6], "samples": 20000, "seed": 5}"#,
            r#"{"stability":0,"method":"monte-carlo","items":1000,"head":[910,305,152,569,992,584,233,309,773,397],"samples":20000}"#,
        ),
        (
            r#"{"op": "verify", "dataset": "bn12", "weights": [1, 1, 1, 1, 1], "samples": 20000, "seed": 5}"#,
            r#"{"stability":0.0003,"method":"monte-carlo","items":12,"head":[10,7,2,0,9,5,11,8,3,6],"samples":20000}"#,
        ),
        (
            r#"{"op": "verify", "dataset": "bn12", "weights": [0.9, 0.1, 0.5, 0.2, 0.4], "samples": 20000, "seed": 5}"#,
            r#"{"stability":0.0005,"method":"monte-carlo","items":12,"head":[10,7,2,9,3,5,11,6,1,8],"samples":20000}"#,
        ),
        (
            r#"{"op": "verify", "dataset": "bn12", "weights": [0.3, 0.8, 0.2, 0.6, 0.1], "samples": 20000, "seed": 5}"#,
            r#"{"stability":0.00065,"method":"monte-carlo","items":12,"head":[10,0,9,11,5,7,4,8,3,2],"samples":20000}"#,
        ),
        (
            r#"{"op": "verify", "dataset": "bn12", "weights": [1, 1, 1, 1, 1], "samples": 20000, "seed": 5, "roi": {"around": [1, 1, 1, 1, 1], "theta": 0.3}}"#,
            r#"{"stability":0.00485,"method":"monte-carlo","items":12,"head":[10,7,2,0,9,5,11,8,3,6],"samples":20000}"#,
        ),
        (
            r#"{"op": "verify", "dataset": "cs", "weights": [1, 1]}"#,
            r#"{"stability":0.00003972326455022292,"method":"exact-2d","items":1000,"head":[879,380,262,231,726,642,861,505,227,166]}"#,
        ),
        (
            r#"{"op": "verify", "dataset": "cs", "weights": [0.9, 0.1]}"#,
            r#"{"stability":0.000015135498566309995,"method":"exact-2d","items":1000,"head":[879,380,262,231,642,726,505,861,166,564]}"#,
        ),
        (
            r#"{"op": "verify", "dataset": "cs", "weights": [0.2, 0.7]}"#,
            r#"{"stability":0.00007756118087785101,"method":"exact-2d","items":1000,"head":[879,380,262,231,726,861,642,227,505,104]}"#,
        ),
        (
            r#"{"op": "verify", "dataset": "cs", "weights": [0.55, 0.45]}"#,
            r#"{"stability":0.00017639515973656567,"method":"exact-2d","items":1000,"head":[879,380,262,231,726,642,861,505,227,166]}"#,
        ),
    ];
    for (request, expected) in cases {
        let response = call(&e, request);
        assert_eq!(
            serde_json::to_string(result(&response)).unwrap(),
            expected,
            "{request}"
        );
    }
}

/// An unclipped cone around (0.1, 1, 1) with θ = 0.3 leans across
/// w1 = 0, where a dominated item can outrank its dominator. Row t2 is
/// dominated by t1 (worse on `a` only) yet ranks above it under
/// weights (−0.05, 1, 1): the Monte-Carlo verify must report exactly the
/// share of the request's samples that produce this ranking, not 0.
#[test]
fn monte_carlo_verify_counts_dominated_swaps_under_an_unclipped_cone() {
    use rand::SeedableRng;
    let dir = std::env::temp_dir().join(format!("srank_service_cone_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("four.csv");
    std::fs::write(
        &path,
        "name,a,b,c\nt1,1,0.5,0.5\nt2,0.9,0.5,0.5\nt3,0.3,0.2,0.8\nt4,0.2,0.9,0.1\n",
    )
    .unwrap();
    let e = engine();
    result(&call(
        &e,
        &format!(
            r#"{{"op": "registry.load", "dataset": "four", "csv": "{}", "higher": ["a", "b", "c"]}}"#,
            path.display()
        ),
    ));
    std::fs::remove_dir_all(&dir).ok();
    let verified = call(
        &e,
        r#"{"op": "verify", "dataset": "four", "weights": [-0.05, 1, 1], "roi": {"around": [0.1, 1, 1], "theta": 0.3}, "samples": 100000, "seed": 3}"#,
    );
    let r = result(&verified);
    assert_eq!(r.get("method").unwrap().as_str(), Some("monte-carlo"));
    let head: Vec<u64> = r
        .get("head")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|x| x.as_u64().unwrap())
        .collect();
    assert_eq!(head, [3, 2, 1, 0], "t2 (row 1) outranks its dominator t1");

    let data = std::sync::Arc::clone(&e.registry().get("four").unwrap().dataset);
    let ranking = data.rank(&[-0.05, 1.0, 1.0]).unwrap();
    let samples = srank_sample::roi::RegionOfInterest::cone(&[0.1, 1.0, 1.0], 0.3)
        .sampler()
        .sample_buffer(&mut rand::rngs::StdRng::seed_from_u64(3), 100_000);
    let share = samples
        .iter_rows()
        .filter(|w| data.rank(w).unwrap() == ranking)
        .count() as f64
        / samples.len() as f64;
    assert!(share > 0.01, "share {share}");
    assert_eq!(r.get("stability").unwrap().as_f64(), Some(share));
}

fn error_message(response: &Value) -> &str {
    response
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .expect("error responses carry a message")
}

/// Closed-set parameters refuse values outside their set, naming the
/// valid ones, instead of answering `ok` with a silent fallback.
#[test]
fn closed_set_parameters_refuse_typos() {
    let e = engine();
    let top = call(&e, r#"{"op": "top", "sort_by": "reqeusts"}"#);
    assert_eq!(error_code(&top), "bad_request");
    let message = error_message(&top);
    assert!(
        message.contains("reqeusts") && message.contains("requests, errors, kernel_cpu_micros"),
        "{message}"
    );
    let trace = call(&e, r#"{"op": "trace", "filter_op": "pnig"}"#);
    assert_eq!(error_code(&trace), "bad_request");
    let message = error_message(&trace);
    assert!(
        message.contains("pnig") && message.contains("ping, batch, stats"),
        "{message}"
    );
    // Every documented value is still accepted.
    for key in [
        "kernel_cpu_micros",
        "requests",
        "errors",
        "queue_wait_micros",
        "bytes_written",
        "cache_hits",
        "cache_misses",
        "sheds",
        "deadline_expired",
    ] {
        let top = call(&e, &format!(r#"{{"op": "top", "sort_by": "{key}"}}"#));
        assert_eq!(
            result(&top).get("sorted_by").and_then(Value::as_str),
            Some(key)
        );
    }
    for op in Op::ALL {
        let trace = call(
            &e,
            &format!(r#"{{"op": "trace", "filter_op": "{}"}}"#, op.name()),
        );
        result(&trace);
    }
}

/// The text between `<!-- {marker}:begin -->` and `<!-- {marker}:end -->`
/// in the crate README.
fn readme_block(marker: &str) -> String {
    let readme = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("README.md");
    let readme = std::fs::read_to_string(readme).expect("read the crate README");
    let begin = format!("<!-- {marker}:begin -->\n");
    let end = format!("<!-- {marker}:end -->");
    let start = readme.find(&begin).expect("README has the begin marker") + begin.len();
    let stop = readme[start..]
        .find(&end)
        .expect("README has the end marker")
        + start;
    readme[start..stop].to_string()
}

/// The README's op table is the rendering of `Op::ALL`.
#[test]
fn readme_op_table_is_the_op_rendering() {
    let yes_no = |b: bool| if b { "yes" } else { "no" };
    let mut expected =
        String::from("| op | cacheable | retried by `call_retry` |\n|---|---|---|\n");
    for op in Op::ALL {
        expected.push_str(&format!(
            "| `{}` | {} | {} |\n",
            op.name(),
            yes_no(op.cacheable()),
            yes_no(op.retry_safe())
        ));
    }
    assert!(
        readme_block("op-table") == expected,
        "the README op table is stale; put this between the markers:\n{expected}"
    );
}

/// The README's phase table is the rendering of `Phase::ALL`.
#[test]
fn readme_phase_table_is_the_phase_rendering() {
    let mut expected =
        String::from("| span | `stats` name | histogram | covers |\n|---|---|---|---|\n");
    for phase in Phase::ALL {
        let (stats, histogram) = match phase.stats_name() {
            Some(name) => (format!("`{name}`"), "yes"),
            None => ("—".to_string(), "no"),
        };
        expected.push_str(&format!(
            "| `{}` | {stats} | {histogram} | {} |\n",
            phase.span_name(),
            phase.covers()
        ));
    }
    assert!(
        readme_block("phase-table") == expected,
        "the README phase table is stale; put this between the markers:\n{expected}"
    );
}

/// Every op has its README protocol entry.
#[test]
fn every_op_has_a_readme_entry() {
    let readme = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("README.md");
    let readme = std::fs::read_to_string(readme).expect("read the crate README");
    for op in Op::ALL {
        let entry = format!("**`{}`**", op.name());
        assert!(readme.contains(&entry), "README has no {entry} entry");
    }
}

/// The README's error-code table lists `ErrorCode::ALL`, in order.
#[test]
fn readme_error_table_is_the_error_code_rendering() {
    let expected: Vec<&str> = ErrorCode::ALL.iter().map(|c| c.as_str()).collect();
    let block = readme_block("error-table");
    let documented: Vec<&str> = block
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|rest| rest.split('`').next())
        .collect();
    assert_eq!(documented, expected, "README error-code table:\n{block}");
}

/// Every op dispatches, at the top level and as a batch sub-request:
/// none answers "unknown op", and a nested `batch` keeps its own
/// refusal.
#[test]
fn every_op_dispatches_top_level_and_in_a_batch() {
    let e = engine();
    let unknown = |response: &Value| {
        response.get("ok").and_then(Value::as_bool) == Some(false)
            && error_message(response).contains("unknown op")
    };
    for op in Op::ALL {
        let name = op.name();
        let top = call(&e, &format!(r#"{{"op": "{name}"}}"#));
        assert!(!unknown(&top), "{name} top level: {top:?}");
        let batch = call(
            &e,
            &format!(r#"{{"op": "batch", "requests": [{{"op": "{name}"}}]}}"#),
        );
        let sub = &result(&batch)
            .get("results")
            .and_then(Value::as_array)
            .unwrap()[0];
        assert!(!unknown(sub), "{name} in a batch: {sub:?}");
        if op == Op::Batch {
            assert_eq!(error_message(sub), "batch sub-requests cannot be batches");
        }
    }
    let nope = call(&e, r#"{"op": "nope"}"#);
    assert_eq!(error_message(&nope), "unknown op 'nope'");
}
