//! Conformance tests for the durable store: warm restarts serve cached
//! work without recomputation, sessions survive process death with
//! seeded-deterministic continuation, corrupt files are skipped (never a
//! panic), and changed dataset contents invalidate everything derived
//! from the old bits.
//!
//! "Process death" is modeled as dropping one engine and building a
//! second over the same data dir — exactly what a `kill -9` + restart
//! does to the on-disk state, since nothing here relies on destructors
//! (the crash-with-a-real-SIGKILL path runs in `scripts/check.sh`).

use serde_json::Value;
use srank_service::{Engine, EngineConfig};
use std::path::PathBuf;

fn obj(s: &str) -> Value {
    serde_json::from_str(s).expect("test request is valid JSON")
}

/// A per-test temp data dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("srank-persist-{tag}-{}", std::process::id()));
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

fn engine_with_dir(dir: &std::path::Path) -> Engine {
    Engine::new(EngineConfig {
        data_dir: Some(dir.to_path_buf()),
        ..EngineConfig::default()
    })
}

/// Sends one request, asserting success, and returns the `result`.
fn call(engine: &Engine, request: &str) -> Value {
    let response = engine.handle(&obj(request));
    assert_eq!(
        response.get("ok").and_then(Value::as_bool),
        Some(true),
        "request failed: {request} -> {}",
        serde_json::to_string(&response).unwrap()
    );
    response
        .get("result")
        .expect("ok responses carry a result")
        .clone()
}

/// Like [`call`], also returning the envelope's `cached` flag.
fn call_cached(engine: &Engine, request: &str) -> (Value, bool) {
    let response = engine.handle(&obj(request));
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    (
        response.get("result").unwrap().clone(),
        response.get("cached").and_then(Value::as_bool).unwrap(),
    )
}

fn stats_field<'a>(stats: &'a Value, path: &[&str]) -> &'a Value {
    let mut v = stats;
    for key in path {
        v = v.get(key).unwrap_or_else(|| panic!("stats has {path:?}"));
    }
    v
}

const LOAD_DOT: &str =
    r#"{"op": "registry.load", "dataset": "dot", "builtin": "dot", "n": 120, "d": 4, "seed": 9}"#;
const VERIFY_DOT: &str =
    r#"{"op": "verify", "dataset": "dot", "weights": [1, 1, 1], "samples": 4000, "seed": 5}"#;

/// The warm-restart acceptance test: a snapshotted result cache answers
/// the very first `verify` of the next process from cache (observable in
/// the hit counters), byte-identical to the original computation.
#[test]
fn warm_restart_serves_cached_verify_without_recomputation() {
    let dir = TempDir::new("warm");
    let first = {
        let engine = engine_with_dir(dir.path());
        call(&engine, LOAD_DOT);
        let (fresh, cached) = call_cached(&engine, VERIFY_DOT);
        assert!(!cached, "first computation is a miss");
        call(&engine, r#"{"op": "snapshot"}"#);
        fresh
    };

    // "Restart": a brand-new engine over the same data dir.
    let engine = engine_with_dir(dir.path());
    let stats = call(&engine, r#"{"op": "stats"}"#);
    assert_eq!(
        stats_field(&stats, &["datasets"]).as_u64(),
        Some(1),
        "dataset came back at boot"
    );
    assert!(
        stats_field(&stats, &["result_cache", "entries"]).as_u64() > Some(0),
        "result cache restored: {}",
        serde_json::to_string(&stats).unwrap()
    );
    let (warm, cached) = call_cached(&engine, VERIFY_DOT);
    assert!(cached, "the first request after restart is a cache hit");
    assert_eq!(
        serde_json::to_string(&warm).unwrap(),
        serde_json::to_string(&first).unwrap(),
        "restored answer is byte-identical"
    );
    let stats = call(&engine, r#"{"op": "stats"}"#);
    assert_eq!(
        stats_field(&stats, &["result_cache", "hits"]).as_u64(),
        Some(1)
    );
    assert_eq!(
        stats_field(&stats, &["result_cache", "misses"]).as_u64(),
        Some(0),
        "nothing was recomputed"
    );
}

/// Sample batches restore too: a cold `verify` with different weights
/// (same dataset/ROI/seed) reuses the persisted Monte-Carlo batch
/// instead of re-drawing it.
#[test]
fn warm_restart_reuses_persisted_sample_batches() {
    // d = 4: verification is Monte-Carlo (3-D full-orthant would be
    // exact and never draw a batch).
    let load = r#"{"op": "registry.load", "dataset": "s4", "builtin": "synthetic-independent", "n": 50, "d": 4, "seed": 2}"#;
    let dir = TempDir::new("samples");
    {
        let engine = engine_with_dir(dir.path());
        call(&engine, load);
        call(
            &engine,
            r#"{"op": "verify", "dataset": "s4", "weights": [1, 1, 1, 1], "samples": 3000, "seed": 5}"#,
        );
        call(&engine, r#"{"op": "snapshot"}"#);
    }
    let engine = engine_with_dir(dir.path());
    // Different weights ⇒ result-cache miss, but the sample batch for
    // (dataset, full ROI, 3000, seed 5) must come from the store.
    call(
        &engine,
        r#"{"op": "verify", "dataset": "s4", "weights": [2, 1, 1, 1], "samples": 3000, "seed": 5}"#,
    );
    let stats = call(&engine, r#"{"op": "stats"}"#);
    assert_eq!(
        stats_field(&stats, &["sample_cache", "hits"]).as_u64(),
        Some(1),
        "persisted sample batch reused: {}",
        serde_json::to_string(&stats).unwrap()
    );
    assert_eq!(
        stats_field(&stats, &["sample_cache", "misses"]).as_u64(),
        Some(0)
    );
}

/// FNV-1a over result payload text, the digest the service benchmark
/// keeps of every answer it checks.
fn digest(results: &[Value]) -> u64 {
    results.iter().fold(0xcbf2_9ce4_8422_2325, |h, result| {
        serde_json::to_string(result)
            .unwrap()
            .bytes()
            .fold(h, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    })
}

/// Monte-Carlo `verify` counts through the sample batch's grid index,
/// which is never persisted: a restored batch rebuilds it on its first
/// verify. Orthant and cone-ROI answers after a warm restart equal the
/// answers of the process that drew the batch, byte for byte, and each
/// equals the sieve reference (`stability_verify_md`) on the same batch.
#[test]
fn warm_restart_rebuilds_the_grid_index_and_answers_identically() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use srank_sample::roi::RegionOfInterest;

    let load = r#"{"op": "registry.load", "dataset": "f", "builtin": "fifa", "n": 40, "seed": 7}"#;
    let roi = r#"{"around": [1, 0.8, 0.6, 0.4], "theta": 0.6}"#;
    let (samples, seed) = (20_000, 5);
    let verify = |w: &[f64], roi_field: &str| {
        format!(
            r#"{{"op": "verify", "dataset": "f", "weights": {w:?}, "samples": {samples}, "seed": {seed}{roi_field}}}"#
        )
    };
    let rois = [String::new(), format!(r#", "roi": {roi}"#)];
    let weights: Vec<Vec<f64>> = (0..12)
        .map(|i| {
            let t = f64::from(i) / 12.0;
            vec![1.0 - 0.5 * t, 0.3 + 0.6 * t, 0.5, 0.2 + 0.3 * (1.0 - t)]
        })
        .collect();
    let dir = TempDir::new("grid-index");
    let before: Vec<Value> = {
        let engine = engine_with_dir(dir.path());
        call(&engine, load);
        // Draw both batches and build their indices, then persist them
        // before any of the compared answers exists.
        for roi_field in &rois {
            call(&engine, &verify(&[0.9, 0.9, 0.1, 0.1], roi_field));
        }
        call(&engine, r#"{"op": "snapshot"}"#);
        rois.iter()
            .flat_map(|roi_field| weights.iter().map(move |w| (w, roi_field)))
            .map(|(w, roi_field)| call(&engine, &verify(w, roi_field)))
            .collect()
    };

    let engine = engine_with_dir(dir.path());
    let data = std::sync::Arc::clone(&engine.registry().get("f").unwrap().dataset);
    let regions = [
        RegionOfInterest::full(4),
        RegionOfInterest::cone(&[1.0, 0.8, 0.6, 0.4], 0.6),
    ];
    let mut after = Vec::new();
    for (roi_field, region) in rois.iter().zip(&regions) {
        let batch = region
            .sampler()
            .sample_buffer(&mut StdRng::seed_from_u64(seed), samples);
        for w in &weights {
            let (result, cached) = call_cached(&engine, &verify(w, roi_field));
            assert!(!cached, "computed after the restart: {w:?}{roi_field}");
            let ranking = data.rank(w).unwrap();
            let sieve = srank_core::stability_verify_md(&data, &ranking, region, &batch)
                .unwrap()
                .map_or(0.0, |v| v.stability);
            let got = result.get("stability").and_then(Value::as_f64).unwrap();
            assert_eq!(got.to_bits(), sieve.to_bits(), "{w:?}{roi_field}");
            after.push(result);
        }
    }
    assert!(
        after
            .iter()
            .filter(|r| r.get("stability").and_then(Value::as_f64) > Some(0.0))
            .count()
            > 6,
        "most answers are non-zero, so the counts are compared, not just zeros"
    );
    assert_eq!(after, before, "answers after the restart");
    assert_eq!(digest(&after), digest(&before));
    let stats = call(&engine, r#"{"op": "stats"}"#);
    assert_eq!(
        stats_field(&stats, &["sample_cache", "misses"]).as_u64(),
        Some(0),
        "both batches were restored, not drawn again"
    );
}

/// The seeded-determinism acceptance test: a randomized session saved,
/// "killed", and resumed in a fresh process continues `get_next` with
/// results identical to an uninterrupted run.
#[test]
fn restored_randomized_session_continues_identically() {
    let dir = TempDir::new("resume");
    let open = r#"{"op": "session.open", "dataset": "dot", "kind": "randomized", "scope": "top-k-set", "k": 5, "seed": 77, "budget": 500}"#;
    let next = |id: u64| format!(r#"{{"op": "session.get_next", "session": {id}}}"#);

    // Uninterrupted reference: five calls in one process.
    let reference: Vec<String> = {
        let engine = Engine::with_defaults();
        call(&engine, LOAD_DOT);
        let id = call(&engine, open)
            .get("session")
            .unwrap()
            .as_u64()
            .unwrap();
        (0..5)
            .map(|_| serde_json::to_string(&call(&engine, &next(id))).unwrap())
            .collect()
    };

    // Interrupted run: two calls, an explicit save, then process death.
    let id = {
        let engine = engine_with_dir(dir.path());
        call(&engine, LOAD_DOT);
        let id = call(&engine, open)
            .get("session")
            .unwrap()
            .as_u64()
            .unwrap();
        for (i, expected) in reference.iter().take(2).enumerate() {
            let got = serde_json::to_string(&call(&engine, &next(id))).unwrap();
            assert_eq!(&got, expected, "pre-save call {i} diverged");
        }
        let saved = call(
            &engine,
            &format!(r#"{{"op": "session.save", "session": {id}}}"#),
        );
        assert_eq!(saved.get("saved").and_then(Value::as_bool), Some(true));
        id
    };

    // Fresh process: the dataset is loaded anew (same spec ⇒ same bits ⇒
    // same generation-1 stamp), the session resumed from its checkpoint.
    let engine = engine_with_dir(dir.path());
    call(&engine, LOAD_DOT);
    let resumed = call(
        &engine,
        &format!(r#"{{"op": "session.resume", "session": {id}}}"#),
    );
    assert_eq!(resumed.get("restored").and_then(Value::as_bool), Some(true));
    assert_eq!(resumed.get("returned").and_then(Value::as_u64), Some(2));
    for (i, expected) in reference.iter().enumerate().skip(2) {
        let got = serde_json::to_string(&call(&engine, &next(id))).unwrap();
        assert_eq!(
            &got, expected,
            "post-resume call {i} diverged from uninterrupted run"
        );
    }
}

/// Sweep-2D and arrangement sessions ride through a *full snapshot*
/// (no explicit save) and continue exactly.
#[test]
fn full_snapshot_restores_sessions_of_every_kind() {
    let dir = TempDir::new("kinds");
    let load2d = r#"{"op": "registry.load", "dataset": "s2", "builtin": "synthetic-independent", "n": 40, "d": 2, "seed": 4}"#;
    let load3d = r#"{"op": "registry.load", "dataset": "s3", "builtin": "synthetic-independent", "n": 12, "d": 3, "seed": 4}"#;
    let next = |id: u64| format!(r#"{{"op": "session.get_next", "session": {id}}}"#);

    let reference: Vec<Vec<String>>;
    let ids: Vec<u64>;
    {
        let engine = Engine::with_defaults();
        call(&engine, load2d);
        call(&engine, load3d);
        let sweep = call(
            &engine,
            r#"{"op": "session.open", "dataset": "s2", "kind": "sweep2d"}"#,
        )
        .get("session")
        .unwrap()
        .as_u64()
        .unwrap();
        let md = call(
            &engine,
            r#"{"op": "session.open", "dataset": "s3", "kind": "md", "samples": 400, "seed": 6}"#,
        )
        .get("session")
        .unwrap()
        .as_u64()
        .unwrap();
        reference = vec![sweep, md]
            .into_iter()
            .map(|id| {
                (0..4)
                    .map(|_| serde_json::to_string(&call(&engine, &next(id))).unwrap())
                    .collect()
            })
            .collect();
    }
    {
        let engine = engine_with_dir(dir.path());
        call(&engine, load2d);
        call(&engine, load3d);
        let sweep = call(
            &engine,
            r#"{"op": "session.open", "dataset": "s2", "kind": "sweep2d"}"#,
        )
        .get("session")
        .unwrap()
        .as_u64()
        .unwrap();
        let md = call(
            &engine,
            r#"{"op": "session.open", "dataset": "s3", "kind": "md", "samples": 400, "seed": 6}"#,
        )
        .get("session")
        .unwrap()
        .as_u64()
        .unwrap();
        ids = vec![sweep, md];
        // Advance each once, then snapshot everything.
        for &id in &ids {
            call(&engine, &next(id));
        }
        let report = call(&engine, r#"{"op": "snapshot"}"#);
        assert_eq!(report.get("sessions").and_then(Value::as_u64), Some(2));
    }
    // Restart: sessions restore at boot (no explicit resume needed).
    let engine = engine_with_dir(dir.path());
    for (k, &id) in ids.iter().enumerate() {
        for (i, expected) in reference[k].iter().enumerate().skip(1) {
            let got = serde_json::to_string(&call(&engine, &next(id))).unwrap();
            assert_eq!(&got, expected, "session kind {k}, call {i} diverged");
        }
    }
}

/// Crash-recovery conformance: corrupt, truncated, or partial files —
/// including a leftover `.tmp` from a checkpoint killed mid-write — are
/// skipped with a warning; everything intact still restores; the engine
/// never panics at boot.
#[test]
fn corrupt_and_partial_files_are_skipped_never_panic() {
    let dir = TempDir::new("corrupt");
    let id = {
        let engine = engine_with_dir(dir.path());
        call(&engine, LOAD_DOT);
        call(
            &engine,
            r#"{"op": "registry.load", "dataset": "two", "builtin": "synthetic-independent", "n": 20, "d": 2, "seed": 1}"#,
        );
        call(&engine, VERIFY_DOT);
        let id = call(
            &engine,
            r#"{"op": "session.open", "dataset": "two", "kind": "sweep2d"}"#,
        )
        .get("session")
        .unwrap()
        .as_u64()
        .unwrap();
        call(&engine, r#"{"op": "snapshot"}"#);
        id
    };

    // Simulate a kill -9 mid-checkpoint: a partial .tmp next to the
    // complete files, a truncated dataset snapshot, and a garbage
    // session file.
    let datasets = dir.path().join("datasets");
    std::fs::write(datasets.join("dot.snap.tmp"), "{\"format\": \"srank-st").unwrap();
    let two = datasets.join("two.snap");
    let full = std::fs::read_to_string(&two).unwrap();
    std::fs::write(&two, &full[..full.len() / 2]).unwrap();
    std::fs::write(
        dir.path().join("sessions").join(format!("{id}.sess")),
        "garbage\nnot json\n",
    )
    .unwrap();
    std::fs::write(dir.path().join("sessions").join("999.sess"), "").unwrap();

    let engine = engine_with_dir(dir.path());
    // Explicit re-restore surfaces the warnings in-band for inspection.
    let report = call(&engine, r#"{"op": "restore"}"#);
    let warnings = report.get("warnings").unwrap().as_array().unwrap();
    assert!(
        !warnings.is_empty(),
        "corruption must be reported: {}",
        serde_json::to_string(&report).unwrap()
    );
    // The intact dataset still restored with its cache: first verify is
    // a hit.
    let (_, cached) = call_cached(&engine, VERIFY_DOT);
    assert!(cached, "intact snapshot content survives corrupt siblings");
    // The corrupted parts are simply gone, not fatal.
    let stats = call(&engine, r#"{"op": "stats"}"#);
    assert_eq!(stats_field(&stats, &["datasets"]).as_u64(), Some(1));
}

/// The generation-stamp compatibility gate: a CSV whose bits changed
/// between snapshot and restart loads fresh, and nothing derived from
/// the old contents (caches, sessions) survives.
#[test]
fn changed_dataset_contents_invalidate_the_snapshot() {
    let dir = TempDir::new("drift");
    let csv = dir.path().join("people.csv");
    std::fs::write(&csv, "a,b\n0.9,0.1\n0.4,0.6\n0.2,0.8\n").unwrap();
    let load = format!(
        r#"{{"op": "registry.load", "dataset": "p", "csv": "{}", "higher": ["a", "b"]}}"#,
        csv.display()
    );
    let verify = r#"{"op": "verify", "dataset": "p", "weights": [1, 1]}"#;
    let first = {
        let engine = engine_with_dir(dir.path());
        call(&engine, &load);
        let id = call(
            &engine,
            r#"{"op": "session.open", "dataset": "p", "kind": "sweep2d"}"#,
        )
        .get("session")
        .unwrap()
        .as_u64()
        .unwrap();
        let _ = id;
        let (result, _) = call_cached(&engine, verify);
        call(&engine, r#"{"op": "snapshot"}"#);
        result
    };

    // The file changes on disk between the two processes.
    std::fs::write(&csv, "a,b\n0.55,0.5\n0.45,0.52\n0.2,0.8\n").unwrap();

    let engine = engine_with_dir(dir.path());
    // Boot restore already detected the drift (logged + fresh
    // generation); a second explicit restore refuses to roll the live,
    // newer registration back to the snapshot's generation.
    let report = call(&engine, r#"{"op": "restore"}"#);
    let warnings = report.get("warnings").unwrap().as_array().unwrap();
    assert!(
        warnings.iter().any(|w| w
            .as_str()
            .is_some_and(|w| w.contains("contents changed") || w.contains("left untouched"))),
        "drift must be reported: {}",
        serde_json::to_string(&report).unwrap()
    );
    // The dataset is live (re-loaded fresh), but nothing cached survived:
    // the verify recomputes against the *new* contents.
    let (result, cached) = call_cached(&engine, verify);
    assert!(!cached, "stale cache must not serve");
    assert_ne!(
        serde_json::to_string(&result).unwrap(),
        serde_json::to_string(&first).unwrap(),
        "the answer reflects the new bits"
    );
    let stats = call(&engine, r#"{"op": "stats"}"#);
    assert_eq!(
        stats_field(&stats, &["sessions"])
            .as_array()
            .map(<[Value]>::len),
        Some(0),
        "sessions over the old contents are gone"
    );
}

/// The background journal checkpoints dirty sessions without any
/// explicit op, and its shutdown flush writes a full snapshot.
#[test]
fn journal_checkpoints_dirty_sessions_and_flushes_on_shutdown() {
    use std::time::Duration;
    let dir = TempDir::new("journal");
    let next = |id: u64| format!(r#"{{"op": "session.get_next", "session": {id}}}"#);
    let reference: Vec<String>;
    let id;
    {
        let engine = engine_with_dir(dir.path());
        call(&engine, LOAD_DOT);
        let open = r#"{"op": "session.open", "dataset": "dot", "kind": "randomized", "seed": 3, "budget": 300}"#;
        id = call(&engine, open)
            .get("session")
            .unwrap()
            .as_u64()
            .unwrap();
        reference = {
            let reference_engine = Engine::with_defaults();
            call(&reference_engine, LOAD_DOT);
            let rid = call(&reference_engine, open)
                .get("session")
                .unwrap()
                .as_u64()
                .unwrap();
            (0..4)
                .map(|_| serde_json::to_string(&call(&reference_engine, &next(rid))).unwrap())
                .collect()
        };
        let mut journal =
            srank_service::store::journal::start(engine.core_arc(), Duration::from_millis(50))
                .expect("engine has a store");
        for expected in reference.iter().take(2) {
            let got = serde_json::to_string(&call(&engine, &next(id))).unwrap();
            assert_eq!(&got, expected);
        }
        // Give the journal a couple of ticks to persist the dirty session.
        std::thread::sleep(Duration::from_millis(300));
        journal.shutdown(); // final flush: full snapshot
        let stats = call(&engine, r#"{"op": "stats"}"#);
        assert!(
            stats_field(&stats, &["store", "journal_checkpoints"]).as_u64() > Some(0),
            "journal ticked: {}",
            serde_json::to_string(&stats).unwrap()
        );
        assert!(
            stats_field(&stats, &["store", "snapshots"]).as_u64() > Some(0),
            "shutdown flushed a snapshot"
        );
    }
    let engine = engine_with_dir(dir.path());
    for expected in reference.iter().skip(2) {
        let got = serde_json::to_string(&call(&engine, &next(id))).unwrap();
        assert_eq!(
            &got, expected,
            "journal-persisted session continues exactly"
        );
    }
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite acceptance: CSV datasets through the *full* persistence
    /// cycle — load CSV → prime caches + sessions → snapshot → fresh
    /// engine → restore → byte-identical `verify` and `get_next`
    /// responses, across randomized scopes and seeds.
    #[test]
    fn csv_datasets_full_cycle_byte_identical_across_scopes_and_seeds(
        seed in 0u64..10_000,
        scope_pick in 0usize..3,
        rows in prop::collection::vec(prop::collection::vec(0.05..0.95f64, 3), 6..14),
    ) {
        let scope = ["full", "top-k-ranked", "top-k-set"][scope_pick];
        let dir = TempDir::new(&format!("csv-cycle-{seed}-{scope_pick}"));
        let csv = dir.path().join("data.csv");
        let mut text = String::from("x,y,z\n");
        for row in &rows {
            text.push_str(&format!("{},{},{}\n", row[0], row[1], row[2]));
        }
        std::fs::write(&csv, text).unwrap();
        let load = format!(
            r#"{{"op": "registry.load", "dataset": "c", "csv": "{}", "higher": ["x", "y", "z"]}}"#,
            csv.display()
        );
        let verify = format!(
            r#"{{"op": "verify", "dataset": "c", "weights": [1, 2, 1], "samples": 800, "seed": {seed}}}"#
        );
        let open = format!(
            r#"{{"op": "session.open", "dataset": "c", "kind": "randomized", "scope": "{scope}", "k": 3, "seed": {seed}, "budget": 200}}"#
        );
        let next = |id: u64| format!(r#"{{"op": "session.get_next", "session": {id}}}"#);

        // Uninterrupted reference.
        let (ref_verify, ref_steps) = {
            let engine = Engine::with_defaults();
            call(&engine, &load);
            let v = serde_json::to_string(&call(&engine, &verify)).unwrap();
            let id = call(&engine, &open).get("session").unwrap().as_u64().unwrap();
            let steps: Vec<String> = (0..4)
                .map(|_| serde_json::to_string(&call(&engine, &next(id))).unwrap())
                .collect();
            (v, steps)
        };

        // Primed + snapshotted run, cut after two steps.
        let id = {
            let engine = engine_with_dir(dir.path());
            call(&engine, &load);
            prop_assert_eq!(
                &serde_json::to_string(&call(&engine, &verify)).unwrap(),
                &ref_verify
            );
            let id = call(&engine, &open).get("session").unwrap().as_u64().unwrap();
            for expected in ref_steps.iter().take(2) {
                prop_assert_eq!(&serde_json::to_string(&call(&engine, &next(id))).unwrap(), expected);
            }
            call(&engine, r#"{"op": "snapshot"}"#);
            id
        };

        // Fresh engine over the same dir: cached verify is byte-identical
        // (and a hit), the session continues exactly.
        let engine = engine_with_dir(dir.path());
        let (warm, cached) = call_cached(&engine, &verify);
        prop_assert!(cached, "verify must answer from the restored cache");
        prop_assert_eq!(&serde_json::to_string(&warm).unwrap(), &ref_verify);
        for expected in ref_steps.iter().skip(2) {
            prop_assert_eq!(&serde_json::to_string(&call(&engine, &next(id))).unwrap(), expected);
        }
    }
}

/// Persistence ops without a data dir answer `bad_request`, not silence.
#[test]
fn persistence_ops_require_a_data_dir() {
    let engine = Engine::with_defaults();
    for op in ["snapshot", "restore"] {
        let response = engine.handle(&obj(&format!(r#"{{"op": "{op}"}}"#)));
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
        let code = response.get("error").unwrap().get("code").unwrap();
        assert_eq!(code.as_str(), Some("bad_request"), "{op}");
    }
}

/// `stats` with `"format": "prometheus"` renders the text exposition,
/// and the `--metrics-port` responder serves it over plain HTTP.
#[test]
fn prometheus_exposition_over_stats_and_metrics_port() {
    use std::io::{Read, Write};
    let engine = std::sync::Arc::new(Engine::with_defaults());
    call(&engine, LOAD_DOT);
    call(&engine, VERIFY_DOT);
    let result = call(&engine, r#"{"op": "stats", "format": "prometheus"}"#);
    let text = result.get("text").unwrap().as_str().unwrap();
    for needle in [
        "# TYPE srank_sessions_open gauge",
        "srank_result_cache_misses_total 1",
        "srank_op_latency_micros_bucket{op=\"verify\"",
        "srank_op_latency_micros_count{op=\"verify\"} 1",
        "srank_pool_workers",
    ] {
        assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
    }

    let mut metrics = srank_service::serve_metrics(std::sync::Arc::clone(&engine), "127.0.0.1:0")
        .expect("bind metrics port");
    // An HTTP/1.0 scraper without keep-alive gets one response and a
    // clean close (the legacy one-shot contract still holds).
    let mut conn = std::net::TcpStream::connect(metrics.addr()).unwrap();
    conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("Connection: close"), "{response}");
    assert!(response.contains("srank_uptime_seconds"), "{response}");
    metrics.shutdown();
}

/// Every row of the engine's describe walk — the catalog the README
/// metrics table is rendered from — is really present on both sides:
/// the Prometheus series has a `# TYPE` line and the stats path
/// resolves in the `stats` JSON. The exposition carries exactly the
/// described families (a series written outside the walk fails), and
/// the kinds follow the naming rule: every counter ends in `_total`,
/// no gauge does.
#[test]
fn counter_catalog_matches_live_exposition_and_stats() {
    let dir = TempDir::new("counter-catalog");
    let engine = engine_with_dir(dir.path());
    call(&engine, LOAD_DOT);
    call(&engine, VERIFY_DOT);
    call(&engine, r#"{"op": "snapshot"}"#);
    let text = call(&engine, r#"{"op": "stats", "format": "prometheus"}"#);
    let text = text.get("text").unwrap().as_str().unwrap();
    let stats = call(&engine, r#"{"op": "stats"}"#);
    let rows = engine.describe_metrics();
    for row in &rows {
        let (path, series) = (&row.path, row.series);
        assert!(
            text.contains(&format!("# TYPE {series} ")),
            "described series '{series}' missing from the Prometheus exposition"
        );
        let mut node = &stats;
        for segment in path.split('.') {
            node = node.get(segment).unwrap_or_else(|| {
                panic!("described stats path '{path}' missing at '{segment}' in stats JSON")
            });
        }
    }

    let exposed: std::collections::BTreeSet<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split(' ').next())
        .collect();
    let described: std::collections::BTreeSet<&str> = rows.iter().map(|r| r.series).collect();
    assert_eq!(
        exposed, described,
        "exposed families must equal the described set"
    );
    assert_eq!(described.len(), rows.len(), "each series is described once");

    use srank_service::metrics::Kind;
    for row in &rows {
        match row.kind {
            Kind::Counter => assert!(row.series.ends_with("_total"), "counter {}", row.series),
            _ => assert!(
                !row.series.ends_with("_total"),
                "non-counter {}",
                row.series
            ),
        }
    }
}

/// Reads exactly one HTTP response (headers + Content-Length body) off a
/// keep-alive metrics connection, returning (head, body).
fn read_metrics_response(conn: &mut std::net::TcpStream) -> (String, String) {
    use std::io::Read;
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(i) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        let n = conn.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed before a complete response head");
        raw.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&raw[..header_end]).into_owned();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .expect("response carries Content-Length");
    while raw.len() < header_end + content_length {
        let n = conn.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        raw.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&raw[header_end..header_end + content_length]).into_owned();
    (head, body)
}

/// The `--metrics-port` endpoint is a persistent keep-alive HTTP server:
/// one connection serves multiple scrapes, and successive connections
/// each get served (the accept loop survives a connection ending).
#[test]
fn metrics_endpoint_serves_repeated_scrapes() {
    use std::io::Write;
    let engine = std::sync::Arc::new(Engine::with_defaults());
    call(&engine, LOAD_DOT);
    let mut metrics = srank_service::serve_metrics(std::sync::Arc::clone(&engine), "127.0.0.1:0")
        .expect("bind metrics port");

    // Two scrapes on ONE keep-alive connection; the second reflects
    // state changes made between scrapes (a fresh rendering per scrape).
    let mut conn = std::net::TcpStream::connect(metrics.addr()).unwrap();
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let (head1, body1) = read_metrics_response(&mut conn);
    assert!(head1.starts_with("HTTP/1.1 200 OK"), "{head1}");
    assert!(head1.contains("Connection: keep-alive"), "{head1}");
    assert!(body1.contains("srank_uptime_seconds"), "{body1}");

    call(&engine, VERIFY_DOT);
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let (head2, body2) = read_metrics_response(&mut conn);
    assert!(head2.starts_with("HTTP/1.1 200 OK"), "{head2}");
    assert!(
        body2.contains("srank_op_latency_micros_count{op=\"verify\"} 1"),
        "second scrape on the same connection must see the verify:\n{body2}"
    );
    drop(conn);

    // Successive connections each get served too.
    for _ in 0..2 {
        let mut conn = std::net::TcpStream::connect(metrics.addr()).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let (head, body) = read_metrics_response(&mut conn);
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("Connection: close"), "{head}");
        assert!(body.contains("srank_uptime_seconds"), "{body}");
    }
    metrics.shutdown();
}

/// A data dir written by the release before the pair/split-arena `md`
/// codec (captured verbatim from that build): datasets `s2` (d = 2) and
/// `s3` (d = 3), sweep2d session 16 and md session 35, each advanced twice.
const PARENT_FORMAT_STORE: &[(&str, &str)] = &[
    (
        "MANIFEST.json",
        r##"{"format":"srank-store","version":1,"kind":"manifest","lines":2,"checksum":"dae0dcc948223490"}
{"dataset":"s2","file":"s2.snap","generation":1,"data_checksum":"67621f3cf2387628"}
{"dataset":"s3","file":"s3.snap","generation":2,"data_checksum":"04b75a9540614fcc"}
"##,
    ),
    (
        "datasets/s2.snap",
        r##"{"format":"srank-store","version":1,"kind":"dataset","lines":0,"checksum":"cbf29ce484222325","dataset":"s2","generation":1,"data_checksum":"67621f3cf2387628","source":{"kind":"builtin","family":"synthetic-independent","n":5,"d":2,"seed":"0000000000000004"}}
"##,
    ),
    (
        "datasets/s3.snap",
        r##"{"format":"srank-store","version":1,"kind":"dataset","lines":1,"checksum":"9837086f27ac7eef","dataset":"s3","generation":2,"data_checksum":"04b75a9540614fcc","source":{"kind":"builtin","family":"synthetic-independent","n":4,"d":3,"seed":"0000000000000004"}}
{"t":"samples","key":"s3|g2|full|n6|r6","buffer":{"dim":3,"data":[0.8068575353197326,0.5803178713679407,0.11050830678618125,0.5398916248873781,0.03588620355800498,0.8409692109528505,0.28299750255407974,0.8780387387470455,0.38595386616492294,0.34261114798381664,0.11583866790134113,0.9323084276654664,0.5135437924710495,0.42132605159698766,0.7475005896052149,0.22819509550137965,0.38432870138296504,0.8945492986316629]}}
"##,
    ),
    (
        "sessions/16.sess",
        r##"{"format":"srank-store","version":1,"kind":"session","lines":1,"checksum":"7bfb09fb378ec1a1","dataset":"s2","data_checksum":"67621f3cf2387628"}
{"id":16,"dataset":"s2","generation":1,"returned":2,"last_stability":0.17133017243151547,"state":{"kind":"sweep2d","state":{"n_items":5,"regions":[[0,0.16251155035748757,0.10345806619568647],[0.16251155035748757,0.43163635588204835,0.17133017243151547],[0.43163635588204835,0.5928492643872855,0.10263132511531978],[0.5928492643872855,1.3157698203351518,0.460225519767376],[1.3157698203351518,1.3726274169028059,0.036196670184267726],[1.3726274169028059,1.3853746171734316,0.008115119734609707],[1.3853746171734316,1.5707963267948966,0.1180431265712248]],"stored":null,"heap":[[0.1180431265712248,6],[0.10345806619568647,0],[0.008115119734609707,5],[0.10263132511531978,2],[0.036196670184267726,4]]}}}
"##,
    ),
    (
        "sessions/35.sess",
        r##"{"format":"srank-store","version":1,"kind":"session","lines":1,"checksum":"1a05a7bace91f2ce","dataset":"s3","data_checksum":"04b75a9540614fcc"}
{"id":35,"dataset":"s3","generation":2,"returned":2,"last_stability":0.3333333333333333,"state":{"kind":"md","state":{"n_items":4,"hyperplanes":[[-0.0846099207253177,0.5603031866444415,-1],[0.07153084690387312,-0.43969681335555855,-0.32985048390922883],[0.9153900792746823,0.5046464828861876,-0.9627172535900081],[0.15614076762919082,-1,0.6701495160907711],[1,-0.05565670375825378,0.03728274640999185],[0.8438592323708092,0.9443432962417462,-0.6328667696807793]],"samples":{"dim":3,"data":[0.5398916248873781,0.03588620355800498,0.8409692109528505,0.34261114798381664,0.11583866790134113,0.9323084276654664,0.22819509550137965,0.38432870138296504,0.8945492986316629,0.5135437924710495,0.42132605159698766,0.7475005896052149,0.8068575353197326,0.5803178713679407,0.11050830678618125,0.28299750255407974,0.8780387387470455,0.38595386616492294]},"heap":[{"count":1,"seq":4,"cone":[[0.0846099207253177,-0.5603031866444415,1],[0.8438592323708092,0.9443432962417462,-0.6328667696807793]],"pending":6,"sb":3,"se":4}],"seq":5,"mode":"sample-partition","roi_halfspaces":[]}}}
"##,
    ),
];

/// Format compatibility: an md session snapshot in the untagged
/// coefficient-row format is refused with an error naming the format and
/// skipped through the store's log-and-skip path, while the sweep2d
/// session stored beside it restores and continues exactly.
#[test]
fn parent_format_md_session_is_skipped_and_its_neighbours_restore() {
    let dir = TempDir::new("parent-md");
    for (path, text) in PARENT_FORMAT_STORE {
        let path = dir.path().join(path);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    }
    let engine = engine_with_dir(dir.path());
    let report = call(&engine, r#"{"op": "restore"}"#);
    let warnings: Vec<&str> = report
        .get("warnings")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(report.get("datasets").and_then(Value::as_u64), Some(2));
    assert_eq!(report.get("sessions").and_then(Value::as_u64), Some(1));
    assert!(
        warnings.iter().any(|w| w.contains("35.sess")
            && w.contains("coefficient-row")
            && w.contains("md-pairs-v1")),
        "the md session is skipped with a warning naming its format: {warnings:?}"
    );

    let next = call(&engine, r#"{"op": "session.get_next", "session": 16}"#);
    assert_eq!(
        serde_json::to_string(&next).unwrap(),
        r#"{"done":false,"stability":0.1180431265712248,"len":5,"head":[3,2,1,0,4],"region_lo":1.3853746171734316,"region_hi":1.5707963267948966}"#,
        "the sweep2d session continues where the parent build left it"
    );
    let md = engine.handle(&obj(r#"{"op": "session.get_next", "session": 35}"#));
    assert_eq!(
        md.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("session_not_found"),
        "{md:?}"
    );
}
