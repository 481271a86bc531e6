//! Equivalence of `session.get_next` answers with the core enumerators'
//! full rankings.
//!
//! A sweep2d or md advance pops its region without ranking it and builds
//! `head` with the fused top-k kernel at the weights `get_next` ranks all
//! `n` items at (the region's midpoint, or the md representative). This
//! suite drives sessions through `Engine::handle` and compares every
//! answer, byte for byte, with the payload built from the core
//! enumerator's `get_next().ranking`, walked beside it over the same
//! region of interest and the same sample batch: `head` for every cap in
//! {0, 1, 10, n, n + 3}, `len`, `stability`, and `region_lo`/`region_hi`
//! or `representative`. The inputs cover small csmetrics and fifa tables,
//! quarter-grid rows (exact score ties, broken by index), an md session
//! under an unclipped cone that leans out of the orthant (negative
//! representative weights), sessions restored from a snapshot, and
//! advances sent as batch sub-requests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use srank_core::prelude::RegionOfInterest;
use srank_core::{AngleInterval, Dataset, Enumerator2D, MdEnumerator};
use srank_service::proto::Object;
use srank_service::registry::DatasetSource;
use srank_service::{Engine, EngineConfig};
use std::path::PathBuf;
use std::sync::Arc;

fn call(engine: &Engine, request: &str) -> Value {
    let response = engine.handle(&serde_json::from_str(request).expect("valid request"));
    assert_eq!(
        response.get("ok").and_then(Value::as_bool),
        Some(true),
        "{request} -> {}",
        serde_json::to_string(&response).unwrap()
    );
    response.get("result").expect("a result").clone()
}

/// The core walk a session mirrors, answering the payload the service
/// would send for a `head` cap, or `None` when exhausted.
enum Reference<'a> {
    Sweep(Enumerator2D<'a>),
    Md(Box<MdEnumerator<'a>>),
}

impl Reference<'_> {
    fn next_payload(&mut self, head: usize) -> Option<Value> {
        let (ranking, stability, extra) = match self {
            Reference::Sweep(e) => {
                let s = e.get_next()?;
                let extra = Object::new()
                    .field("region_lo", s.region.lo)
                    .field("region_hi", s.region.hi);
                (s.ranking, s.stability, extra)
            }
            Reference::Md(e) => {
                let s = e.get_next()?;
                let extra = Object::new().field("representative", s.representative.as_slice());
                (s.ranking, s.stability, extra)
            }
        };
        let order = ranking.order();
        let mut out = Object::new()
            .field("done", false)
            .field("stability", stability)
            .field("len", order.len())
            .field("head", &order[..head.min(order.len())]);
        let Value::Object(extra) = extra.build() else {
            unreachable!("Object builds objects")
        };
        for (k, v) in extra {
            out = out.field(&k, v);
        }
        Some(out.build())
    }
}

/// The `head` caps every session cycles through: none, one, the default,
/// all `n`, and past `n`.
fn heads(n: usize) -> [usize; 5] {
    [0, 1, 10, n, n + 3]
}

fn get_next(id: u64, head: usize) -> String {
    format!(r#"{{"op": "session.get_next", "session": {id}, "head": {head}}}"#)
}

/// Advances session `id` up to `steps` times, alone or as the only
/// sub-request of a `batch`, and checks each answer against `reference`.
/// Returns how many rankings both produced.
fn walk(
    engine: &Engine,
    id: u64,
    reference: &mut Reference<'_>,
    n: usize,
    steps: usize,
    batched: bool,
) -> usize {
    for step in 0..steps {
        let head = heads(n)[step % 5];
        let request = get_next(id, head);
        let got = if batched {
            let batch = call(
                engine,
                &format!(r#"{{"op": "batch", "requests": [{request}]}}"#),
            );
            let sub = &batch.get("results").and_then(Value::as_array).unwrap()[0];
            assert_eq!(
                sub.get("ok").and_then(Value::as_bool),
                Some(true),
                "{sub:?}"
            );
            sub.get("result").unwrap().clone()
        } else {
            call(engine, &request)
        };
        match reference.next_payload(head) {
            Some(expected) => assert_eq!(
                serde_json::to_string(&got).unwrap(),
                serde_json::to_string(&expected).unwrap(),
                "session {id}, step {step}, head {head}"
            ),
            None => {
                assert_eq!(got.get("done"), Some(&Value::Bool(true)), "{got:?}");
                return step;
            }
        }
    }
    steps
}

fn open(engine: &Engine, request: &str) -> u64 {
    call(engine, request)
        .get("session")
        .unwrap()
        .as_u64()
        .unwrap()
}

fn dataset(engine: &Engine, name: &str) -> Arc<Dataset> {
    Arc::clone(&engine.registry().get(name).unwrap().dataset)
}

/// The batch an md `session.open` with `samples` and `seed` draws.
fn md_reference<'a>(
    data: &'a Dataset,
    roi: &RegionOfInterest,
    samples: usize,
    seed: u64,
) -> Reference<'a> {
    let batch = roi
        .sampler()
        .sample_buffer(&mut StdRng::seed_from_u64(seed), samples);
    Reference::Md(Box::new(
        MdEnumerator::with_samples(data, roi, batch).unwrap(),
    ))
}

/// Rows on the quarter grid {0, .25, .5, .75, 1}: many items tie exactly
/// at every weight, and only their index orders them.
fn quarter_grid(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (0..d)
                .map(|_| 0.25 * (rng.random::<u64>() % 5) as f64)
                .collect()
        })
        .collect()
}

#[test]
fn sweep2d_answers_are_the_full_rankings_prefixes() {
    let engine = Engine::with_defaults();
    call(
        &engine,
        r#"{"op": "registry.load", "dataset": "cs", "builtin": "csmetrics", "n": 60, "seed": 3}"#,
    );
    engine
        .registry()
        .load("grid", &DatasetSource::Rows(quarter_grid(40, 2, 11)))
        .unwrap();
    for (name, roi) in [
        ("cs", None),
        ("cs", Some(([0.4, 1.0], 0.3))),
        ("grid", None),
        ("grid", Some(([1.0, 0.2], 0.5))),
    ] {
        let data = dataset(&engine, name);
        let (interval, roi_field) = match roi {
            None => (AngleInterval::full(), String::new()),
            Some((around, theta)) => (
                AngleInterval::around(&around, theta).unwrap(),
                format!(
                    r#", "roi": {{"around": [{}, {}], "theta": {theta}}}"#,
                    around[0], around[1]
                ),
            ),
        };
        let mut reference = Reference::Sweep(Enumerator2D::new(&data, interval).unwrap());
        let id = open(
            &engine,
            &format!(
                r#"{{"op": "session.open", "dataset": "{name}", "kind": "sweep2d"{roi_field}}}"#
            ),
        );
        let produced = walk(&engine, id, &mut reference, data.len(), 400, false);
        assert!(produced > 5, "{name}: {produced} rankings");
    }
}

#[test]
fn md_answers_are_the_full_rankings_prefixes() {
    let engine = Engine::with_defaults();
    call(
        &engine,
        r#"{"op": "registry.load", "dataset": "fifa", "builtin": "fifa", "n": 50, "seed": 3}"#,
    );
    engine
        .registry()
        .load("grid3", &DatasetSource::Rows(quarter_grid(30, 3, 12)))
        .unwrap();
    let cone = |around: &[f64], theta: f64| {
        let text: Vec<String> = around.iter().map(f64::to_string).collect();
        (
            RegionOfInterest::cone(around, theta),
            format!(
                r#", "roi": {{"around": [{}], "theta": {theta}}}"#,
                text.join(", ")
            ),
        )
    };
    let full = |d: usize| (RegionOfInterest::full(d), String::new());
    for (name, (roi, roi_field)) in [
        ("fifa", full(4)),
        ("grid3", full(3)),
        // Unclipped: leans out of the orthant, so representatives can
        // carry a negative weight.
        ("grid3", cone(&[0.1, 1.0, 1.0], 0.3)),
        ("fifa", cone(&[0.05, 1.0, 0.2, 1.0], 0.4)),
    ] {
        let data = dataset(&engine, name);
        if !roi_field.is_empty() {
            let Reference::Md(mut e) = md_reference(&data, &roi, 300, 5) else {
                unreachable!("an md reference")
            };
            assert!(
                std::iter::from_fn(|| e.next_leaf())
                    .any(|leaf| leaf.representative.iter().any(|&w| w < 0.0)),
                "{name}: the cone should yield a negative representative weight"
            );
        }
        let mut reference = md_reference(&data, &roi, 300, 5);
        let id = open(
            &engine,
            &format!(
                r#"{{"op": "session.open", "dataset": "{name}", "kind": "md", "samples": 300, "seed": 5{roi_field}}}"#
            ),
        );
        let produced = walk(&engine, id, &mut reference, data.len(), 60, false);
        assert!(produced > 5, "{name}: {produced} rankings");
    }
}

#[test]
fn batched_advances_answer_as_direct_ones() {
    let engine = Engine::with_defaults();
    call(
        &engine,
        r#"{"op": "registry.load", "dataset": "cs", "builtin": "csmetrics", "n": 50, "seed": 4}"#,
    );
    call(
        &engine,
        r#"{"op": "registry.load", "dataset": "fifa", "builtin": "fifa", "n": 40, "seed": 4}"#,
    );
    let cs = dataset(&engine, "cs");
    let mut sweep = Reference::Sweep(Enumerator2D::new(&cs, AngleInterval::full()).unwrap());
    let id = open(
        &engine,
        r#"{"op": "session.open", "dataset": "cs", "kind": "sweep2d"}"#,
    );
    assert_eq!(walk(&engine, id, &mut sweep, cs.len(), 30, true), 30);

    let fifa = dataset(&engine, "fifa");
    let mut md = md_reference(&fifa, &RegionOfInterest::full(4), 200, 8);
    let id = open(
        &engine,
        r#"{"op": "session.open", "dataset": "fifa", "kind": "md", "samples": 200, "seed": 8}"#,
    );
    assert_eq!(walk(&engine, id, &mut md, fifa.len(), 30, true), 30);
}

/// A per-test data dir, removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn restored_sessions_answer_as_the_walk_continues() {
    let dir =
        TempDir(std::env::temp_dir().join(format!("srank-getnext-head-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    let with_dir = || {
        Engine::new(EngineConfig {
            data_dir: Some(dir.0.clone()),
            ..EngineConfig::default()
        })
    };
    let engine = with_dir();
    call(
        &engine,
        r#"{"op": "registry.load", "dataset": "cs", "builtin": "csmetrics", "n": 50, "seed": 6}"#,
    );
    call(
        &engine,
        r#"{"op": "registry.load", "dataset": "fifa", "builtin": "fifa", "n": 40, "seed": 6}"#,
    );
    let cs = dataset(&engine, "cs");
    let fifa = dataset(&engine, "fifa");
    let mut sweep = Reference::Sweep(Enumerator2D::new(&cs, AngleInterval::full()).unwrap());
    let mut md = md_reference(&fifa, &RegionOfInterest::full(4), 250, 9);
    let sweep_id = open(
        &engine,
        r#"{"op": "session.open", "dataset": "cs", "kind": "sweep2d"}"#,
    );
    let md_id = open(
        &engine,
        r#"{"op": "session.open", "dataset": "fifa", "kind": "md", "samples": 250, "seed": 9}"#,
    );
    assert_eq!(walk(&engine, sweep_id, &mut sweep, cs.len(), 7, false), 7);
    assert_eq!(walk(&engine, md_id, &mut md, fifa.len(), 7, false), 7);
    call(&engine, r#"{"op": "snapshot"}"#);
    drop(engine);

    let engine = with_dir();
    assert_eq!(walk(&engine, sweep_id, &mut sweep, cs.len(), 25, false), 25);
    assert_eq!(walk(&engine, md_id, &mut md, fifa.len(), 25, false), 25);
}
