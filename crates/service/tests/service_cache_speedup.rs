//! A repeated identical `verify` on a DoT-sized dataset must be served
//! from cache at least 10× faster than the cold computation. The request
//! (`dot`, d = 3, no `roi`) takes the exact 3-D kernel, so the cold side
//! is `Dataset::rank` plus one polygon clip by the ranking's adjacent-pair
//! half-spaces; the hot side is a hash lookup. The gap is about two
//! orders of magnitude even in debug builds, so the 10× threshold holds
//! under noisy CI neighbours.

use srank_service::registry::DatasetSource;
use srank_service::{Engine, EngineConfig};
use std::time::Instant;

#[test]
fn cached_verify_is_at_least_10x_faster_than_cold() {
    let engine = Engine::new(EngineConfig::default());
    engine
        .registry()
        .load(
            "dot",
            &DatasetSource::Builtin {
                family: "dot".into(),
                n: 2_000,
                d: 0,
                seed: 1322,
            },
        )
        .unwrap();
    let line =
        r#"{"op": "verify", "dataset": "dot", "weights": [1, 1, 1], "samples": 5000, "seed": 7}"#;

    let cold_start = Instant::now();
    let cold = engine.handle_line(line);
    let cold_time = cold_start.elapsed();
    assert!(
        cold.contains("\"cached\":false") || cold.contains("\"cached\": false"),
        "{cold}"
    );

    // Median of several cached calls, so one scheduler hiccup cannot fail
    // the assertion.
    let mut times = Vec::new();
    for _ in 0..9 {
        let start = Instant::now();
        let hot = engine.handle_line(line);
        times.push(start.elapsed());
        assert!(
            hot.contains("\"cached\":true") || hot.contains("\"cached\": true"),
            "{hot}"
        );
    }
    times.sort();
    let hot_time = times[times.len() / 2];
    assert!(
        cold_time >= hot_time * 10,
        "expected ≥ 10× speedup, got cold {cold_time:?} vs cached {hot_time:?}"
    );
}
