//! Round-trip property tests for the durable state serialization: every
//! detachable enumerator state must survive `to_value` → JSON text →
//! `from_value` with its *behavior* intact — a restored enumerator must
//! continue the exact stream an uninterrupted one would have produced,
//! including mid-enumeration snapshots taken at arbitrary points.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use srank_core::prelude::*;
use srank_core::{MdState, RandomizedState, Sweep2DState};
use srank_sample::roi::RegionOfInterest;

fn attr() -> impl Strategy<Value = f64> {
    0.01..0.99f64
}

fn rows(d: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(attr(), d), n)
}

/// Detach → serialize → parse → restore, through actual JSON text (the
/// same path the on-disk snapshot files take).
fn reload_sweep(state: Sweep2DState) -> Sweep2DState {
    let text = serde_json::to_string(&state.to_value()).unwrap();
    Sweep2DState::from_value(&serde_json::from_str(&text).unwrap()).unwrap()
}

fn reload_md(state: MdState, data: &Dataset) -> MdState {
    let text = serde_json::to_string(&state.to_value()).unwrap();
    MdState::from_value(&serde_json::from_str(&text).unwrap(), data).unwrap()
}

fn reload_randomized(state: RandomizedState) -> RandomizedState {
    let text = serde_json::to_string(&state.to_value()).unwrap();
    RandomizedState::from_value(&serde_json::from_str(&text).unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A 2-D sweep session serialized mid-enumeration continues with the
    /// identical region stream (ranking, stability, and region bounds).
    #[test]
    fn sweep2d_state_survives_json(data in rows(2, 2..20), advance in 0usize..6) {
        let data = Dataset::from_rows(&data).unwrap();
        let mut reference = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        let mut session = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        for _ in 0..advance {
            reference.get_next();
            session.get_next();
        }
        let mut session =
            Enumerator2D::from_state(&data, reload_sweep(session.into_state())).unwrap();
        loop {
            match (reference.get_next(), session.get_next()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.ranking, b.ranking);
                    prop_assert_eq!(a.stability.to_bits(), b.stability.to_bits());
                    prop_assert_eq!(a.region, b.region);
                }
                other => prop_assert!(false, "streams diverged: {:?}", other),
            }
        }
    }

    /// An arrangement session (lazy refinement, partitioned samples)
    /// serialized mid-enumeration continues identically: same rankings,
    /// same stability estimates, same representatives — even when the
    /// snapshot is taken between two splits of the same region — over
    /// the full orthant, a constraint set and a cone (the restore
    /// harvests each one's pair list again).
    #[test]
    fn md_state_survives_json(
        data in rows(3, 2..10),
        n_samples in 50usize..300,
        advance in 0usize..4,
        roi_kind in 0usize..3,
    ) {
        let data = Dataset::from_rows(&data).unwrap();
        let roi = match roi_kind {
            0 => RegionOfInterest::full(3),
            1 => RegionOfInterest::constraints(
                3,
                vec![srank_geom::hyperplane::HalfSpace::new(vec![1.0, -1.0, 0.0])],
            ),
            _ => RegionOfInterest::cone(&[1.0, 0.8, 0.6], 0.4),
        };
        let mut rng = StdRng::seed_from_u64(7);
        let reference = MdEnumerator::new(&data, &roi, n_samples, &mut rng).unwrap();
        let mut session = reference.clone();
        let mut reference = reference;
        for _ in 0..advance {
            reference.get_next();
            session.get_next();
        }
        let mut session = MdEnumerator::from_state(&data, reload_md(session.into_state(), &data)).unwrap();
        loop {
            match (reference.get_next(), session.get_next()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.ranking, b.ranking);
                    prop_assert_eq!(a.stability.to_bits(), b.stability.to_bits());
                    prop_assert_eq!(a.representative, b.representative);
                }
                other => prop_assert!(false, "streams diverged: {:?}", other),
            }
        }
    }

    /// A randomized session (interned counts + its RNG position, carried
    /// alongside as the service does) continues with identical
    /// discoveries across every scope.
    #[test]
    fn randomized_state_survives_json(
        data in rows(3, 4..12),
        seed in 0u64..1000,
        scope_pick in 0usize..3,
        advance in 0usize..3,
    ) {
        let data = Dataset::from_rows(&data).unwrap();
        let roi = RegionOfInterest::full(3);
        let scope = match scope_pick {
            0 => RankingScope::Full,
            1 => RankingScope::TopKRanked(3),
            _ => RankingScope::TopKSet(3),
        };
        let mut reference = RandomizedEnumerator::new(&data, &roi, scope, 0.05).unwrap();
        let mut session = RandomizedEnumerator::new(&data, &roi, scope, 0.05).unwrap();
        let mut ref_rng = StdRng::seed_from_u64(seed);
        let mut ses_rng = StdRng::seed_from_u64(seed);
        for _ in 0..advance {
            reference.get_next_budget(&mut ref_rng, 400);
            session.get_next_budget(&mut ses_rng, 400);
        }
        // Persist the counting state and the RNG position exactly as a
        // service session checkpoint does.
        let state = reload_randomized(session.into_state());
        let rng_words = ses_rng.state();
        let mut session = RandomizedEnumerator::from_state(&data, state).unwrap();
        let mut ses_rng = StdRng::from_state(rng_words);
        for _ in 0..3 {
            match (
                reference.get_next_budget(&mut ref_rng, 400),
                session.get_next_budget(&mut ses_rng, 400),
            ) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.items, b.items);
                    prop_assert_eq!(a.stability.to_bits(), b.stability.to_bits());
                    prop_assert_eq!(a.samples_used, b.samples_used);
                    prop_assert_eq!(a.exemplar_weights, b.exemplar_weights);
                }
                other => prop_assert!(false, "streams diverged: {:?}", other),
            }
        }
    }

    /// Cone regions of interest exercise the cap sampler's exact
    /// serialization (stored rotation matrix, rebuilt CDF): the restored
    /// sampler must replay the identical sample stream.
    #[test]
    fn randomized_cone_roi_survives_json(data in rows(4, 4..10), seed in 0u64..1000) {
        let data = Dataset::from_rows(&data).unwrap();
        let roi = RegionOfInterest::cone(&[1.0, 0.7, 0.5, 0.3], 0.2);
        let mut reference =
            RandomizedEnumerator::new(&data, &roi, RankingScope::TopKRanked(3), 0.05).unwrap();
        let session =
            RandomizedEnumerator::new(&data, &roi, RankingScope::TopKRanked(3), 0.05).unwrap();
        let mut ref_rng = StdRng::seed_from_u64(seed);
        let mut ses_rng = StdRng::seed_from_u64(seed);
        let state = reload_randomized(session.into_state());
        let mut session = RandomizedEnumerator::from_state(&data, state).unwrap();
        let a = reference.get_next_budget(&mut ref_rng, 500).unwrap();
        let b = session.get_next_budget(&mut ses_rng, 500).unwrap();
        prop_assert_eq!(a.items, b.items);
        prop_assert_eq!(a.stability.to_bits(), b.stability.to_bits());
        prop_assert_eq!(a.exemplar_weights, b.exemplar_weights);
    }
}

/// Corrupted payloads must decode to errors, never panic — the service
/// loader log-and-skips whatever this layer rejects.
#[test]
fn corrupted_states_error_instead_of_panicking() {
    let data = Dataset::figure1();
    let state = Enumerator2D::new(&data, AngleInterval::full())
        .unwrap()
        .into_state();
    let good = state.to_value();

    // Shape-level corruption.
    for bad in [
        "null",
        "{}",
        r#"{"n_items": 5}"#,
        r#"{"n_items": 5, "regions": "x", "stored": null, "heap": []}"#,
        // Heap referencing a region index beyond the region list.
        r#"{"n_items": 5, "regions": [[0.0, 1.0, 1.0]], "stored": null, "heap": [[1.0, 7]]}"#,
    ] {
        let v = serde_json::from_str(bad).unwrap();
        assert!(
            Sweep2DState::from_value(&v).is_err(),
            "accepted corrupt state: {bad}"
        );
    }

    // Field-level corruption of an otherwise-valid snapshot.
    let serde_json::Value::Object(fields) = good else {
        panic!("states serialize as objects")
    };
    for (k, _) in &fields {
        let mutated: Vec<(String, serde_json::Value)> = fields
            .iter()
            .map(|(key, v)| {
                if key == k {
                    (key.clone(), serde_json::Value::String("corrupt".into()))
                } else {
                    (key.clone(), v.clone())
                }
            })
            .collect();
        assert!(
            Sweep2DState::from_value(&serde_json::Value::Object(mutated)).is_err(),
            "field '{k}' replaced by a string must not decode"
        );
    }

    // Randomized: interner arena length mismatch.
    let roi = RegionOfInterest::full(2);
    let op = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
    let v = op.into_state().to_value();
    let text = serde_json::to_string(&v).unwrap();
    let truncated = text.replace("\"total\":0", "\"total\":\"x\"");
    let parsed = serde_json::from_str(&truncated).unwrap();
    assert!(RandomizedState::from_value(&parsed).is_err());
}
