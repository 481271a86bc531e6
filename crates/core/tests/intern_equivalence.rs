//! The interned accumulator must be *indistinguishable* from the
//! straightforward `HashMap<Vec<u32>, (count, exemplar)>` accumulator it
//! replaced: byte-identical keys, counts, and exemplars across scopes,
//! seeds, and thread counts — plus run-to-run determinism of the parallel
//! sampler over the new layout.

use rand::rngs::StdRng;
use rand::SeedableRng;
use srank_core::prelude::*;
use std::collections::HashMap;

/// `n` pseudo-random rows in `[0, 1)`, except that rows 4, 13, 22, …
/// are all `-0.0` and rows 7, 16, 25, … all `+0.0`: their scores are
/// signed zeros that compare equal, so only the index tie-break orders
/// them, with the `-0.0` row first.
fn lcg_rows(n: usize, d: usize, mut state: u64) -> Vec<Vec<f64>> {
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    };
    (0..n)
        .map(|i| match i % 9 {
            4 => vec![-0.0; d],
            7 => vec![0.0; d],
            _ => (0..d).map(|_| next()).collect(),
        })
        .collect()
}

/// The pre-interning reference accumulator: sample with the *same* RNG
/// stream, key with the comparator ranking paths, count into a `HashMap`.
fn reference_counts(
    data: &Dataset,
    roi: &RegionOfInterest,
    scope: RankingScope,
    seed: u64,
    n: usize,
) -> HashMap<Vec<u32>, (u64, Vec<f64>)> {
    let sampler = roi.sampler();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts: HashMap<Vec<u32>, (u64, Vec<f64>)> = HashMap::new();
    for _ in 0..n {
        let w = sampler.sample(&mut rng);
        let key = match scope {
            RankingScope::Full => {
                let (mut scores, mut order) = (Vec::new(), Vec::new());
                data.rank_into(&w, &mut scores, &mut order);
                order
            }
            RankingScope::TopKRanked(k) => data.top_k(&w, k).unwrap(),
            RankingScope::TopKSet(k) => {
                let mut set = data.top_k(&w, k).unwrap();
                set.sort_unstable();
                set
            }
        };
        counts.entry(key).and_modify(|e| e.0 += 1).or_insert((1, w));
    }
    counts
}

fn interned_counts(e: &RandomizedEnumerator<'_>) -> HashMap<Vec<u32>, (u64, Vec<f64>)> {
    e.observed()
        .map(|(k, c, x)| (k.to_vec(), (c, x.to_vec())))
        .collect()
}

#[test]
fn interned_accumulator_matches_hashmap_reference_across_scopes_and_seeds() {
    let data = Dataset::from_rows(&lcg_rows(18, 3, 901)).unwrap();
    let roi = RegionOfInterest::full(3);
    let scopes = [
        RankingScope::Full,
        RankingScope::TopKRanked(5),
        RankingScope::TopKSet(5),
        RankingScope::TopKRanked(30), // clamps past n
    ];
    for scope in scopes {
        for seed in [1u64, 77, 4040] {
            let reference = reference_counts(&data, &roi, scope, seed, 3000);
            let mut e = RandomizedEnumerator::new(&data, &roi, scope, 0.05).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            e.sample_n(&mut rng, 3000);
            let got = interned_counts(&e);
            assert_eq!(got.len(), reference.len(), "{scope:?} seed {seed}");
            assert_eq!(got, reference, "{scope:?} seed {seed}");
        }
    }
}

#[test]
fn interned_accumulator_matches_reference_on_cone_roi() {
    let data = Dataset::from_rows(&lcg_rows(25, 4, 55)).unwrap();
    let roi = RegionOfInterest::cone(&[1.0, 0.8, 0.6, 0.4], std::f64::consts::PI / 30.0);
    let scope = RankingScope::TopKRanked(8);
    let reference = reference_counts(&data, &roi, scope, 9, 2000);
    let mut e = RandomizedEnumerator::new(&data, &roi, scope, 0.05).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    e.sample_n(&mut rng, 2000);
    assert_eq!(interned_counts(&e), reference);
}

/// The top-k scopes on more items than one scoring block of the fused
/// kernel, so block skipping and cross-block heap updates are exercised.
/// Attributes take only the values {0, ½, 1}, so the 700 items share 243
/// rows and the top-k boundary often splits a group of identical items
/// that only the index tie-break orders.
#[test]
fn interned_top_k_matches_reference_past_one_score_block() {
    let coarse: Vec<Vec<f64>> = lcg_rows(700, 5, 2024)
        .into_iter()
        .map(|row| row.into_iter().map(|x| (x * 3.0).floor() / 2.0).collect())
        .collect();
    let data = Dataset::from_rows(&coarse).unwrap();
    assert!(data.len() > srank_core::dataset::SCORE_BLOCK);
    let roi = RegionOfInterest::full(5);
    for scope in [RankingScope::TopKRanked(10), RankingScope::TopKSet(10)] {
        for seed in [3u64, 611] {
            let reference = reference_counts(&data, &roi, scope, seed, 1500);
            let mut e = RandomizedEnumerator::new(&data, &roi, scope, 0.05).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            e.sample_n(&mut rng, 1500);
            assert_eq!(interned_counts(&e), reference, "{scope:?} seed {seed}");
        }
    }
}

#[test]
fn parallel_tables_merge_to_the_worker_union_for_every_thread_count() {
    let data = Dataset::from_rows(&lcg_rows(14, 3, 313)).unwrap();
    let roi = RegionOfInterest::full(3);
    for scope in [RankingScope::Full, RankingScope::TopKSet(4)] {
        for threads in [1usize, 2, 3, 4, 7] {
            // Reference: per-worker sequential accumulation with the
            // worker-seed convention of sample_n_parallel.
            let n = 2003usize;
            let share = n / threads;
            let remainder = n % threads;
            let mut reference: HashMap<Vec<u32>, (u64, Vec<f64>)> = HashMap::new();
            for t in 0..threads {
                let budget = share + usize::from(t < remainder);
                for (key, (count, exemplar)) in
                    reference_counts(&data, &roi, scope, 91 + t as u64, budget)
                {
                    reference
                        .entry(key)
                        .and_modify(|e| e.0 += count)
                        .or_insert((count, exemplar));
                }
            }
            let mut e = RandomizedEnumerator::new(&data, &roi, scope, 0.05).unwrap();
            e.sample_n_parallel(91, n, threads);
            assert_eq!(e.total_samples(), n as u64);
            assert_eq!(interned_counts(&e), reference, "{scope:?} × {threads}");
        }
    }
}

#[test]
fn parallel_sampling_is_deterministic_over_the_interned_layout() {
    let data = Dataset::from_rows(&lcg_rows(16, 3, 717)).unwrap();
    let roi = RegionOfInterest::full(3);
    let run = |threads: usize| {
        let mut e =
            RandomizedEnumerator::new(&data, &roi, RankingScope::TopKRanked(6), 0.05).unwrap();
        e.sample_n_parallel(5, 5000, threads);
        // Full dump, order included: insertion order must reproduce.
        e.observed()
            .map(|(k, c, x)| (k.to_vec(), c, x.to_vec()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(4), run(4), "same thread count ⇒ identical table");
    // Different thread counts may order entries differently but must agree
    // as multisets of (key, count).
    let as_map = |v: Vec<(Vec<u32>, u64, Vec<f64>)>| {
        v.into_iter()
            .map(|(k, c, _)| (k, c))
            .collect::<HashMap<_, _>>()
    };
    assert_eq!(as_map(run(1)), as_map(run(1)));
}

#[test]
fn observe_samples_equals_drawing_the_same_stream() {
    // A cached batch drawn from the sampler must count exactly like
    // sampling live with the RNG that generated it.
    let data = Dataset::from_rows(&lcg_rows(20, 3, 99)).unwrap();
    let roi = RegionOfInterest::full(3);
    let scope = RankingScope::TopKSet(5);

    let mut rng = StdRng::seed_from_u64(1234);
    let batch = roi.sampler().sample_buffer(&mut rng, 4000);
    let mut fed = RandomizedEnumerator::new(&data, &roi, scope, 0.05).unwrap();
    fed.observe_samples(&batch).unwrap();

    let mut live = RandomizedEnumerator::new(&data, &roi, scope, 0.05).unwrap();
    let mut rng2 = StdRng::seed_from_u64(1234);
    live.sample_n(&mut rng2, 4000);

    assert_eq!(fed.total_samples(), live.total_samples());
    assert_eq!(interned_counts(&fed), interned_counts(&live));
}

#[test]
fn observe_samples_rejects_dimension_mismatch() {
    let data = Dataset::figure1();
    let roi3 = RegionOfInterest::full(3);
    let mut rng = StdRng::seed_from_u64(3);
    let batch = roi3.sampler().sample_buffer(&mut rng, 10);
    let roi2 = RegionOfInterest::full(2);
    let mut e = RandomizedEnumerator::new(&data, &roi2, RankingScope::Full, 0.05).unwrap();
    assert!(e.observe_samples(&batch).is_err());
    assert_eq!(e.total_samples(), 0, "failed feed must not count");
}

#[test]
fn state_round_trip_preserves_the_interned_table_exactly() {
    let data = Dataset::from_rows(&lcg_rows(12, 3, 47)).unwrap();
    let roi = RegionOfInterest::full(3);
    let mut e = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    e.sample_n(&mut rng, 1500);
    let first = e.get_next_budget(&mut rng, 0).unwrap();
    let before = interned_counts(&e);

    let state = e.into_state();
    assert_eq!(state.total_samples(), 1500);
    let mut back = RandomizedEnumerator::from_state(&data, state).unwrap();
    assert_eq!(interned_counts(&back), before);
    // Returned flags survive the round trip: the first ranking does not
    // come back.
    while let Some(d) = back.get_next_budget(&mut rng, 0) {
        assert_ne!(d.items, first.items);
    }
}
