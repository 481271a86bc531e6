//! Ablation benches for the algorithmic design choices of the core crate.
//!
//! * **2-D enumeration**: the sweep of Algorithm 2 (only the pairs the
//!   interval's two end rankings invert) vs the classical
//!   sort-all-exchanges baseline — same output (tests assert it);
//! * **passThrough**: the §5.4 sample-partition test vs the exact LP of
//!   §4.2 inside `GET-NEXTmd`;
//! * **parallel sampling**: the sequential vs multi-threaded randomized
//!   operator on a large workload.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use srank_bench::{bluenile_dataset, dot_dataset};
use srank_core::prelude::*;
use srank_core::regions_via_sorted_exchanges;
use std::f64::consts::PI;
use std::hint::black_box;
use std::time::Duration;

fn bench_2d_enumeration(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_2d_enumeration");
    g.sample_size(10).warm_up_time(Duration::from_millis(300));
    for n in [100usize, 500, 1_000] {
        let data = bluenile_dataset(n, 2);
        g.bench_with_input(BenchmarkId::new("ray_sweep", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    Enumerator2D::new(&data, AngleInterval::full())
                        .unwrap()
                        .num_regions(),
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("sorted_exchanges", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    regions_via_sorted_exchanges(&data, AngleInterval::full())
                        .unwrap()
                        .len(),
                )
            })
        });
    }
    g.finish();
}

fn bench_passthrough_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_passthrough");
    g.sample_size(10).warm_up_time(Duration::from_millis(300));
    let data = bluenile_dataset(40, 3);
    let roi = RegionOfInterest::full(3);
    let mut rng = StdRng::seed_from_u64(42);
    let buffer = roi.sampler().sample_buffer(&mut rng, 5_000);
    for (label, mode) in [
        ("sample_partition", PassThroughMode::SamplePartition),
        ("exact_lp", PassThroughMode::ExactLp),
    ] {
        let template =
            MdEnumerator::with_samples_and_mode(&data, &roi, buffer.clone(), mode).unwrap();
        g.bench_function(BenchmarkId::new("top5", label), |b| {
            b.iter_batched(
                || template.clone(),
                |mut e| black_box(e.top_h(5)),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_parallel_sampling(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_parallel_sampling");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(15));
    let data = dot_dataset(100_000);
    let roi = RegionOfInterest::cone(&[1.0, 1.0, 1.0], PI / 50.0);
    for threads in [1usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter_batched(
                || RandomizedEnumerator::new(&data, &roi, RankingScope::TopKSet(10), 0.05).unwrap(),
                |mut op| {
                    op.sample_n_parallel(7, 500, t);
                    black_box(op.total_samples())
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_2d_enumeration,
    bench_passthrough_modes,
    bench_parallel_sampling
);
criterion_main!(benches);
