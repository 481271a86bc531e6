//! Ablation microbenches for the sampling substrate (§5): the design
//! choices DESIGN.md calls out.
//!
//! * orthant sampling (Algorithm 9) — the per-sample floor every operator
//!   pays;
//! * cap sampling: closed-form inverse CDF (d = 3) vs Riemann table vs
//!   acceptance–rejection — the §5.2 method-selection trade-off;
//! * stability oracle: sequential vs multi-threaded (Algorithm 12);
//! * §5.4 sample partitioning vs a fresh oracle count — the O(1)-stability
//!   trick the lazy arrangement rests on.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use srank_geom::hyperplane::OrderingExchange;
use srank_geom::region::ConeRegion;
use srank_sample::cap::CapSampler;
use srank_sample::oracle::{estimate_stability, estimate_stability_parallel};
use srank_sample::partition::PartitionedSamples;
use srank_sample::sphere::sample_orthant_direction;
use srank_sample::store::SampleBuffer;
use std::f64::consts::PI;
use std::hint::black_box;
use std::time::Duration;

fn bench_sphere(c: &mut Criterion) {
    let mut g = c.benchmark_group("sampler_orthant");
    g.sample_size(30).warm_up_time(Duration::from_millis(300));
    for d in [2usize, 3, 5] {
        g.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, &d| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| black_box(sample_orthant_direction(&mut rng, d)))
        });
    }
    g.finish();
}

fn bench_cap_methods(c: &mut Criterion) {
    let mut g = c.benchmark_group("sampler_cap_method");
    g.sample_size(30).warm_up_time(Duration::from_millis(300));
    let ray = [1.0, 1.0, 1.0];
    let theta = PI / 50.0;

    let closed = CapSampler::new(&ray, theta);
    g.bench_function("closed_form_d3", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(closed.sample(&mut rng)))
    });

    let table = CapSampler::with_forced_table(&ray, theta, 4096);
    g.bench_function("riemann_table_d3", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(table.sample(&mut rng)))
    });

    // Acceptance–rejection from the orthant proposal: the method the §5.2
    // cost model rejects for narrow cones (expected trials ≈ 1/p ≫ log|L|).
    g.bench_function("rejection_d3", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        let unit = srank_geom::vector::normalized(&ray).unwrap();
        b.iter(|| loop {
            let w = sample_orthant_direction(&mut rng, 3);
            if srank_geom::vector::angle_between(&w, &unit).unwrap() <= theta {
                break black_box(w);
            }
        })
    });
    g.finish();
}

fn bench_oracle(c: &mut Criterion) {
    let mut g = c.benchmark_group("stability_oracle");
    g.sample_size(10).warm_up_time(Duration::from_millis(300));
    let mut rng = StdRng::seed_from_u64(3);
    let samples = SampleBuffer::generate(&mut rng, 1_000_000, |r| sample_orthant_direction(r, 3));
    let region = ConeRegion::from_table(3, vec![1.0, -1.0, 0.0, 0.0, 1.0, -1.0]);
    g.bench_function("sequential_1M", |b| {
        b.iter(|| black_box(estimate_stability(&region, &samples)))
    });
    for threads in [2usize, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("parallel_1M", threads),
            &threads,
            |b, &t| b.iter(|| black_box(estimate_stability_parallel(&region, &samples, t))),
        );
    }
    g.finish();
}

fn bench_partition_vs_oracle(c: &mut Criterion) {
    let mut g = c.benchmark_group("partition_vs_oracle");
    g.sample_size(10).warm_up_time(Duration::from_millis(300));
    let mut rng = StdRng::seed_from_u64(4);
    let buffer = SampleBuffer::generate(&mut rng, 200_000, |r| sample_orthant_direction(r, 3));
    let hp = OrderingExchange::from_coeffs(vec![0.4, -0.8, 0.3]);
    let region = ConeRegion::from_table(3, vec![0.4, -0.8, 0.3]);

    // One partition pays O(|S|) once; afterwards stability reads are O(1).
    g.bench_function("partition_once_200k", |b| {
        b.iter_batched(
            || PartitionedSamples::new(buffer.clone()),
            |mut ps| {
                let split = ps.partition(0, 200_000, hp.coeffs()).split;
                black_box(ps.stability_of_range(split, 200_000))
            },
            BatchSize::LargeInput,
        )
    });
    // The naive alternative recounts the whole buffer per query.
    g.bench_function("oracle_recount_200k", |b| {
        b.iter(|| black_box(estimate_stability(&region, &buffer)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sphere,
    bench_cap_methods,
    bench_oracle,
    bench_partition_vs_oracle
);
criterion_main!(benches);
