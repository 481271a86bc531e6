//! `bench_record` — the PR-over-PR performance trajectory recorder.
//!
//! Measures the randomized-sampler kernel (cold `sample_n`, parallel
//! `sample_n_parallel`) on the full-scope DoT workload (n = 2000,
//! 100k samples), the faithful pre-interning baseline for comparison,
//! a per-sample stage profile of that kernel (draw / score / select or
//! rank / intern, on top-10 bluenile and full-scope DoT, with the old
//! packed-key top-k selection as the select baseline), a per-stage
//! profile of a warm-batch Monte-Carlo `verify` (rank / region / count
//! on fifa and bluenile, with the comparator rank and the scalar oracle
//! as baselines), the `md` session profile (harvest / warm open / first /
//! later `get_next` on fifa and bluenile, with the hyperplane count and
//! bytes), the service batch-op round-trip, the warm-restart
//! time-to-first-cached-verify through a snapshot/restore cycle, and the
//! request-tracing overhead (the same DoT 100k-sample verify kernel
//! through an engine with `--trace-sample 1` vs tracing disabled), and
//! the overload benchmark (open-loop probe p50/p99 against a swamped
//! pool, admission-control shedding on vs off), and the batch-dispatch
//! suite (cold/cached/mixed 8-sub batches vs sequential round-trips
//! plus a two-client session fairness probe), and the observability
//! overhead (the same DoT 100k-sample verify kernel with windowed
//! telemetry + per-client accounting on vs off), and the 3-D Monte-Carlo
//! `overview` through the engine against the arrangement walk it
//! replaced, and the exact 2-D kernels (rank, `SV2D` and sweep opens on
//! csmetrics, and a quarter-grid sweep against the exchange-sorting
//! baseline), then writes the numbers as JSON (`BENCH_29.json` by
//! default, with the host's `available_parallelism` at the top level)
//! so future PRs can diff throughput.
//!
//! ```text
//! cargo run --release -p srank-bench --bin bench_record -- [--smoke] [--out PATH]
//! ```
//!
//! Each sampler phase re-executes this binary (`--phase …`) so every
//! measurement runs in a fresh process: the legacy accumulator churns
//! ~1 GB of heap, and allocator/THP state left behind by one phase was
//! measured to distort the next by >50% when they share a process.
//!
//! `--smoke` shrinks every workload ~20× for a sub-minute CI sanity run
//! (same shape, useless absolute numbers — never commit a smoke file).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;
use srank_bench::{bluenile_dataset, dot_dataset};
use srank_core::prelude::*;
use srank_core::{ranking_region_in, regions_via_sorted_exchanges, Dataset, KeyInterner};
use srank_geom::region::ConeRegion;
use srank_sample::oracle::{count_inside_indexed, IndexedCount, INDEX_MIN_SAMPLES};
use srank_sample::store::SampleBuffer;
use srank_sample::RoiSampler;
use srank_service::registry::DatasetSource;
use srank_service::{serve_tcp, Client, Engine, EngineConfig};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

const N_ITEMS: usize = 2000;
const SEED: u64 = 16;

/// The pre-PR accumulator, verbatim: allocate a weight vector per draw,
/// score row-major, sort with the indirect comparator, clone the scratch
/// ranking into an owned key, and count it in a `HashMap` under the
/// default (SipHash) hasher. Kept here so the recorded speedup is against
/// the real historical kernel, not a strawman.
fn legacy_sample_n(data: &Dataset, roi: &RegionOfInterest, n: usize) -> usize {
    let sampler = roi.sampler();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut counts: HashMap<Vec<u32>, (u64, Vec<f64>)> = HashMap::new();
    let (mut scores, mut idx) = (Vec::new(), Vec::new());
    for _ in 0..n {
        let w = sampler.sample(&mut rng);
        data.scores_into_row_major(&w, &mut scores);
        idx.clear();
        idx.extend(0..data.len() as u32);
        idx.sort_unstable_by(|&a, &b| {
            scores[b as usize]
                .partial_cmp(&scores[a as usize])
                .unwrap()
                .then(a.cmp(&b))
        });
        match counts.entry(idx.clone()) {
            Entry::Occupied(mut e) => e.get_mut().0 += 1,
            Entry::Vacant(e) => {
                e.insert((1, w));
            }
        }
    }
    counts.len()
}

/// The packed-key top-k selection the fused kernel replaced, verbatim
/// apart from taking precomputed scores: each item becomes one `u64` of
/// `(inverted top-32 score bits, index)`, `select_nth_unstable_by` finds
/// the k-th, and the prefix is sorted — both comparing machine words and
/// falling back to the exact `f64` comparator on a quantized collision.
/// Kept here as the `select` baseline of the stage profile.
fn packed_top_k(scores: &[f64], k: usize, keys: &mut Vec<u64>, out: &mut Vec<u32>) {
    fn orderable_bits(s: f64) -> u64 {
        let b = s.to_bits();
        if b >> 63 == 1 {
            !b
        } else {
            b | (1u64 << 63)
        }
    }
    let packed_cmp = |a: &u64, b: &u64| {
        let (qa, qb) = (a >> 32, b >> 32);
        if qa != qb {
            return qa.cmp(&qb);
        }
        let (ia, ib) = (*a as u32, *b as u32);
        scores[ib as usize]
            .partial_cmp(&scores[ia as usize])
            .unwrap()
            .then(ia.cmp(&ib))
    };
    let k = k.min(scores.len());
    keys.clear();
    keys.extend(scores.iter().enumerate().map(|(i, &s)| {
        let q = (orderable_bits(s) >> 32) as u32;
        ((!q as u64) << 32) | i as u64
    }));
    if k > 0 && k < scores.len() {
        keys.select_nth_unstable_by(k - 1, packed_cmp);
    }
    let top = &mut keys[..k];
    top.sort_unstable_by(packed_cmp);
    out.clear();
    out.extend(top.iter().map(|&key| key as u32));
}

/// Rounds of the sampling stage profile: the pipelines of one workload
/// run in turn this many times, and each stage reports its median.
const STAGE_ROUNDS: usize = 3;

/// Samples the fused and packed top-k pipelines take in turn within a
/// round, so both see the same host load.
const STAGE_CHUNK: usize = 1000;

/// Per-sample stage profile of the randomized kernel, timed stage by stage
/// inside sampling loops of seeded draws from the full orthant:
///
/// * `top_k_ranked`, one row per k in 10, 100 and 1000: `TopKRanked(k)`
///   over bluenile n = 5000, d = 5, twice over the same weight stream:
///   the current pipeline (`draw`, `fused_score_select` =
///   `top_k_fused_into`, `intern`) and the older packed-key pipeline
///   (`score` = `scores_into`, then `packed_select`). The two counting
///   tables must come out identical. `select_speedup_vs_packed` is
///   `(score + packed_select) / fused_score_select`, and
///   `rows_scored_share` the exact share of the `samples · n` rows the
///   leaf-bound kernel scored (the count it returns).
/// * `Full` over dot n = 2000 — `draw`, `score`, `rank` (the radix sort
///   of `rank_into_keyed`, its total minus `score`), `intern`.
///
/// Every figure is µs per sample, the median over [`STAGE_ROUNDS`]
/// rounds; within a round the fused and packed pipelines take turns of
/// [`STAGE_CHUNK`] samples, so host load that drifts within a round
/// moves both sides alike and one slow round moves no median.
/// `pipeline_samples_per_s` is the throughput the current pipeline's
/// stage medians imply.
fn measure_sampling_stages(samples: usize) -> Value {
    use std::time::Duration;
    /// One sampling pipeline: seeded orthant draws keyed by a caller's
    /// key function into a counting table, with the time of each stage
    /// summed over every sample it has run so far.
    struct Pipeline {
        sampler: RoiSampler,
        rng: StdRng,
        table: KeyInterner,
        w: Vec<f64>,
        out: Vec<u32>,
        t: Vec<Duration>,
        samples: usize,
    }
    impl Pipeline {
        /// A fresh pipeline over `data` with keys of `key_len` items.
        fn new(data: &Dataset, key_len: usize) -> Self {
            Pipeline {
                sampler: RegionOfInterest::full(data.dim()).sampler(),
                rng: StdRng::seed_from_u64(SEED),
                table: KeyInterner::new(key_len, data.dim()),
                w: Vec::new(),
                out: Vec::new(),
                t: Vec::new(),
                samples: 0,
            }
        }
        /// Runs the next `samples` draws through `key` (which fills the
        /// key and returns the time of each of its stages).
        fn run<const S: usize>(
            &mut self,
            samples: usize,
            mut key: impl FnMut(&[f64], &mut Vec<u32>) -> [Duration; S],
        ) {
            self.t.resize(S + 2, Duration::ZERO);
            for _ in 0..samples {
                let t0 = Instant::now();
                self.sampler.sample_into(&mut self.rng, &mut self.w);
                self.t[0] += t0.elapsed();
                for (acc, d) in self.t[1..=S].iter_mut().zip(key(&self.w, &mut self.out)) {
                    *acc += d;
                }
                let t1 = Instant::now();
                self.table.observe(&self.out, &self.w);
                self.t[S + 1] += t1.elapsed();
            }
            self.samples += samples;
        }
        /// Per-stage µs per sample `[draw, key stages…, intern]`.
        fn us(&self) -> Vec<f64> {
            self.t
                .iter()
                .map(|d| d.as_secs_f64() * 1e6 / self.samples as f64)
                .collect()
        }
    }
    /// Per-stage medians over rounds of per-stage figures.
    fn stage_medians<const S: usize>(rounds: &[Vec<f64>]) -> [f64; S] {
        std::array::from_fn(|stage| median(rounds.iter().map(|r| r[stage]).collect()))
    }
    fn same_table(a: &KeyInterner, b: &KeyInterner) -> bool {
        a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x == y)
    }

    let data = bluenile_dataset(5000, 5);
    let (mut best, mut scores, mut keys) = (Vec::new(), Vec::new(), Vec::new());
    let top_k = [10, 100, 1000].map(|k| {
        let (mut fused_rounds, mut packed_rounds) = (Vec::new(), Vec::new());
        let mut scored = 0usize;
        for _ in 0..STAGE_ROUNDS {
            // Exact: every round scores the same rows.
            scored = 0;
            let mut fused = Pipeline::new(&data, k);
            let mut packed = Pipeline::new(&data, k);
            let mut left = samples;
            while left > 0 {
                let chunk = left.min(STAGE_CHUNK);
                fused.run(chunk, |w, out| {
                    let t0 = Instant::now();
                    scored += data.top_k_fused_into(w, k, &mut best, out);
                    [t0.elapsed()]
                });
                packed.run(chunk, |w, out| {
                    let t0 = Instant::now();
                    data.scores_into(w, &mut scores);
                    let t1 = Instant::now();
                    packed_top_k(&scores, k, &mut keys, out);
                    [t1 - t0, t1.elapsed()]
                });
                left -= chunk;
            }
            assert!(
                same_table(&fused.table, &packed.table),
                "fused and packed top-k must count the same stream identically"
            );
            fused_rounds.push(fused.us());
            packed_rounds.push(packed.us());
        }
        let [draw, fused_score_select, intern] = stage_medians(&fused_rounds);
        let [_, score, packed_select, _] = stage_medians(&packed_rounds);
        obj(vec![
            ("dataset", Value::String("bluenile".into())),
            ("n", Value::Number(data.len() as f64)),
            ("d", Value::Number(data.dim() as f64)),
            ("scope", Value::String("top-k-ranked".into())),
            ("k", Value::Number(k as f64)),
            ("samples", Value::Number(samples as f64)),
            ("rounds", Value::Number(STAGE_ROUNDS as f64)),
            ("draw_us", Value::Number(draw)),
            ("fused_score_select_us", Value::Number(fused_score_select)),
            ("intern_us", Value::Number(intern)),
            ("score_us", Value::Number(score)),
            ("packed_select_us", Value::Number(packed_select)),
            (
                "select_speedup_vs_packed",
                Value::Number((score + packed_select) / fused_score_select),
            ),
            (
                "rows_scored_share",
                Value::Number(scored as f64 / (samples * data.len()) as f64),
            ),
            (
                "pipeline_samples_per_s",
                Value::Number(1e6 / (draw + fused_score_select + intern)),
            ),
        ])
    });

    let data = dot_dataset(N_ITEMS);
    let mut spare = Vec::new();
    let full_rounds: Vec<Vec<f64>> = (0..STAGE_ROUNDS)
        .map(|_| {
            let mut full = Pipeline::new(&data, data.len());
            full.run(samples, |w, out| {
                let t0 = Instant::now();
                data.scores_into(w, &mut scores);
                let t1 = Instant::now();
                data.rank_into_keyed(w, &mut scores, &mut keys, &mut spare, out);
                [t1 - t0, t1.elapsed()]
            });
            full.us()
        })
        .collect();
    let [draw, score, score_rank, intern] = stage_medians(&full_rounds);
    let full = obj(vec![
        ("dataset", Value::String("dot".into())),
        ("n", Value::Number(data.len() as f64)),
        ("d", Value::Number(data.dim() as f64)),
        ("scope", Value::String("full".into())),
        ("samples", Value::Number(samples as f64)),
        ("rounds", Value::Number(STAGE_ROUNDS as f64)),
        ("draw_us", Value::Number(draw)),
        ("score_us", Value::Number(score)),
        ("rank_us", Value::Number(score_rank - score)),
        ("intern_us", Value::Number(intern)),
        (
            "pipeline_samples_per_s",
            Value::Number(1e6 / (draw + score_rank + intern)),
        ),
    ]);
    obj(vec![
        ("top_k_ranked", Value::Array(top_k.into())),
        ("full", full),
    ])
}

/// The scalar oracle the block sieve replaced, verbatim: each sample
/// tests the half-spaces in order and stops at the first violation. Kept
/// here as the `count` baseline of the Monte-Carlo verify profile.
fn scalar_count_inside(region: &ConeRegion, samples: &SampleBuffer, lo: usize, hi: usize) -> usize {
    let mut count = 0;
    for i in lo..hi {
        let w = samples.row(i);
        if region.halfspaces().iter().all(|h| h.slack(w) > 0.0) {
            count += 1;
        }
    }
    count
}

/// Per-stage profile of a warm-batch Monte-Carlo `verify` — the three
/// kernel calls `Engine` makes per request — on the service benchmark's
/// datasets (fifa n = 1000, d = 4 and bluenile n = 5000, d = 5, builtin
/// seed 7), one row per `(dataset, samples, cone)` shape, against one
/// `samples`-sized batch drawn up front from the orthant, or from a cone
/// of half-angle `cone` around a fixed weight when `cone` is set (narrow
/// enough that the weights drawn in it share most of their ranking
/// regions, so the region holds most of the batch and the index excludes
/// almost nothing):
///
/// * `rank_us` — `Dataset::rank` (the radix path), with
///   `comparator_rank_us` the comparator sort it replaced (`rank_into`);
/// * `region_us` — `ranking_region_in`;
/// * `count_us` — `oracle::count_inside` (the block sieve), with
///   `scalar_count_us` the early-exit loop it replaced;
/// * `indexed_count_us` — `oracle::count_inside_indexed`; it runs right
///   after the sieve on the same weight, and `count_speedup_vs_sieve` is
///   the ratio of the two medians. `engine_count` names the count the
///   engine makes at this batch size (`oracle::count_inside_chunked`:
///   the sieve under `INDEX_MIN_SAMPLES` samples, the index from there).
///
/// Each figure is the median over `weights` fresh weight vectors drawn
/// like the batch; both rankings and all three counts must agree on
/// every one. `samples_tested_share` is the exact share of samples whose
/// slacks the indexed count evaluated, over all weights; `draw_ms` draws
/// the batch and `index_build_ms` builds its grid index (each the
/// fastest of three).
/// `engine_verify_p50_us` is the same request end to end through
/// `Engine::handle_line` on a warm batch (parse, cache miss, kernel,
/// render).
fn measure_mc_verify(shapes: &[(&str, usize, Option<f64>)], weights: usize) -> Value {
    let mut rows = Vec::new();
    for &(family, samples, cone) in shapes {
        let n = if family == "fifa" { 1000 } else { 5000 };
        let engine = Engine::new(EngineConfig::default());
        let entry = engine
            .registry()
            .load(
                family,
                &DatasetSource::Builtin {
                    family: family.into(),
                    n,
                    d: 0,
                    seed: 7,
                },
            )
            .expect("builtin dataset loads");
        let data = Arc::clone(&entry.dataset);
        let orthant = RegionOfInterest::full(data.dim());
        let around = orthant
            .sampler()
            .sample(&mut StdRng::seed_from_u64(SEED + 2));
        let (roi, roi_field) = match cone {
            Some(theta) => (
                RegionOfInterest::cone(&around, theta),
                format!(r#", "roi": {{"around": {around:?}, "theta": {theta:?}}}"#),
            ),
            None => (orthant, String::new()),
        };
        let sampler = roi.sampler();
        // The fastest of three draws and of the three builds of their
        // indices, so one preempted run does not skew their ratio.
        let (mut draw_ms, mut index_build_ms, mut index_bytes) = (f64::MAX, f64::MAX, 0);
        let mut batch = SampleBuffer::new(1);
        for _ in 0..3 {
            let t0 = Instant::now();
            batch = sampler.sample_buffer(&mut StdRng::seed_from_u64(SEED), samples);
            draw_ms = draw_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            index_bytes = batch
                .grid_index(samples, || Ok::<(), std::convert::Infallible>(()))
                .unwrap()
                .heap_bytes();
            index_build_ms = index_build_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        let mut rng = StdRng::seed_from_u64(SEED + 1);
        let verify = |w: &[f64]| {
            format!(
                r#"{{"op": "verify", "dataset": "{family}", "weights": {w:?}, "samples": {samples}, "seed": {SEED}{roi_field}}}"#
            )
        };
        // Draw the engine's batch before timing anything.
        engine.handle_line(&verify(&sampler.sample(&mut rng)));
        let mut t: [Vec<f64>; 7] = Default::default();
        let (mut scores, mut order) = (Vec::new(), Vec::new());
        let (mut inside, mut tested) = (0usize, 0usize);
        for i in 0..weights {
            eprintln!("mc_verify {family} {samples}: weight {}/{weights}…", i + 1);
            let w = sampler.sample(&mut rng);
            let t0 = Instant::now();
            let ranking = data.rank(&w).unwrap();
            let t1 = Instant::now();
            data.rank_into(&w, &mut scores, &mut order);
            let t2 = Instant::now();
            assert_eq!(
                ranking.order(),
                order.as_slice(),
                "radix and comparator rank"
            );
            let region = ranking_region_in(&data, &ranking, &roi).unwrap();
            let t3 = Instant::now();
            let count = region.as_ref().map_or(0, |r| {
                srank_sample::oracle::count_inside(r, &batch, 0, samples)
            });
            let t4 = Instant::now();
            let scalar = region
                .as_ref()
                .map_or(0, |r| scalar_count_inside(r, &batch, 0, samples));
            let t5 = Instant::now();
            assert_eq!(count, scalar, "sieve and scalar count");
            let t6 = Instant::now();
            let indexed: IndexedCount = region
                .as_ref()
                .map(|r| {
                    count_inside_indexed(r, &batch, samples, || {
                        Ok::<(), std::convert::Infallible>(())
                    })
                    .unwrap()
                })
                .unwrap_or_default();
            let indexed_us = t6.elapsed().as_secs_f64() * 1e6;
            assert_eq!(count, indexed.inside, "sieve and indexed count");
            inside += count;
            tested += indexed.tested;
            let t7 = Instant::now();
            let response: Value = serde_json::from_str(&engine.handle_line(&verify(&w))).unwrap();
            let engine_us = t7.elapsed().as_secs_f64() * 1e6;
            assert!(
                response.get("ok").and_then(Value::as_bool) == Some(true),
                "{response:?}"
            );
            for (acc, d) in t
                .iter_mut()
                .zip([t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4])
            {
                acc.push(d.as_secs_f64() * 1e6);
            }
            t[5].push(indexed_us);
            t[6].push(engine_us);
        }
        let [rank, comparator_rank, region, count, scalar_count, indexed_count, engine_verify] =
            t.map(median);
        let engine_count = if samples >= INDEX_MIN_SAMPLES {
            "index"
        } else {
            "sieve"
        };
        rows.push(obj(vec![
            ("dataset", Value::String(family.into())),
            ("n", Value::Number(data.len() as f64)),
            ("d", Value::Number(data.dim() as f64)),
            ("samples", Value::Number(samples as f64)),
            ("cone", cone.map_or(Value::Null, Value::Number)),
            ("weights", Value::Number(weights as f64)),
            (
                "mean_stability",
                Value::Number(inside as f64 / (samples * weights) as f64),
            ),
            ("rank_us", Value::Number(rank)),
            ("comparator_rank_us", Value::Number(comparator_rank)),
            ("region_us", Value::Number(region)),
            ("count_us", Value::Number(count)),
            ("scalar_count_us", Value::Number(scalar_count)),
            ("indexed_count_us", Value::Number(indexed_count)),
            ("engine_count", Value::String(engine_count.into())),
            (
                "samples_tested_share",
                Value::Number(tested as f64 / (samples * weights) as f64),
            ),
            ("draw_ms", Value::Number(draw_ms)),
            ("index_build_ms", Value::Number(index_build_ms)),
            ("index_bytes", Value::Number(index_bytes as f64)),
            (
                "rank_speedup_vs_comparator",
                Value::Number(comparator_rank / rank),
            ),
            (
                "count_speedup_vs_scalar",
                Value::Number(scalar_count / count),
            ),
            (
                "count_speedup_vs_sieve",
                Value::Number(count / indexed_count),
            ),
            ("engine_verify_p50_us", Value::Number(engine_verify)),
        ]));
    }
    Value::Array(rows)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn rate(n: usize, seconds: f64) -> Value {
    obj(vec![
        ("seconds", Value::Number(seconds)),
        ("ops_per_sec", Value::Number(n as f64 / seconds)),
    ])
}

/// Runs one sampler phase in *this* process and prints a JSON line.
fn run_phase(phase: &str, samples: usize, threads: usize) {
    let data = dot_dataset(N_ITEMS);
    let roi = RegionOfInterest::full(data.dim());
    let (seconds, distinct) = match phase {
        "legacy" => {
            let t = Instant::now();
            let distinct = legacy_sample_n(&data, &roi, samples);
            (t.elapsed().as_secs_f64(), distinct)
        }
        "kernel" => {
            let mut e = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
            let mut rng = StdRng::seed_from_u64(SEED);
            let t = Instant::now();
            e.sample_n(&mut rng, samples);
            (t.elapsed().as_secs_f64(), e.distinct_observed())
        }
        "parallel" => {
            let mut e = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
            let t = Instant::now();
            e.sample_n_parallel(SEED, samples, threads);
            (t.elapsed().as_secs_f64(), e.distinct_observed())
        }
        other => panic!("bench_record: unknown phase {other}"),
    };
    let line = obj(vec![
        ("seconds", Value::Number(seconds)),
        ("distinct", Value::Number(distinct as f64)),
    ]);
    println!("{}", serde_json::to_string(&line).unwrap());
}

/// Re-executes this binary for one phase, several fresh-process trials,
/// and returns the **minimum** wall time (the noise-free estimate on a
/// shared/virtualized host — first trials absorb frequency ramp-up and
/// page-cache warming) plus the distinct-key count.
fn spawn_phase(phase: &str, samples: usize, threads: usize, trials: usize) -> (f64, usize) {
    let exe = std::env::current_exe().expect("current exe");
    let mut best = f64::INFINITY;
    let mut distinct = 0usize;
    for trial in 0..trials {
        eprintln!(
            "sampler phase '{phase}' trial {}/{trials}: {samples} samples…",
            trial + 1
        );
        let output = std::process::Command::new(&exe)
            .args([
                "--phase",
                phase,
                "--samples",
                &samples.to_string(),
                "--threads",
                &threads.to_string(),
            ])
            .output()
            .expect("spawn phase");
        assert!(
            output.status.success(),
            "phase {phase} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let text = String::from_utf8(output.stdout).expect("phase output utf8");
        let value: Value = serde_json::from_str(text.trim()).expect("phase output JSON");
        best = best.min(
            value
                .get("seconds")
                .and_then(Value::as_f64)
                .expect("seconds"),
        );
        distinct = value
            .get("distinct")
            .and_then(Value::as_u64)
            .expect("distinct") as usize;
    }
    (best, distinct)
}

/// The sampler kernel against the legacy accumulator. The
/// `parallel_sample_n` row is recorded only on hosts with at least two
/// cores: at one thread it is the sequential kernel again, not a
/// scaling result.
fn measure_sampler(samples: usize, trials: usize) -> (Value, f64) {
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get().min(8));
    let (legacy_secs, legacy_distinct) = spawn_phase("legacy", samples, threads, trials);
    let (kernel_secs, kernel_distinct) = spawn_phase("kernel", samples, threads, trials);
    assert_eq!(
        kernel_distinct, legacy_distinct,
        "kernel and baseline must count the same stream identically"
    );
    let parallel = (threads > 1).then(|| {
        let (parallel_secs, _) = spawn_phase("parallel", samples, threads, trials);
        (
            "parallel_sample_n",
            obj(vec![
                ("threads", Value::Number(threads as f64)),
                ("seconds", Value::Number(parallel_secs)),
                ("ops_per_sec", Value::Number(samples as f64 / parallel_secs)),
            ]),
        )
    });

    let speedup = legacy_secs / kernel_secs;
    let mut fields = vec![
        (
            "workload",
            obj(vec![
                ("dataset", Value::String("dot".into())),
                ("n", Value::Number(N_ITEMS as f64)),
                ("d", Value::Number(3.0)),
                ("scope", Value::String("full".into())),
                ("samples", Value::Number(samples as f64)),
                ("distinct_rankings", Value::Number(legacy_distinct as f64)),
            ]),
        ),
        ("legacy_sample_n", rate(samples, legacy_secs)),
        ("cold_sample_n", rate(samples, kernel_secs)),
    ];
    fields.extend(parallel);
    fields.push(("speedup_vs_legacy", Value::Number(speedup)));
    (obj(fields), speedup)
}

fn measure_service(rounds: usize) -> Value {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    engine
        .registry()
        .load(
            "dot2000",
            &DatasetSource::Builtin {
                family: "dot".into(),
                n: N_ITEMS,
                d: 0,
                seed: 1322,
            },
        )
        .expect("builtin dataset loads");
    let mut server = serve_tcp(Arc::clone(&engine), "127.0.0.1:0", 4).expect("bind");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");

    const SUBS: usize = 8;
    let sub = |i: usize| {
        format!(
            r#"{{"id": {i}, "op": "verify", "dataset": "dot2000", "weights": [1, 1, {}], "samples": 20000}}"#,
            1.0 + i as f64 * 1e-3
        )
    };
    let batch_line = format!(
        r#"{{"op": "batch", "requests": [{}]}}"#,
        (0..SUBS).map(sub).collect::<Vec<_>>().join(", ")
    );
    let parse = |s: &str| serde_json::from_str(s).expect("valid JSON");

    // Warm every sub-result so both measurements exercise the same
    // (cached) compute and the difference is round-trip/fan-out overhead.
    for i in 0..SUBS {
        client.call_ok(&parse(&sub(i))).expect("warm verify");
    }

    eprintln!("service: {rounds} rounds of {SUBS} sequential round-trips…");
    let t = Instant::now();
    for _ in 0..rounds {
        for i in 0..SUBS {
            client.call_ok(&parse(&sub(i))).expect("sequential verify");
        }
    }
    let sequential_secs = t.elapsed().as_secs_f64();

    eprintln!("service: {rounds} rounds of one {SUBS}-sub batch op…");
    let batch_request = parse(&batch_line);
    let t = Instant::now();
    for _ in 0..rounds {
        let result = client.call_ok(&batch_request).expect("batch verify");
        let results = result
            .get("results")
            .and_then(Value::as_array)
            .expect("batch results");
        assert_eq!(results.len(), SUBS);
    }
    let batch_secs = t.elapsed().as_secs_f64();
    server.shutdown();

    obj(vec![
        ("sub_requests", Value::Number(SUBS as f64)),
        ("rounds", Value::Number(rounds as f64)),
        ("sequential", rate(rounds * SUBS, sequential_secs)),
        ("batch_op", rate(rounds * SUBS, batch_secs)),
        ("batch_speedup", Value::Number(sequential_secs / batch_secs)),
    ])
}

/// Batch-dispatch benchmark — the regression this PR series chased:
/// BENCH_5 measured an 8-sub batch *slower* than 8 sequential
/// round-trips (0.97×) because every sub paid the pool hop plus a
/// per-line serialize/flush. Three batch shapes, each batch-op vs
/// sequential over the same TCP connection:
///
/// * `cold_batch` — 8 cold exact verifies (pool-class): honest ~1.0× on
///   a single-core box (the kernels dominate and cannot overlap);
///   recorded, not gated.
/// * `cached_batch` — 8 result-cache hits: pure dispatch overhead.
/// * `mixed_batch` — 3 cached + 3 tiny cold inline-class verifies +
///   2 pings, the shape the inline classifier exists for.
///
/// Plus a two-client session fairness probe (tagged `session.get_next`
/// contention) recording `session_queue.fair_grants`.
fn measure_batch_dispatch(smoke: bool) -> Value {
    let rounds = if smoke { 5 } else { 50 };
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    engine
        .registry()
        .load(
            "dot2000",
            &DatasetSource::Builtin {
                family: "dot".into(),
                n: N_ITEMS,
                d: 0,
                seed: 1322,
            },
        )
        .expect("builtin dataset loads");
    // Small sibling dataset for the tiny inline-class subs: a verify's
    // floor is the query's own scoring + ranking pass, so on the
    // 2000-row set even a 200-sample Monte-Carlo verify costs ~400 µs —
    // swamping the dispatch overhead the mixed shape exists to measure.
    // On 200 rows the whole sub is tens of microseconds of kernel.
    engine
        .registry()
        .load(
            "dot200",
            &DatasetSource::Builtin {
                family: "dot".into(),
                n: 200,
                d: 0,
                seed: 1322,
            },
        )
        .expect("builtin dataset loads");
    let mut server = serve_tcp(Arc::clone(&engine), "127.0.0.1:0", 4).expect("bind");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    let parse = |s: &str| -> Value { serde_json::from_str(s).expect("valid JSON") };

    // Cached sub: fixed weights, warmed below → result-LRU hit.
    let cached_sub = |i: usize| {
        format!(
            r#"{{"id": {i}, "op": "verify", "dataset": "dot2000", "weights": [1, 1, {}], "samples": 20000}}"#,
            1.0 + i as f64 * 1e-3
        )
    };
    // Tiny inline-class sub: the cone ROI forces the d = 3 verify onto
    // the Monte-Carlo kernel, and 100 samples on the 200-row dataset is
    // tens of microseconds of kernel — well under the inline threshold,
    // and small enough that the dispatch cost (RTTs, pool hops,
    // serializes) stays the dominant term. `salt` keeps weights unique
    // per leg/round/slot so every call is a result-cache miss (the
    // *sample batch* is keyed without weights and stays warm — the
    // realistic steady state).
    let tiny_sub = |i: usize, salt: usize| {
        format!(
            r#"{{"id": {i}, "op": "verify", "dataset": "dot200", "weights": [1, 1, {}], "roi": {{"around": [1, 1, 1], "theta": 0.5}}, "samples": 100, "seed": 99}}"#,
            1.0 + salt as f64 * 1e-5
        )
    };
    // Cold pool-class sub: no ROI → the exact d = 3 kernel over all
    // 2000 rows, well over the inline row bound; unique weights per
    // leg/round/slot keep every call a real kernel run.
    let cold_sub = |i: usize, salt: usize| {
        format!(
            r#"{{"id": {i}, "op": "verify", "dataset": "dot2000", "weights": [1, 1, {}]}}"#,
            1.0 + salt as f64 * 1e-5
        )
    };

    // Warms the cached subs and the tiny subs' shared sample batch.
    // Re-run before every shape that depends on warm entries: the cold
    // shape inserts 8 unique results per round, which churns the
    // 512-entry result LRU past the warm set on a full-length run.
    let warm = |client: &mut Client| {
        for i in 0..8 {
            client.call_ok(&parse(&cached_sub(i))).expect("warm verify");
        }
        client
            .call_ok(&parse(&tiny_sub(0, 999_999)))
            .expect("warm sample batch");
    };
    warm(&mut client);

    // Measures `shape_rounds` rounds of one 8-sub shape, sequential
    // then batch; `subs(round, slot, leg)` yields each sub-request
    // line. The cheap shapes run 10× the rounds of the kernel-bound
    // cold shape — their legs are microseconds per call, and the extra
    // rounds keep one scheduler hiccup from flipping the speedup.
    let measure_shape = |client: &mut Client,
                         name: &str,
                         shape_rounds: usize,
                         subs: &dyn Fn(usize, usize, usize) -> String|
     -> Value {
        eprintln!("batch_dispatch/{name}: {shape_rounds} rounds, sequential vs batch…");
        let t = Instant::now();
        for round in 0..shape_rounds {
            for slot in 0..8 {
                client
                    .call_ok(&parse(&subs(round, slot, 0)))
                    .expect("sequential sub");
            }
        }
        let sequential_secs = t.elapsed().as_secs_f64();

        let t = Instant::now();
        for round in 0..shape_rounds {
            let line = format!(
                r#"{{"op": "batch", "requests": [{}]}}"#,
                (0..8)
                    .map(|slot| subs(round, slot, 1))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            let result = client.call_ok(&parse(&line)).expect("batch op");
            let results = result
                .get("results")
                .and_then(Value::as_array)
                .expect("batch results");
            assert_eq!(results.len(), 8);
        }
        let batch_secs = t.elapsed().as_secs_f64();
        obj(vec![
            ("rounds", Value::Number(shape_rounds as f64)),
            ("sequential", rate(shape_rounds * 8, sequential_secs)),
            ("batch_op", rate(shape_rounds * 8, batch_secs)),
            ("batch_speedup", Value::Number(sequential_secs / batch_secs)),
        ])
    };

    // Salt stride of 10_000 per leg: wider than any shape's round
    // count, so a sequential-leg weight can never collide with (and
    // pre-cache) a batch-leg weight.
    let cold = measure_shape(&mut client, "cold", rounds, &|round, slot, leg| {
        cold_sub(slot, (leg * 10_000 + round) * 8 + slot + 1)
    });
    warm(&mut client);
    let cached = measure_shape(&mut client, "cached", rounds * 10, &|_, slot, _| {
        cached_sub(slot)
    });
    warm(&mut client);
    let mixed = measure_shape(
        &mut client,
        "mixed",
        rounds * 10,
        &|round, slot, leg| match slot {
            0..=2 => cached_sub(slot),
            3..=5 => tiny_sub(slot, 100_000 + (leg * 10_000 + round) * 8 + slot),
            _ => format!(r#"{{"id": {slot}, "op": "ping"}}"#),
        },
    );

    // The dispatch-cost attribution behind the speedups: phase
    // histograms plus the inline/coalescing counters, snapshotted after
    // the three shapes ran.
    let stats = client
        .call_ok(&parse(r#"{"op": "stats"}"#))
        .expect("stats op");
    let pool = stats.get("pool").cloned().unwrap_or(Value::Null);
    let dispatch_counters = obj(vec![
        (
            "inline_answered",
            pool.get("inline_answered").cloned().unwrap_or(Value::Null),
        ),
        (
            "writes_coalesced",
            pool.get("writes_coalesced").cloned().unwrap_or(Value::Null),
        ),
        (
            "pool_submitted",
            pool.get("submitted").cloned().unwrap_or(Value::Null),
        ),
    ]);
    let phases = stats.get("phases").cloned().unwrap_or(Value::Null);

    // Fairness probe: a greedy client "A" (two connections) and a
    // polite client "B" (one) hammer tagged `session.get_next` on the
    // same session. When both of A's requests bracket B in the queue,
    // FIFO would grant A twice in a row; the fair pick lets B overtake,
    // visible as `fair_grants`. (Two single-connection clients strictly
    // alternate on their own, so the fair path would never fire.)
    let open = client
        .call_ok(&parse(
            r#"{"op": "session.open", "dataset": "dot2000", "kind": "randomized", "scope": "top-k-set", "k": 5, "seed": 7, "budget": 1000000}"#,
        ))
        .expect("session opens");
    let session = open
        .get("session")
        .and_then(Value::as_u64)
        .expect("session id");
    let probe_rounds = if smoke { 20 } else { 200 };
    std::thread::scope(|s| {
        for tag in ["A", "A", "B"] {
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                // Small per-call budget override: the probe measures
                // queue contention, not enumeration depth — a full
                // 1M-sample draw per call would dominate the wait times
                // (and outlast the server's idle disconnect).
                let line = format!(
                    r#"{{"op": "session.get_next", "session": {session}, "client": "{tag}", "budget": 20000}}"#
                );
                let request: Value = serde_json::from_str(&line).expect("valid JSON");
                for _ in 0..probe_rounds {
                    c.call_ok(&request).expect("tagged get_next");
                }
            });
        }
    });
    // The probe can outlast the server's 60 s idle disconnect on the
    // (quiet) main connection; re-dial before reading the stats.
    client.reconnect().expect("reconnect");
    let stats = client
        .call_ok(&parse(r#"{"op": "stats"}"#))
        .expect("stats op");
    let queue = stats.get("session_queue").cloned().unwrap_or(Value::Null);
    let fairness = obj(vec![
        (
            "probe_rounds_per_connection",
            Value::Number(probe_rounds as f64),
        ),
        (
            "fair_grants",
            queue.get("fair_grants").cloned().unwrap_or(Value::Null),
        ),
        (
            "granted",
            queue.get("granted").cloned().unwrap_or(Value::Null),
        ),
        (
            "wait_p99_micros",
            queue.get("wait_p99_micros").cloned().unwrap_or(Value::Null),
        ),
    ]);
    server.shutdown();

    obj(vec![
        ("rounds", Value::Number(rounds as f64)),
        ("cold_batch", cold),
        ("cached_batch", cached),
        ("mixed_batch", mixed),
        ("dispatch_counters", dispatch_counters),
        ("phases", phases),
        ("fairness_probe", fairness),
    ])
}

/// Tracing-overhead benchmark: the full-scope DoT verify (Monte-Carlo
/// kernel over `samples` weight samples, forced by a wide cone ROI on
/// the d = 3 data) through an engine tracing every request
/// (`trace_sample: 1`) vs one with tracing compiled to its disabled
/// path (`trace_sample: 0`). Every call uses fresh weights (result-cache
/// misses), so each one runs the real kernel; the shared sample batch is
/// warmed first in both engines so per-call work is identical. Reports
/// the min-of-`trials` block time per mode and the overhead percentage —
/// the acceptance gate is ≤ 2%.
fn measure_tracing(samples: usize, rounds: usize, trials: usize) -> Value {
    let engine_for = |trace_sample: u64| {
        let engine = Engine::new(EngineConfig {
            trace_sample,
            ..EngineConfig::default()
        });
        engine
            .registry()
            .load(
                "dot2000",
                &DatasetSource::Builtin {
                    family: "dot".into(),
                    n: N_ITEMS,
                    d: 0,
                    seed: 1322,
                },
            )
            .expect("builtin dataset loads");
        engine
    };
    let call = |engine: &Engine, req: &str| {
        let response: Value = serde_json::from_str(&engine.handle_line(req)).unwrap();
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "{req}: {response:?}"
        );
    };
    // Unique weights per call → result-cache miss → the kernel runs.
    // The ROI forces the d = 3 verify onto the Monte-Carlo kernel.
    let verify = |i: usize| {
        format!(
            r#"{{"op": "verify", "dataset": "dot2000", "weights": [1, 1, {}], "roi": {{"around": [1, 1, 1], "theta": 0.5}}, "samples": {samples}, "seed": 99}}"#,
            1.0 + i as f64 * 1e-4
        )
    };
    let run_block = |engine: &Engine, base: usize| -> f64 {
        let t = Instant::now();
        for i in 0..rounds {
            call(engine, &verify(base + i));
        }
        t.elapsed().as_secs_f64()
    };

    let off = engine_for(0);
    let on = engine_for(1);
    // Warm the shared sample batch (and code/caches) in both engines.
    call(&off, &verify(999_999));
    call(&on, &verify(999_999));

    let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
    for trial in 0..trials {
        eprintln!(
            "tracing trial {}/{trials}: {rounds} verifies × {samples} samples, off vs on…",
            trial + 1
        );
        // Interleave modes within each trial, alternating which goes
        // first, so frequency drift and scheduler preemption hit both
        // sides equally instead of always taxing the second block.
        if trial % 2 == 0 {
            best_off = best_off.min(run_block(&off, 1 + trial * rounds));
            best_on = best_on.min(run_block(&on, 1 + trial * rounds));
        } else {
            best_on = best_on.min(run_block(&on, 1 + trial * rounds));
            best_off = best_off.min(run_block(&off, 1 + trial * rounds));
        }
    }
    let overhead_percent = (best_on - best_off) / best_off * 100.0;
    obj(vec![
        ("samples", Value::Number(samples as f64)),
        ("rounds", Value::Number(rounds as f64)),
        ("trace_sample", Value::Number(1.0)),
        ("tracing_disabled", rate(rounds, best_off)),
        ("tracing_enabled", rate(rounds, best_on)),
        ("overhead_percent", Value::Number(overhead_percent)),
    ])
}

/// Observability overhead: the 100k-sample Monte-Carlo verify kernel
/// through an engine with the obs layer fully on (windowed ring
/// attached, per-client accounting charging a tagged client, kernel
/// CPU measured) vs fully off (`window_telemetry: false`,
/// `client_table_capacity: 0`). Same structure as [`measure_tracing`]:
/// interleaved min-of-N blocks so drift taxes both sides equally.
fn measure_obs(samples: usize, rounds: usize, trials: usize) -> Value {
    let engine_for = |on: bool| {
        let engine = Engine::new(EngineConfig {
            window_telemetry: on,
            client_table_capacity: if on { 64 } else { 0 },
            ..EngineConfig::default()
        });
        engine
            .registry()
            .load(
                "dot2000",
                &DatasetSource::Builtin {
                    family: "dot".into(),
                    n: N_ITEMS,
                    d: 0,
                    seed: 1322,
                },
            )
            .expect("builtin dataset loads");
        engine
    };
    let call = |engine: &Engine, req: &str| {
        let response: Value = serde_json::from_str(&engine.handle_line(req)).unwrap();
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "{req}: {response:?}"
        );
    };
    // Unique weights per call → result-cache miss → the kernel runs;
    // the client tag exercises the accounting path on the on-side (the
    // off-side parses the same bytes, so the request cost is identical).
    let verify = |i: usize| {
        format!(
            r#"{{"op": "verify", "dataset": "dot2000", "weights": [1, 1, {}], "roi": {{"around": [1, 1, 1], "theta": 0.5}}, "samples": {samples}, "seed": 99, "client": "bench-tenant"}}"#,
            1.0 + i as f64 * 1e-4
        )
    };
    let run_block = |engine: &Engine, base: usize| -> f64 {
        let t = Instant::now();
        for i in 0..rounds {
            call(engine, &verify(base + i));
        }
        t.elapsed().as_secs_f64()
    };

    let off = engine_for(false);
    let on = engine_for(true);
    call(&off, &verify(999_999));
    call(&on, &verify(999_999));

    let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
    for trial in 0..trials {
        eprintln!(
            "obs trial {}/{trials}: {rounds} tagged verifies × {samples} samples, off vs on…",
            trial + 1
        );
        if trial % 2 == 0 {
            best_off = best_off.min(run_block(&off, 1 + trial * rounds));
            best_on = best_on.min(run_block(&on, 1 + trial * rounds));
        } else {
            best_on = best_on.min(run_block(&on, 1 + trial * rounds));
            best_off = best_off.min(run_block(&off, 1 + trial * rounds));
        }
    }
    let overhead_percent = (best_on - best_off) / best_off * 100.0;
    obj(vec![
        ("samples", Value::Number(samples as f64)),
        ("rounds", Value::Number(rounds as f64)),
        ("obs_disabled", rate(rounds, best_off)),
        ("obs_enabled", rate(rounds, best_on)),
        ("overhead_percent", Value::Number(overhead_percent)),
    ])
}

/// Warm-restart benchmark: time-to-first-cached-verify across a
/// snapshot/restore cycle, against the cold computation it avoids.
fn measure_persistence(samples: usize) -> Value {
    let dir = std::env::temp_dir().join(format!("srank-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let with_dir = || {
        Engine::new(EngineConfig {
            data_dir: Some(dir.clone()),
            ..EngineConfig::default()
        })
    };
    let load = format!(
        r#"{{"op": "registry.load", "dataset": "dot2000", "builtin": "dot", "n": {N_ITEMS}, "d": 0, "seed": 1322}}"#
    );
    let verify = format!(
        r#"{{"op": "verify", "dataset": "dot2000", "weights": [1, 1, 1.5], "samples": {samples}}}"#
    );
    let call = |engine: &Engine, req: &str| -> Value {
        let response: Value = serde_json::from_str(&engine.handle_line(req)).unwrap();
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "{req}: {response:?}"
        );
        response
    };

    eprintln!("persistence: cold verify + snapshot…");
    let cold_secs;
    {
        let engine = with_dir();
        call(&engine, &load);
        let t = Instant::now();
        call(&engine, &verify);
        cold_secs = t.elapsed().as_secs_f64();
        call(&engine, r#"{"op": "snapshot"}"#);
    }

    eprintln!("persistence: warm restart…");
    let t = Instant::now();
    let engine = with_dir(); // boot restore happens inside
    let restore_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let response = call(&engine, &verify);
    let warm_secs = t.elapsed().as_secs_f64();
    assert_eq!(
        response.get("cached").and_then(Value::as_bool),
        Some(true),
        "first verify after restart must be a cache hit"
    );
    let _ = std::fs::remove_dir_all(&dir);

    obj(vec![
        ("samples", Value::Number(samples as f64)),
        ("cold_verify_seconds", Value::Number(cold_secs)),
        ("restore_boot_seconds", Value::Number(restore_secs)),
        ("warm_first_cached_verify_seconds", Value::Number(warm_secs)),
        (
            "time_to_first_cached_verify_seconds",
            Value::Number(restore_secs + warm_secs),
        ),
        (
            "warm_speedup_vs_cold",
            Value::Number(cold_secs / (restore_secs + warm_secs)),
        ),
    ])
}

/// Overload benchmark: open-loop latency of probe requests against a
/// deliberately swamped pool (2 workers, background threads keeping
/// dozens of cold Monte-Carlo verifies queued), with admission-control
/// shedding on vs off. Probes ride through the same pool (single-sub
/// batches) on a fixed arrival schedule; latency is measured from the
/// *scheduled* send time, so backlog-induced drift counts against the
/// tail instead of being coordinated-omitted away. The claim under
/// test: shedding fast-fails the backlog, keeping both the cold-probe
/// tail (fast typed `overloaded` instead of a long queue wait) and the
/// cache-hit tail (hits are always admitted) bounded.
fn measure_overload(smoke: bool) -> Value {
    use srank_service::guard::GuardConfig;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    // Each buffered batch holds at most pool-width subs in flight, so
    // queue depth scales with *connections*: 4 background connections ×
    // a 2-wide window keep ~6 jobs queued against a threshold of 2.
    const BG_THREADS: usize = 4;
    const BG_SUBS: usize = 8;
    let (probes, interval_ms) = if smoke {
        (10usize, 20u64)
    } else {
        (40usize, 25u64)
    };

    let percentile = |sorted: &[f64], p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = (p * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    };

    let run_mode = |shedding: bool| -> Value {
        let engine = Arc::new(Engine::new(EngineConfig {
            pool_workers: 2,
            guard: GuardConfig {
                shed_pool_queue: if shedding { 2 } else { 0 },
                ..GuardConfig::default()
            },
            ..EngineConfig::default()
        }));
        engine
            .registry()
            .load(
                "dot2000",
                &DatasetSource::Builtin {
                    family: "dot".into(),
                    n: N_ITEMS,
                    d: 0,
                    seed: 1322,
                },
            )
            .expect("builtin dataset loads");
        let mut server =
            serve_tcp(Arc::clone(&engine), "127.0.0.1:0", BG_THREADS + 4).expect("bind");
        let addr = server.addr();
        let parse = |s: &str| -> Value { serde_json::from_str(s).expect("valid JSON") };

        // Warm the fixed-weight verify so warm probes are cache hits.
        let warm_sub =
            r#"{"op": "verify", "dataset": "dot2000", "weights": [1, 1, 1.5], "samples": 20000}"#
                .to_string();
        {
            let mut setup = Client::connect(addr).expect("connect");
            setup.call_ok(&parse(&warm_sub)).expect("warm verify");
        }

        // Uncontended baseline: the same warm single-sub batch probe with
        // no background load. The acceptance bar for shedding is the warm
        // RTT p99 under overload staying within 5× of this.
        let warm_line = format!(r#"{{"op": "batch", "requests": [{warm_sub}]}}"#);
        let mut uncontended: Vec<f64> = {
            let mut client = Client::connect(addr).expect("connect");
            (0..probes)
                .map(|_| {
                    let sent = Instant::now();
                    client.call_ok(&parse(&warm_line)).expect("baseline probe");
                    sent.elapsed().as_secs_f64() * 1_000.0
                })
                .collect()
        };
        uncontended.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let uncontended_p50 = percentile(&uncontended, 0.50);
        let uncontended_p99 = percentile(&uncontended, 0.99);

        let stop = AtomicBool::new(false);
        let bg_batches = AtomicUsize::new(0);
        let cold_seq = AtomicUsize::new(0);
        // Unique weights per draw → never a cache hit → real kernel work.
        let cold_sub = |i: usize| {
            format!(
                r#"{{"op": "verify", "dataset": "dot2000", "weights": [1, 1, {}], "samples": 20000}}"#,
                2.0 + i as f64 * 1e-4
            )
        };

        eprintln!(
            "overload (shedding {}): {probes} probes × {interval_ms} ms against a swamped 2-worker pool…",
            if shedding { "on" } else { "off" }
        );
        let (cold_lat, warm_lat, shed_count) = std::thread::scope(|scope| {
            for _ in 0..BG_THREADS {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).expect("connect");
                    while !stop.load(Ordering::Relaxed) {
                        let base = cold_seq.fetch_add(BG_SUBS, Ordering::Relaxed);
                        let line = format!(
                            r#"{{"op": "batch", "requests": [{}]}}"#,
                            (base..base + BG_SUBS)
                                .map(&cold_sub)
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                        // Sub-requests may individually be shed; the
                        // batch op itself still answers ok.
                        let _ = client.call_ok(&parse(&line));
                        bg_batches.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }

            let probe_thread = scope.spawn(|| {
                let mut client = Client::connect(addr).expect("connect");
                // Let the background threads build a backlog first.
                std::thread::sleep(std::time::Duration::from_millis(200));
                let mut cold_lat = Vec::new();
                let mut warm_lat = Vec::new();
                let mut shed = 0usize;
                let interval = std::time::Duration::from_millis(interval_ms);
                let start = Instant::now();
                for i in 0..probes * 2 {
                    let scheduled = interval * i as u32;
                    if let Some(wait) = scheduled.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let cold = i % 2 == 0;
                    let sub = if cold {
                        cold_sub(1_000_000 + i)
                    } else {
                        warm_sub.clone()
                    };
                    let line = format!(r#"{{"op": "batch", "requests": [{sub}]}}"#);
                    let sent = Instant::now();
                    let result = client.call_ok(&parse(&line)).expect("probe batch");
                    // Open-loop latency: measured from the *scheduled*
                    // send, so when the server falls behind the arrival
                    // rate the drift lands in the tail (it diverges with
                    // run length once capacity is exceeded — that
                    // divergence is the shedding-off pathology). The RTT
                    // of the same probe is recorded alongside.
                    let latency = (start.elapsed() - scheduled).as_secs_f64() * 1_000.0;
                    let rtt = sent.elapsed().as_secs_f64() * 1_000.0;
                    let envelope = &result
                        .get("results")
                        .and_then(Value::as_array)
                        .expect("batch results")[0];
                    let code = envelope
                        .get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(Value::as_str);
                    match code {
                        None | Some("overloaded") => {
                            if code.is_some() {
                                shed += 1;
                            }
                            if cold {
                                cold_lat.push((latency, rtt));
                            } else {
                                warm_lat.push((latency, rtt));
                            }
                        }
                        Some(other) => panic!("probe failed with {other}: {envelope:?}"),
                    }
                }
                (cold_lat, warm_lat, shed)
            });
            let out = probe_thread.join().expect("probe thread");
            stop.store(true, Ordering::Relaxed);
            out
        });
        server.shutdown();

        let stats: Value =
            serde_json::from_str(&engine.handle_line(r#"{"op": "stats"}"#)).expect("stats JSON");
        let shed_total = stats
            .get("result")
            .and_then(|r| r.get("guard"))
            .and_then(|g| g.get("shed_total"))
            .and_then(Value::as_u64)
            .unwrap_or(0);

        let class = |probes: &[(f64, f64)]| -> Value {
            let mut open: Vec<f64> = probes.iter().map(|p| p.0).collect();
            let mut rtt: Vec<f64> = probes.iter().map(|p| p.1).collect();
            open.sort_by(|a, b| a.partial_cmp(b).unwrap());
            rtt.sort_by(|a, b| a.partial_cmp(b).unwrap());
            obj(vec![
                ("open_loop_p50_ms", Value::Number(percentile(&open, 0.50))),
                ("open_loop_p99_ms", Value::Number(percentile(&open, 0.99))),
                ("rtt_p50_ms", Value::Number(percentile(&rtt, 0.50))),
                ("rtt_p99_ms", Value::Number(percentile(&rtt, 0.99))),
            ])
        };
        let mut warm_rtt: Vec<f64> = warm_lat.iter().map(|p| p.1).collect();
        warm_rtt.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let warm_rtt_p99 = percentile(&warm_rtt, 0.99);

        obj(vec![
            ("shedding", Value::Bool(shedding)),
            ("probes_per_class", Value::Number(probes as f64)),
            ("probe_interval_ms", Value::Number(interval_ms as f64)),
            ("probes_shed", Value::Number(shed_count as f64)),
            ("shed_total", Value::Number(shed_total as f64)),
            (
                "background_batches",
                Value::Number(bg_batches.load(Ordering::Relaxed) as f64),
            ),
            ("cold_probe", class(&cold_lat)),
            ("warm_probe", class(&warm_lat)),
            (
                "uncontended_warm",
                obj(vec![
                    ("rtt_p50_ms", Value::Number(uncontended_p50)),
                    ("rtt_p99_ms", Value::Number(uncontended_p99)),
                ]),
            ),
            (
                "warm_rtt_p99_vs_uncontended",
                Value::Number(if uncontended_p99 > 0.0 {
                    warm_rtt_p99 / uncontended_p99
                } else {
                    0.0
                }),
            ),
        ])
    };

    let off = run_mode(false);
    let on = run_mode(true);
    obj(vec![
        ("workload", Value::String(
            "2-worker pool, 4 background connections of 8-sub cold-verify batches, open-loop probes through the same pool".into(),
        )),
        ("shedding_off", off),
        ("shedding_on", on),
    ])
}

/// Median of a sample of timings.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// The 3-D Monte-Carlo `overview` on `dot`: end to end through
/// `Engine::handle_line` (the counting kernel, plus parse, batch draw
/// and render), against the `GET-NEXTmd` arrangement walk the engine
/// used before, timed here on the same batch (buffer copy + full walk,
/// no parse or render). Every engine call uses a fresh sample seed, so
/// it misses the result cache and draws its batch like a cold request.
/// Shapes are `(n, samples, engine rounds, reference rounds)`; the
/// walk's leaf count must equal the engine's `rankings`.
fn measure_overview(smoke: bool) -> Value {
    let shapes: &[(usize, usize, u64, u64)] = if smoke {
        &[(200, 200, 5, 2), (500, 500, 3, 1)]
    } else {
        &[(200, 200, 40, 10), (2000, 2000, 10, 1)]
    };
    let rows = shapes
        .iter()
        .map(|&(n, samples, rounds, reference_rounds)| {
            let engine = Engine::new(EngineConfig::default());
            let entry = engine
                .registry()
                .load(
                    "dot",
                    &DatasetSource::Builtin {
                        family: "dot".into(),
                        n,
                        d: 0,
                        seed: 1322,
                    },
                )
                .expect("builtin dataset loads");
            let data = Arc::clone(&entry.dataset);
            let roi = RegionOfInterest::full(data.dim());
            let (mut engine_us, mut reference_us) = (Vec::new(), Vec::new());
            for seed in 0..rounds {
                eprintln!("overview n={n} samples={samples} round {}/{rounds}…", seed + 1);
                let req = format!(
                    r#"{{"op": "overview", "dataset": "dot", "samples": {samples}, "seed": {seed}}}"#
                );
                let t = Instant::now();
                let response: Value = serde_json::from_str(&engine.handle_line(&req)).unwrap();
                engine_us.push(t.elapsed().as_secs_f64() * 1e6);
                let rankings = response
                    .get("result")
                    .and_then(|r| r.get("rankings"))
                    .and_then(Value::as_u64)
                    .unwrap_or_else(|| panic!("{req}: {response:?}"));
                if seed < reference_rounds {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let batch = roi.sampler().sample_buffer(&mut rng, samples);
                    let t = Instant::now();
                    let mut e = MdEnumerator::with_samples(&data, &roi, batch.clone()).unwrap();
                    let leaves = std::iter::from_fn(|| e.get_next()).count();
                    reference_us.push(t.elapsed().as_secs_f64() * 1e6);
                    assert_eq!(leaves as u64, rankings, "walk and engine disagree");
                }
            }
            let (engine_p50, reference_p50) = (median(engine_us), median(reference_us));
            obj(vec![
                ("n", Value::Number(n as f64)),
                ("d", Value::Number(data.dim() as f64)),
                ("samples", Value::Number(samples as f64)),
                ("engine_rounds", Value::Number(rounds as f64)),
                ("engine_overview_p50_us", Value::Number(engine_p50)),
                ("reference_rounds", Value::Number(reference_rounds as f64)),
                ("md_walk_reference_p50_us", Value::Number(reference_p50)),
                ("speedup", Value::Number(reference_p50 / engine_p50)),
            ])
        })
        .collect();
    Value::Array(rows)
}

/// One `md` session's cost profile — the `GET-NEXTmd` walk an `md`
/// session runs — on fifa (n = 1000, d = 4) and bluenile (n = 2000,
/// d = 5) with 2000 full-orthant samples, over `sessions` sample seeds:
///
/// * `harvest_us` — the first `MdEnumerator::with_samples` on a freshly
///   loaded dataset: the batch copy plus the `×hps` pair harvest, which
///   the dataset then keeps;
/// * `open_p50_us` — the later opens on the same dataset (the batch copy
///   and a shared pair list), what a warm `session.open` pays;
/// * `first_next_p50_us` — the first `get_next` (refines the root down
///   to the first leaf);
/// * `later_next_p50_us` — the median of the next `later` calls;
/// * `next_over_first` — later ÷ first, a smoke gate (a later call
///   that rescans every hyperplane costs a sizeable fraction of the
///   first); the other gate is `open_p50_us < 0.1 × harvest_us` (an
///   open that harvests again costs about as much as the first);
/// * `hyperplanes` and `hyperplane_bytes` — the harvest's size and the
///   state's storage for it (one `(u32, u32)` pair each).
fn measure_md_session(sessions: u64, later: usize) -> Value {
    let rows = [("fifa", 1000usize), ("bluenile", 2000)]
        .into_iter()
        .map(|(family, n)| {
            let engine = Engine::new(EngineConfig::default());
            let entry = engine
                .registry()
                .load(
                    family,
                    &DatasetSource::Builtin {
                        family: family.into(),
                        n,
                        d: 0,
                        seed: 7,
                    },
                )
                .expect("builtin dataset loads");
            let data = Arc::clone(&entry.dataset);
            let roi = RegionOfInterest::full(data.dim());
            let samples = 2000;
            let (mut open, mut first, mut next) = (Vec::new(), Vec::new(), Vec::new());
            let (mut hyperplanes, mut harvest) = (0, 0.0);
            for seed in 0..sessions {
                eprintln!("md_session {family}: session {}/{sessions}…", seed + 1);
                let batch = roi
                    .sampler()
                    .sample_buffer(&mut StdRng::seed_from_u64(seed), samples);
                let t = Instant::now();
                let mut e = MdEnumerator::with_samples(&data, &roi, batch.clone()).unwrap();
                let us = t.elapsed().as_secs_f64() * 1e6;
                if seed == 0 {
                    harvest = us;
                } else {
                    open.push(us);
                }
                hyperplanes = e.num_hyperplanes();
                let t = Instant::now();
                assert!(e.get_next().is_some(), "a first ranking exists");
                first.push(t.elapsed().as_secs_f64() * 1e6);
                for _ in 0..later {
                    let t = Instant::now();
                    let r = e.get_next();
                    next.push(t.elapsed().as_secs_f64() * 1e6);
                    assert!(r.is_some(), "{samples} samples outlast {later} rankings");
                }
            }
            let (open, first, next) = (median(open), median(first), median(next));
            obj(vec![
                ("dataset", Value::String(family.into())),
                ("n", Value::Number(data.len() as f64)),
                ("d", Value::Number(data.dim() as f64)),
                ("samples", Value::Number(samples as f64)),
                ("sessions", Value::Number(sessions as f64)),
                ("later_calls_per_session", Value::Number(later as f64)),
                ("hyperplanes", Value::Number(hyperplanes as f64)),
                (
                    "hyperplane_bytes",
                    Value::Number((hyperplanes * std::mem::size_of::<(u32, u32)>()) as f64),
                ),
                ("harvest_us", Value::Number(harvest)),
                ("open_p50_us", Value::Number(open)),
                ("first_next_p50_us", Value::Number(first)),
                ("later_next_p50_us", Value::Number(next)),
                ("next_over_first", Value::Number(next / first)),
            ])
        })
        .collect();
    Value::Array(rows)
}

/// The exact 2-D kernels on csmetrics (n = 1000, the perfbench table),
/// and one sweep checked against the exchange-sorting baseline:
///
/// * `rank_us` / `verify_us` — the two stages of a cold exact `verify`:
///   `Dataset::rank` and `SV2D` over the full interval, medians over
///   `weights` random weight vectors;
/// * `open_us` / `regions` / `first_next_us` — `Enumerator2D::new` over
///   perfbench-shaped regions of interest (a cone of half-angle 0.25–0.4
///   around an angle in 0.35–1.25, as a producer's sweep2d
///   `session.open` asks), its region count and its first `get_next`,
///   medians over `opens` regions;
/// * a quarter-grid row (n = 200, values in {0, .25, .5, .75, 1}, full
///   interval): `regions` of the sweep and `baseline_regions` of
///   `regions_via_sorted_exchanges`, a smoke gate that must read equal
///   (an exact count: a sweep that starts from the index-ordered ties at
///   `θ = 0` misses exchanges and reads fewer).
fn measure_exact_2d(weights: usize, opens: usize) -> Value {
    use rand::Rng;
    use srank_geom::angle2d::weight_from_angle_2d;
    let engine = Engine::new(EngineConfig::default());
    let entry = engine
        .registry()
        .load(
            "cs",
            &DatasetSource::Builtin {
                family: "csmetrics".into(),
                n: 1000,
                d: 0,
                seed: 7,
            },
        )
        .expect("builtin dataset loads");
    let data = Arc::clone(&entry.dataset);
    let mut rng = StdRng::seed_from_u64(29);
    let (mut rank, mut verify) = (Vec::new(), Vec::new());
    for _ in 0..weights {
        let w = weight_from_angle_2d(std::f64::consts::FRAC_PI_2 * rng.random::<f64>());
        let t = Instant::now();
        let ranking = data.rank(&w).unwrap();
        rank.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let v = stability_verify_2d(&data, &ranking, AngleInterval::full()).unwrap();
        verify.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(v.is_some(), "an observed ranking is feasible");
    }
    let (mut open, mut regions, mut first) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..opens {
        let theta = 0.25 + 0.15 * rng.random::<f64>();
        let angle = 0.35 + 0.9 * rng.random::<f64>();
        let roi = AngleInterval::around(&[angle.cos(), angle.sin()], theta).unwrap();
        let t = Instant::now();
        let mut e = Enumerator2D::new(&data, roi).unwrap();
        open.push(t.elapsed().as_secs_f64() * 1e6);
        regions.push(e.num_regions() as f64);
        let t = Instant::now();
        assert!(e.get_next().is_some(), "a region exists");
        first.push(t.elapsed().as_secs_f64() * 1e6);
    }
    // Its own stream: the smoke run sees the same table.
    let mut rng = StdRng::seed_from_u64(200);
    let quarter: Vec<Vec<f64>> = (0..200)
        .map(|_| {
            (0..2)
                .map(|_| 0.25 * (rng.random::<u64>() % 5) as f64)
                .collect()
        })
        .collect();
    let quarter = Dataset::from_rows(&quarter).unwrap();
    let sweep = Enumerator2D::new(&quarter, AngleInterval::full()).unwrap();
    let baseline = regions_via_sorted_exchanges(&quarter, AngleInterval::full()).unwrap();
    obj(vec![
        (
            "csmetrics",
            obj(vec![
                ("n", Value::Number(data.len() as f64)),
                ("weights", Value::Number(weights as f64)),
                ("rank_us", Value::Number(median(rank))),
                ("verify_us", Value::Number(median(verify))),
                ("opens", Value::Number(opens as f64)),
                ("open_us", Value::Number(median(open))),
                ("regions", Value::Number(median(regions))),
                ("first_next_us", Value::Number(median(first))),
            ]),
        ),
        (
            "quarter_grid",
            obj(vec![
                ("n", Value::Number(quarter.len() as f64)),
                ("regions", Value::Number(sweep.num_regions() as f64)),
                ("baseline_regions", Value::Number(baseline.len() as f64)),
            ]),
        ),
    ])
}

fn main() {
    let mut smoke = false;
    let mut out = "BENCH_29.json".to_string();
    let mut phase: Option<String> = None;
    let mut samples_override: Option<usize> = None;
    let mut threads = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--phase" => phase = Some(args.next().expect("--phase needs a name")),
            "--samples" => {
                samples_override = Some(
                    args.next()
                        .expect("--samples needs a count")
                        .parse()
                        .unwrap(),
                )
            }
            "--threads" => threads = args.next().expect("--threads").parse().unwrap(),
            other => panic!("bench_record: unknown option {other}"),
        }
    }
    let (samples, rounds, trials) = if smoke {
        (5_000, 5, 1)
    } else {
        (100_000, 50, 3)
    };
    if let Some(phase) = phase {
        run_phase(&phase, samples_override.unwrap_or(samples), threads);
        return;
    }

    let (sampler, speedup) = measure_sampler(samples, trials);
    let sampling_stages = measure_sampling_stages(if smoke { 2_000 } else { 20_000 });
    // Orthant batches on both sides of `INDEX_MIN_SAMPLES`, and a fifa
    // cone whose ranking region holds most of the batch.
    let (large, weights) = if smoke { (20_000, 10) } else { (100_000, 40) };
    let mc_verify = measure_mc_verify(
        &[
            ("fifa", 5_000, None),
            ("fifa", large, None),
            ("bluenile", 5_000, None),
            ("bluenile", large, None),
            ("fifa", large, Some(1e-6)),
        ],
        weights,
    );
    let md_session = if smoke {
        measure_md_session(3, 10)
    } else {
        measure_md_session(12, 50)
    };
    let service = measure_service(rounds);
    let persistence = measure_persistence(if smoke { 2_000 } else { 20_000 });
    // 40 rounds ≈ 100 ms per timed block: long enough that scheduler
    // jitter stops dominating the on-vs-off delta we are after. The
    // blocks are cheap, so take more trials than the sampler phases —
    // min-of-N converges on the unpreempted time for both sides.
    let tracing = measure_tracing(
        samples,
        if smoke { 2 } else { 40 },
        if smoke { trials } else { 10 },
    );
    let exact_2d = if smoke {
        measure_exact_2d(20, 5)
    } else {
        measure_exact_2d(400, 40)
    };
    let overload = measure_overload(smoke);
    let batch_dispatch = measure_batch_dispatch(smoke);
    let obs_overhead = measure_obs(
        samples,
        if smoke { 2 } else { 40 },
        if smoke { trials } else { 10 },
    );
    // Last: the reference walk at n = 2000 churns the most heap.
    let overview = measure_overview(smoke);
    let report = obj(vec![
        ("bench", Value::String("BENCH_29".into())),
        (
            "mode",
            Value::String(if smoke { "smoke" } else { "full" }.into()),
        ),
        (
            "available_parallelism",
            Value::Number(std::thread::available_parallelism().map_or(1, |p| p.get()) as f64),
        ),
        ("sampler", sampler),
        ("sampling_stages", sampling_stages),
        ("mc_verify", mc_verify),
        ("md_session", md_session),
        ("service_batch", service),
        ("warm_restart", persistence),
        ("tracing_overhead", tracing),
        ("overload_shedding", overload),
        ("batch_dispatch", batch_dispatch),
        ("obs_overhead", obs_overhead),
        ("overview", overview),
        ("exact_2d", exact_2d),
    ]);
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write(&out, format!("{json}\n")).expect("write report");
    println!("{json}");
    eprintln!("sampler speedup vs legacy: {speedup:.2}× → {out}");
}
