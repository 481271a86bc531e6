//! Regenerates every figure of the paper's evaluation (§6) plus the
//! sampler-validation figures of §5, printing each as a text table and
//! optionally dumping JSON for plotting.
//!
//! Usage:
//!   figures [--quick] [--full] [--json DIR] [fig3 fig4 ... fig21 | all]
//!
//! `--quick` shrinks the biggest workloads (CI-friendly); `--full` runs
//! paper-scale sizes everywhere (slow: the n = 10⁴ arrangement of Figure 13
//! and the 100K-item sweep of Figure 11 take minutes, exactly as the
//! paper's own measurements did). The default is a middle ground that
//! preserves every curve's shape. EXPERIMENTS.md records paper-vs-measured
//! numbers per figure.

use rand::rngs::StdRng;
use rand::SeedableRng;
use srank_bench::{
    bluenile_dataset, csmetrics_dataset, dot_dataset, fifa_dataset, seeds, synthetic_dataset,
    Figure, Series,
};
use srank_core::prelude::*;
use srank_core::Region2DInfo;
use srank_data::CorrelationKind;
use srank_sample::cap::CapSampler;
use srank_sample::special::sin_power_integral;
use srank_sample::sphere::{sample_angles_naive, sample_orthant_direction};
use std::f64::consts::PI;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
enum Scale {
    Quick,
    Default,
    Full,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Default;
    let mut json_dir: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--full" => scale = Scale::Full,
            "--json" => json_dir = it.next(),
            "all" => wanted.clear(),
            other if other.starts_with("fig") => wanted.push(other.to_string()),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: figures [--quick|--full] [--json DIR] [fig3 ... fig21 | all]");
                std::process::exit(2);
            }
        }
    }

    type Gen = fn(Scale) -> Figure;
    let catalog: Vec<(&str, Gen)> = vec![
        ("fig3", fig3),
        ("fig4", fig4),
        ("fig6", fig6),
        ("fig7", fig7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("fig14", fig14),
        ("fig15", fig15),
        ("fig16", fig16),
        ("fig17", fig17),
        ("fig18", fig18),
        ("fig19", fig19),
        ("fig20", fig20),
        ("fig21", fig21),
    ];

    for (id, gen) in &catalog {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == id) {
            continue;
        }
        let started = Instant::now();
        let fig = gen(scale);
        print!("{}", fig.render_text());
        println!("  (generated in {:.2?})\n", started.elapsed());
        if let Some(dir) = &json_dir {
            std::fs::create_dir_all(dir).expect("create json dir");
            let path = format!("{dir}/{id}.json");
            std::fs::write(&path, serde_json::to_string_pretty(&fig).unwrap()).expect("write json");
        }
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------------
// §5 sampler-validation figures
// ---------------------------------------------------------------------------

/// Per-coordinate means + argmax-cell χ² of a point cloud on the orthant
/// sphere: uniform clouds are coordinate-symmetric (χ² small), the naive
/// cloud is biased toward the last axis.
fn cloud_stats(points: &[Vec<f64>]) -> (Vec<f64>, f64) {
    let d = points[0].len();
    let n = points.len();
    let mut means = vec![0.0; d];
    let mut counts = vec![0usize; d];
    for p in points {
        for (m, x) in means.iter_mut().zip(p) {
            *m += x / n as f64;
        }
        let argmax = (0..d)
            .max_by(|&a, &b| p[a].partial_cmp(&p[b]).unwrap())
            .unwrap();
        counts[argmax] += 1;
    }
    let expected = n as f64 / d as f64;
    let chi2 = counts
        .iter()
        .map(|&c| (c as f64 - expected).powi(2) / expected)
        .sum();
    (means, chi2)
}

fn fig3(_: Scale) -> Figure {
    let mut fig = Figure::new(
        "Figure 3",
        "naive angle sampling in R³ is non-uniform (1000 points)",
        "coordinate",
        "mean coordinate value",
    );
    let mut rng = StdRng::seed_from_u64(seeds::SAMPLER);
    let pts: Vec<Vec<f64>> = (0..1000)
        .map(|_| sample_angles_naive(&mut rng, 3))
        .collect();
    let (means, chi2) = cloud_stats(&pts);
    let mut s = Series::new("naive (uniform angles)");
    for (j, m) in means.iter().enumerate() {
        s.push(j as f64 + 1.0, *m);
    }
    fig.series.push(s);
    fig.note(format!(
        "argmax-cell χ² = {chi2:.1} (df = 2; uniform stays below ~14): density piles \
         up near the x₃ pole, exactly the bias the paper's scatter plot shows"
    ));
    fig
}

fn fig4(_: Scale) -> Figure {
    let mut fig = Figure::new(
        "Figure 4",
        "Algorithm 9 samples uniformly on the orthant sphere (1000 points)",
        "coordinate",
        "mean coordinate value",
    );
    let mut rng = StdRng::seed_from_u64(seeds::SAMPLER);
    let pts: Vec<Vec<f64>> = (0..1000)
        .map(|_| sample_orthant_direction(&mut rng, 3))
        .collect();
    let (means, chi2) = cloud_stats(&pts);
    let mut s = Series::new("Algorithm 9");
    for (j, m) in means.iter().enumerate() {
        s.push(j as f64 + 1.0, *m);
    }
    fig.series.push(s);
    fig.note(format!(
        "argmax-cell χ² = {chi2:.1} (df = 2): consistent with uniformity"
    ));
    fig
}

fn fig6(_: Scale) -> Figure {
    let mut fig = Figure::new(
        "Figure 6",
        "cap sampling: 200 points each around (π/3,π/3) via the Riemann table and \
         (π/6,π/4) via the closed-form inverse CDF (θ = π/20)",
        "statistic (1 = max polar angle, 2 = KS deviation)",
        "value",
    );
    let theta = PI / 20.0;
    for (label, angles, forced_table) in [
        ("table @ (π/3, π/3)", [PI / 3.0, PI / 3.0], true),
        ("closed-form @ (π/6, π/4)", [PI / 6.0, PI / 4.0], false),
    ] {
        let ray = srank_geom::polar::to_cartesian(1.0, &angles);
        let sampler = if forced_table {
            CapSampler::with_forced_table(&ray, theta, 4096)
        } else {
            CapSampler::new(&ray, theta)
        };
        let mut rng = StdRng::seed_from_u64(seeds::SAMPLER);
        let mut max_angle = 0.0f64;
        let mut ks = 0.0f64;
        let n = 200;
        let mut polar: Vec<f64> = (0..n)
            .map(|_| {
                let w = sampler.sample(&mut rng);
                let a = srank_geom::vector::angle_between(&w, &ray).unwrap();
                max_angle = max_angle.max(a);
                a
            })
            .collect();
        polar.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let denom = sin_power_integral(theta, 1);
        for (i, &x) in polar.iter().enumerate() {
            let emp = (i + 1) as f64 / n as f64;
            let ana = sin_power_integral(x.min(theta), 1) / denom;
            ks = ks.max((emp - ana).abs());
        }
        let mut s = Series::new(label);
        s.push(1.0, max_angle);
        s.push(2.0, ks);
        fig.series.push(s);
    }
    fig.note(format!(
        "row 1 = max polar angle (must be ≤ θ = {theta:.4}); row 2 = KS deviation vs \
         Eq. 14 (200 points ⇒ 99% critical ≈ 0.115)"
    ));
    fig
}

// ---------------------------------------------------------------------------
// §6.2 stability-investigation figures
// ---------------------------------------------------------------------------

fn stability_distribution_2d(data: &Dataset, interval: AngleInterval) -> Vec<Region2DInfo> {
    let e = Enumerator2D::new(data, interval).expect("2-D dataset");
    let mut regions: Vec<Region2DInfo> = e.regions().to_vec();
    regions.sort_by(|a, b| b.stability.partial_cmp(&a.stability).unwrap());
    regions
}

fn fig7(_: Scale) -> Figure {
    let mut fig = Figure::new(
        "Figure 7",
        "CSMetrics: distribution of rankings by stability (U* = U)",
        "rank (by stability)",
        "stability",
    );
    let data = csmetrics_dataset();
    let regions = stability_distribution_2d(&data, AngleInterval::full());
    let mut s = Series::new("stability");
    for (i, r) in regions.iter().enumerate() {
        s.push((i + 1) as f64, r.stability);
    }
    fig.series.push(s);

    let reference = data.rank(&[0.3, 0.7]).unwrap();
    let v = stability_verify_2d(&data, &reference, AngleInterval::full())
        .unwrap()
        .unwrap();
    let position = regions
        .iter()
        .position(|r| (r.stability - v.stability).abs() < 1e-15);
    fig.note(format!("{} feasible rankings (paper: 336)", regions.len()));
    fig.note(format!(
        "reference ranking (α = 0.3): stability {:.5} — the {}-th most stable \
         (paper: 0.0032, 108th)",
        v.stability,
        position.map(|p| p + 1).unwrap_or(0)
    ));
    fig.note(format!(
        "most stable ranking: {:.5} (paper: ~0.02)",
        regions[0].stability
    ));
    fig
}

fn fig8(_: Scale) -> Figure {
    let mut fig = Figure::new(
        "Figure 8",
        "CSMetrics: stability around reference ⟨0.3, 0.7⟩ with 0.998 cosine similarity",
        "rank (by stability)",
        "stability",
    );
    let data = csmetrics_dataset();
    let interval = AngleInterval::around(&[0.3, 0.7], 0.998f64.acos()).unwrap();
    let regions = stability_distribution_2d(&data, interval);
    let mut s = Series::new("stability");
    for (i, r) in regions.iter().enumerate() {
        s.push((i + 1) as f64, r.stability);
    }
    fig.series.push(s);
    let reference = data.rank(&[0.3, 0.7]).unwrap();
    let v = stability_verify_2d(&data, &reference, interval)
        .unwrap()
        .unwrap();
    let pos = regions
        .iter()
        .position(|r| (r.stability - v.stability).abs() < 1e-15);
    fig.note(format!(
        "{} feasible rankings in the region (paper: 22)",
        regions.len()
    ));
    fig.note(format!(
        "reference ranking: stability {:.5}, position {} (paper: well below the max)",
        v.stability,
        pos.map(|p| p + 1).unwrap_or(0)
    ));
    fig
}

fn fig9(scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "Figure 9",
        "FIFA: top-100 stable rankings around ⟨1, .5, .3, .2⟩ with 0.999 cosine \
         similarity (GET-NEXTmd, 10K samples)",
        "rank (by stability)",
        "stability",
    );
    let data = fifa_dataset();
    let roi = RegionOfInterest::cone_cosine(&[1.0, 0.5, 0.3, 0.2], 0.999);
    let n_samples = match scale {
        Scale::Quick => 3_000,
        _ => 10_000,
    };
    let mut rng = StdRng::seed_from_u64(9);
    let mut md = MdEnumerator::new(&data, &roi, n_samples, &mut rng).unwrap();
    let top = md.top_h(100);
    let mut s = Series::new("stability");
    for (i, r) in top.iter().enumerate() {
        s.push((i + 1) as f64, r.stability);
    }
    fig.series.push(s);
    let reference = data.rank(&[1.0, 0.5, 0.3, 0.2]).unwrap();
    let in_top = top.iter().any(|r| r.ranking == reference);
    fig.note(format!(
        "reference ranking in top-100 stable: {in_top} (paper: not in top-100)"
    ));
    fig.note(format!(
        "{} exchange hyperplanes cross the cone",
        md.num_hyperplanes()
    ));
    fig
}

// ---------------------------------------------------------------------------
// §6.3 performance figures
// ---------------------------------------------------------------------------

fn fig10(scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "Figure 10",
        "2D stability verification (SV2D): time and stability vs n (Blue Nile, d = 2)",
        "n",
        "seconds / stability",
    );
    let ns: &[usize] = match scale {
        Scale::Quick => &[100, 1_000, 10_000],
        _ => &[100, 1_000, 10_000, 100_000],
    };
    let mut t_series = Series::new("time (s)");
    let mut s_series = Series::new("stability of default ranking");
    for &n in ns {
        let data = bluenile_dataset(n, 2);
        let ranking = data.rank(&[1.0, 1.0]).unwrap();
        let (v, secs) = time(|| {
            stability_verify_2d(&data, &ranking, AngleInterval::full())
                .unwrap()
                .unwrap()
        });
        t_series.push(n as f64, secs);
        s_series.push(n as f64, v.stability);
    }
    fig.series.push(t_series);
    fig.series.push(s_series);
    fig.note("paper: linear time, 0.12 s at n = 100K; stability 10⁻² → 10⁻⁶".to_string());
    fig
}

fn fig11(scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "Figure 11",
        "2D GET-NEXT: first call (ray sweep) vs subsequent calls vs n (Blue Nile, d = 2)",
        "n",
        "seconds",
    );
    let ns: &[usize] = match scale {
        Scale::Quick => &[100, 1_000],
        Scale::Default => &[100, 1_000, 10_000],
        Scale::Full => &[100, 1_000, 10_000, 100_000],
    };
    let mut first = Series::new("first call (s)");
    let mut subsequent = Series::new("subsequent call (s)");
    for &n in ns {
        let data = bluenile_dataset(n, 2);
        let (mut e, t_first) = time(|| {
            let mut e = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
            let _ = e.get_next();
            e
        });
        let (_, t_rest) = time(|| {
            for _ in 0..10 {
                if e.get_next().is_none() {
                    break;
                }
            }
        });
        first.push(n as f64, t_first);
        subsequent.push(n as f64, t_rest / 10.0);
    }
    fig.series.push(first);
    fig.series.push(subsequent);
    fig.note(
        "paper: first call < 10 s at n = 100K; subsequent calls orders of magnitude \
         cheaper — the same first/subsequent gap holds here (Blue Nile's 2-D \
         projection is nearly dominance-free, so the sweep handles ~n²/2 exchanges)"
            .to_string(),
    );
    fig
}

fn fig12(scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "Figure 12",
        "MD stability verification: time and stability vs n (d = 3, 1M samples)",
        "n",
        "seconds / stability",
    );
    let (ns, n_samples): (&[usize], usize) = match scale {
        Scale::Quick => (&[100, 1_000], 100_000),
        _ => (&[100, 1_000, 10_000], 1_000_000),
    };
    let roi = RegionOfInterest::full(3);
    let mut rng = StdRng::seed_from_u64(12);
    let samples = roi.sampler().sample_buffer(&mut rng, n_samples);
    let mut t_series = Series::new("time (s)");
    let mut s_series = Series::new("stability of default ranking");
    for &n in ns {
        let data = bluenile_dataset(n, 3);
        let ranking = data.rank(&[1.0, 1.0, 1.0]).unwrap();
        let (v, secs) = time(|| {
            stability_verify_md(&data, &ranking, &roi, &samples)
                .unwrap()
                .unwrap()
        });
        t_series.push(n as f64, secs);
        s_series.push(n as f64, v.stability);
    }
    fig.series.push(t_series);
    fig.series.push(s_series);
    fig.note(format!(
        "{n_samples} samples; paper: < 1 min at n = 10K, stability ≈ 0 beyond 100 items"
    ));
    fig
}

fn getnextmd_call_times(
    data: &Dataset,
    roi: &RegionOfInterest,
    n_samples: usize,
    calls: usize,
    seed: u64,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut md = MdEnumerator::new(data, roi, n_samples, &mut rng).unwrap();
    (0..calls)
        .map_while(|_| {
            let (r, secs) = time(|| md.get_next());
            r.map(|_| secs)
        })
        .collect()
}

fn fig13(scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "Figure 13",
        "GET-NEXTmd: per-call time for the top-10 stable rankings vs n \
         (d = 3, θ = π/100)",
        "call #",
        "seconds",
    );
    let (ns, n_samples): (&[usize], usize) = match scale {
        Scale::Quick => (&[10, 100], 20_000),
        Scale::Default => (&[10, 100, 1_000], 50_000),
        Scale::Full => (&[10, 100, 1_000, 10_000], 100_000),
    };
    for &n in ns {
        let data = bluenile_dataset(n, 3);
        let roi = RegionOfInterest::cone(&[1.0, 1.0, 1.0], PI / 100.0);
        let times = getnextmd_call_times(&data, &roi, n_samples, 10, 13);
        let mut s = Series::new(format!("n={n}"));
        for (i, t) in times.iter().enumerate() {
            s.push((i + 1) as f64, *t);
        }
        fig.series.push(s);
    }
    fig.note(format!(
        "{n_samples} samples; paper: up to thousands of seconds at n = 10K — the \
         O(n²) hyperplane set dominates at large n in both implementations"
    ));
    fig
}

fn fig14(scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "Figure 14",
        "GET-NEXTmd: per-call time for the top-10 stable rankings vs d \
         (n = 100, θ = π/100)",
        "call #",
        "seconds",
    );
    let n_samples = if scale == Scale::Quick {
        20_000
    } else {
        100_000
    };
    for d in [3usize, 4, 5] {
        let data = bluenile_dataset(100, d);
        let roi = RegionOfInterest::cone(&vec![1.0; d], PI / 100.0);
        let times = getnextmd_call_times(&data, &roi, n_samples, 10, 14);
        let mut s = Series::new(format!("d={d}"));
        for (i, t) in times.iter().enumerate() {
            s.push((i + 1) as f64, *t);
        }
        fig.series.push(s);
    }
    fig.note(
        "paper: running times similar across d — the sample partition makes per-region \
         work dimension-independent"
            .to_string(),
    );
    fig
}

fn fig15(scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "Figure 15",
        "GET-NEXTmd: per-call time for the top-10 stable rankings vs θ \
         (n = 100, d = 3)",
        "call #",
        "seconds",
    );
    let n_samples = if scale == Scale::Quick {
        20_000
    } else {
        100_000
    };
    for (label, theta) in [
        ("θ=π/10", PI / 10.0),
        ("θ=π/50", PI / 50.0),
        ("θ=π/100", PI / 100.0),
    ] {
        let data = bluenile_dataset(100, 3);
        let roi = RegionOfInterest::cone(&[1.0, 1.0, 1.0], theta);
        let times = getnextmd_call_times(&data, &roi, n_samples, 10, 15);
        let mut s = Series::new(label);
        for (i, t) in times.iter().enumerate() {
            s.push((i + 1) as f64, *t);
        }
        fig.series.push(s);
    }
    fig.note("paper: similar times across θ, for the same reason as Figure 14".to_string());
    fig
}

// ---------------------------------------------------------------------------
// Randomized-operator figures
// ---------------------------------------------------------------------------

struct RandomizedRun {
    first_time: f64,
    subsequent_time: f64,
    top_stability: f64,
    top_error: f64,
    stabilities: Vec<f64>,
}

fn run_randomized(
    data: &Dataset,
    roi: &RegionOfInterest,
    scope: RankingScope,
    first_budget: usize,
    next_budget: usize,
    calls: usize,
    seed: u64,
) -> RandomizedRun {
    let mut op = RandomizedEnumerator::new(data, roi, scope, 0.05).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let (first, first_time) = time(|| op.get_next_budget(&mut rng, first_budget).unwrap());
    let mut stabilities = vec![first.stability];
    let (_, rest_time) = time(|| {
        for _ in 1..calls {
            match op.get_next_budget(&mut rng, next_budget) {
                Some(d) => stabilities.push(d.stability),
                None => break,
            }
        }
    });
    RandomizedRun {
        first_time,
        subsequent_time: rest_time / (calls.max(2) - 1) as f64,
        top_stability: first.stability,
        top_error: first.confidence_error,
        stabilities,
    }
}

fn fig16(scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "Figure 16",
        "GET-NEXTr (ranked top-10): first-call time and top stability vs n \
         (d = 3, θ = π/50, budget 5000/1000)",
        "n",
        "seconds / stability",
    );
    let ns: &[usize] = match scale {
        Scale::Quick => &[1_000, 10_000],
        _ => &[1_000, 10_000, 100_000],
    };
    let roi = RegionOfInterest::cone(&[1.0, 1.0, 1.0], PI / 50.0);
    let mut t = Series::new("first call (s)");
    let mut s = Series::new("stability of top ranking");
    let mut notes = Vec::new();
    for &n in ns {
        let data = bluenile_dataset(n, 3);
        let run = run_randomized(
            &data,
            &roi,
            RankingScope::TopKRanked(10),
            5_000,
            1_000,
            10,
            16,
        );
        t.push(n as f64, run.first_time);
        s.push(n as f64, run.top_stability);
        notes.push(format!("n={n}: e = {:.5}", run.top_error));
    }
    fig.series.push(t);
    fig.series.push(s);
    for n in notes {
        fig.note(n);
    }
    fig.note("paper: minutes at 100K; top-k stability barely decreases with n".to_string());
    fig
}

fn fig17(scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "Figure 17",
        "GET-NEXTr: stability of the top-10 stable partial rankings — set vs ranked \
         per n (d = 3, θ = π/50, k = 10)",
        "top-h",
        "stability",
    );
    let ns: &[usize] = match scale {
        Scale::Quick => &[1_000, 10_000],
        _ => &[1_000, 10_000, 100_000],
    };
    let roi = RegionOfInterest::cone(&[1.0, 1.0, 1.0], PI / 50.0);
    for &n in ns {
        let data = bluenile_dataset(n, 3);
        for (label, scope) in [
            (format!("n={n}; set"), RankingScope::TopKSet(10)),
            (format!("n={n}; ranked"), RankingScope::TopKRanked(10)),
        ] {
            let run = run_randomized(&data, &roi, scope, 5_000, 1_000, 10, 17);
            let mut s = Series::new(label);
            for (i, st) in run.stabilities.iter().enumerate() {
                s.push((i + 1) as f64, *st);
            }
            fig.series.push(s);
        }
    }
    fig.note(
        "paper: sets are more stable than ranked prefixes; distributions barely move \
         with n"
            .to_string(),
    );
    fig
}

fn fig18(scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "Figure 18",
        "DoT: GET-NEXTr first/subsequent call time vs n (top-10 sets, d = 3, θ = π/50)",
        "n",
        "seconds",
    );
    let ns: &[usize] = match scale {
        Scale::Quick => &[10_000, 100_000],
        _ => &[10_000, 100_000, 1_000_000],
    };
    let roi = RegionOfInterest::cone(&[1.0, 1.0, 1.0], PI / 50.0);
    let mut first = Series::new("first call (s)");
    let mut rest = Series::new("subsequent call (s)");
    for &n in ns {
        let data = dot_dataset(n);
        let run = run_randomized(&data, &roi, RankingScope::TopKSet(10), 5_000, 1_000, 5, 18);
        first.push(n as f64, run.first_time);
        rest.push(n as f64, run.subsequent_time);
    }
    fig.series.push(first);
    fig.series.push(rest);
    fig.note(
        "paper: linear in n, ~1 h at 1M rows (Python); the 5:1 budget ratio separates \
         the two curves"
            .to_string(),
    );
    fig
}

fn fig19(scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "Figure 19",
        "GET-NEXTr (ranked top-10): time and top stability vs d (n = 10K, θ = π/50)",
        "d",
        "seconds / stability",
    );
    let n = if scale == Scale::Quick { 2_000 } else { 10_000 };
    let mut t = Series::new("first call (s)");
    let mut s = Series::new("stability of top ranking");
    let mut notes = Vec::new();
    for d in [3usize, 4, 5] {
        let data = bluenile_dataset(n, d);
        let roi = RegionOfInterest::cone(&vec![1.0; d], PI / 50.0);
        let run = run_randomized(
            &data,
            &roi,
            RankingScope::TopKRanked(10),
            5_000,
            1_000,
            10,
            19,
        );
        t.push(d as f64, run.first_time);
        s.push(d as f64, run.top_stability);
        notes.push(format!("d={d}: e = {:.5}", run.top_error));
    }
    fig.series.push(t);
    fig.series.push(s);
    for n in notes {
        fig.note(n);
    }
    fig.note("paper: similar times across d; stability falls as d grows".to_string());
    fig
}

fn fig20(scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "Figure 20",
        "GET-NEXTr: stability of top-10 stable partial rankings — set vs ranked per d \
         (n = 10K, θ = π/50, k = 10)",
        "top-h",
        "stability",
    );
    let n = if scale == Scale::Quick { 2_000 } else { 10_000 };
    for d in [3usize, 4, 5] {
        let data = bluenile_dataset(n, d);
        let roi = RegionOfInterest::cone(&vec![1.0; d], PI / 50.0);
        for (label, scope) in [
            (format!("d={d}; set"), RankingScope::TopKSet(10)),
            (format!("d={d}; ranked"), RankingScope::TopKRanked(10)),
        ] {
            let run = run_randomized(&data, &roi, scope, 5_000, 1_000, 10, 20);
            let mut s = Series::new(label);
            for (i, st) in run.stabilities.iter().enumerate() {
                s.push((i + 1) as f64, *st);
            }
            fig.series.push(s);
        }
    }
    fig.note("paper: sets beat ranked; more attributes ⇒ lower stability".to_string());
    fig
}

fn fig21(scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "Figure 21",
        "synthetic data: stability of the top-10 stable top-k sets by correlation \
         (n = 10K, d = 3, θ = π/50, 5000 samples, k = 10)",
        "top-h",
        "stability",
    );
    let n = if scale == Scale::Quick { 2_000 } else { 10_000 };
    let roi = RegionOfInterest::cone(&[1.0, 1.0, 1.0], PI / 50.0);
    for kind in [
        CorrelationKind::AntiCorrelated,
        CorrelationKind::Independent,
        CorrelationKind::Correlated,
    ] {
        let data = synthetic_dataset(kind, n, 3);
        let run = run_randomized(&data, &roi, RankingScope::TopKSet(10), 5_000, 1_000, 10, 21);
        let mut s = Series::new(kind.label());
        for (i, st) in run.stabilities.iter().enumerate() {
            s.push((i + 1) as f64, *st);
        }
        fig.series.push(s);
    }
    fig.note(
        "paper: correlated = highest peak and steepest slope; anti-correlated = \
         flattest"
            .to_string(),
    );
    fig
}
