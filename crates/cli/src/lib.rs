//! `srank` — the ranking-stability command line.
//!
//! Subcommands (all take a CSV with a header row; scoring columns are named
//! with `--higher`/`--lower`, comma separated):
//!
//! * `inspect` — table statistics: ranges, correlations, dominance density;
//! * `verify` — stability of the ranking induced by `--weights` (exact for
//!   d = 2 and d = 3, Monte-Carlo otherwise);
//! * `enumerate` — stable rankings, most stable first (`--top`,
//!   `--min-stability`);
//! * `topk` — most stable top-k sets or ranked prefixes via the randomized
//!   operator (`-k`, `--ranked`, `--budget`, `--calls`);
//! * `overview` — coverage curve and entropy of the stability distribution.
//!
//! A cone region of interest is selected with `--around w1,w2,…` plus
//! `--theta RAD` or `--cosine C`. Randomized commands accept `--seed`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use srank_core::prelude::*;
use srank_data::{read_csv_file, table_stats, ColumnSpec, RawTable};
use std::fmt::Write as _;
// The prelude exports srank-core's one-argument `Result` alias; this CLI
// reports `String` errors, so shadow it back to std's form explicitly.
use std::result::Result;

pub mod service_cmd;

pub const USAGE: &str = "\
usage: srank <command> <data.csv> --higher a,b [--lower c,d] [options]
       srank serve [--stdio | --listen HOST:PORT] [--workers N] [--preload FAMILY[:NAME]]…
                   [--data-dir PATH] [--checkpoint-secs N] [--metrics-port P]
                   [--trace-sample N] [--slow-ms N]
       srank query <HOST:PORT> <REQUEST_JSON | -> [--pretty] [--batch] [--stream]
       srank trace <HOST:PORT> [--op OP] [--min-ms N] [--session ID] [--limit N]
       srank top <HOST:PORT> [--sort KEY] [--limit N] [--watch] [--interval SECS]
       srank snapshot <HOST:PORT>    persist a running server's warm state
       srank restore <HOST:PORT>     re-load a server's state from its data dir

commands:
  inspect                      table statistics
  verify    --weights w1,w2,…  stability of the induced ranking
  enumerate [--top H] [--min-stability S] [--samples N] [--seed S]
  topk      -k K [--ranked] [--budget N] [--calls C] [--seed S]
  overview  [--samples N] [--seed S]
  serve                        run the srank-service query engine
  query                        send JSON requests to a running server
  trace                        fetch recent request span trees from a server
  top                          live per-client resource accounting from a server
  snapshot | restore           trigger persistence ops on a running server

region of interest (verify/enumerate/topk/overview):
  --around w1,w2,…  --theta RAD | --cosine C

defaults: --samples 20000, --budget 5000, --calls 5, --seed 42, -k 10";

/// A parsed invocation.
#[derive(Clone, Debug)]
pub struct Invocation {
    pub command: Command,
    pub csv_path: String,
    pub higher: Vec<String>,
    pub lower: Vec<String>,
    pub around: Option<Vec<f64>>,
    pub theta: Option<f64>,
    pub cosine: Option<f64>,
    pub seed: u64,
    pub samples: usize,
}

#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    Inspect,
    Verify {
        weights: Vec<f64>,
    },
    Enumerate {
        top: Option<usize>,
        min_stability: Option<f64>,
    },
    TopK {
        k: usize,
        ranked: bool,
        budget: usize,
        calls: usize,
    },
    Overview,
}

/// Parses and runs a full command line, returning the rendered output.
pub fn run(args: &[String]) -> Result<String, String> {
    // The service subcommands have their own argument shape (no CSV
    // positional); route them before the data-command parser.
    match args.first().map(String::as_str) {
        Some("serve") => return service_cmd::run_serve(&args[1..]),
        Some("query") => return service_cmd::run_query(&args[1..]),
        Some("trace") => return service_cmd::run_trace(&args[1..]),
        Some("top") => return service_cmd::run_top(&args[1..]),
        Some(op @ ("snapshot" | "restore")) => return service_cmd::run_persist_op(op, &args[1..]),
        _ => {}
    }
    let inv = parse(args)?;
    execute(&inv)
}

/// Parses the argument vector.
pub fn parse(args: &[String]) -> Result<Invocation, String> {
    let mut it = args.iter();
    let cmd_name = it.next().ok_or("missing command")?;
    let csv_path = it.next().ok_or("missing CSV path")?.clone();

    let mut higher = Vec::new();
    let mut lower = Vec::new();
    let mut around = None;
    let mut theta = None;
    let mut cosine = None;
    let mut weights = None;
    let mut top = None;
    let mut min_stability = None;
    let mut k = 10usize;
    let mut ranked = false;
    let mut budget = 5000usize;
    let mut calls = 5usize;
    let mut seed = 42u64;
    let mut samples = 20_000usize;

    let next_value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--higher" => higher = split_names(&next_value(&mut it, "--higher")?),
            "--lower" => lower = split_names(&next_value(&mut it, "--lower")?),
            "--around" => around = Some(parse_floats(&next_value(&mut it, "--around")?)?),
            "--theta" => theta = Some(parse_float(&next_value(&mut it, "--theta")?)?),
            "--cosine" => cosine = Some(parse_float(&next_value(&mut it, "--cosine")?)?),
            "--weights" => weights = Some(parse_floats(&next_value(&mut it, "--weights")?)?),
            "--top" => top = Some(parse_usize(&next_value(&mut it, "--top")?)?),
            "--min-stability" => {
                min_stability = Some(parse_float(&next_value(&mut it, "--min-stability")?)?)
            }
            "-k" => k = parse_usize(&next_value(&mut it, "-k")?)?,
            "--ranked" => ranked = true,
            "--budget" => budget = parse_usize(&next_value(&mut it, "--budget")?)?,
            "--calls" => calls = parse_usize(&next_value(&mut it, "--calls")?)?,
            "--seed" => seed = parse_usize(&next_value(&mut it, "--seed")?)? as u64,
            "--samples" => samples = parse_usize(&next_value(&mut it, "--samples")?)?,
            other => return Err(format!("unknown option: {other}")),
        }
    }
    if higher.is_empty() && lower.is_empty() {
        return Err("need at least one scoring column (--higher / --lower)".into());
    }

    let command = match cmd_name.as_str() {
        "inspect" => Command::Inspect,
        "verify" => Command::Verify {
            weights: weights.ok_or("verify needs --weights")?,
        },
        "enumerate" => Command::Enumerate { top, min_stability },
        "topk" => Command::TopK {
            k,
            ranked,
            budget,
            calls,
        },
        "overview" => Command::Overview,
        other => return Err(format!("unknown command: {other}")),
    };
    Ok(Invocation {
        command,
        csv_path,
        higher,
        lower,
        around,
        theta,
        cosine,
        seed,
        samples,
    })
}

fn split_names(s: &str) -> Vec<String> {
    s.split(',')
        .map(|p| p.trim().to_string())
        .filter(|p| !p.is_empty())
        .collect()
}

fn parse_float(s: &str) -> Result<f64, String> {
    s.trim()
        .parse()
        .map_err(|_| format!("'{s}' is not a number"))
}

fn parse_floats(s: &str) -> Result<Vec<f64>, String> {
    s.split(',').map(parse_float).collect()
}

fn parse_usize(s: &str) -> Result<usize, String> {
    s.trim()
        .parse()
        .map_err(|_| format!("'{s}' is not an integer"))
}

/// Loads the table and dispatches the command.
pub fn execute(inv: &Invocation) -> Result<String, String> {
    let spec: Vec<ColumnSpec> = inv
        .higher
        .iter()
        .map(|n| ColumnSpec::higher(n))
        .chain(inv.lower.iter().map(|n| ColumnSpec::lower(n)))
        .collect();
    let table =
        read_csv_file(std::path::Path::new(&inv.csv_path), &spec).map_err(|e| e.to_string())?;
    execute_on(inv, &table)
}

/// Dispatches on an already-loaded table (the testable entry point).
pub fn execute_on(inv: &Invocation, table: &RawTable) -> Result<String, String> {
    let data = Dataset::from_rows(&table.normalized()).map_err(|e| e.to_string())?;
    match &inv.command {
        Command::Inspect => Ok(render_inspect(table)),
        Command::Verify { weights } => cmd_verify(inv, &data, weights),
        Command::Enumerate { top, min_stability } => {
            cmd_enumerate(inv, &data, *top, *min_stability)
        }
        Command::TopK {
            k,
            ranked,
            budget,
            calls,
        } => cmd_topk(inv, &data, *k, *ranked, *budget, *calls),
        Command::Overview => cmd_overview(inv, &data),
    }
}

fn roi_for(inv: &Invocation, d: usize) -> Result<RegionOfInterest, String> {
    match (&inv.around, inv.theta, inv.cosine) {
        (None, None, None) => Ok(RegionOfInterest::full(d)),
        (Some(ray), Some(t), None) => {
            if ray.len() != d {
                return Err(format!("--around has {} weights, data has {d}", ray.len()));
            }
            Ok(RegionOfInterest::cone(ray, t))
        }
        (Some(ray), None, Some(c)) => {
            if ray.len() != d {
                return Err(format!("--around has {} weights, data has {d}", ray.len()));
            }
            Ok(RegionOfInterest::cone_cosine(ray, c))
        }
        (Some(_), None, None) => Err("--around needs --theta or --cosine".into()),
        (None, _, _) => Err("--theta/--cosine need --around".into()),
        (Some(_), Some(_), Some(_)) => Err("use either --theta or --cosine, not both".into()),
    }
}

fn interval_for(inv: &Invocation) -> Result<AngleInterval, String> {
    match (&inv.around, inv.theta, inv.cosine) {
        (None, None, None) => Ok(AngleInterval::full()),
        (Some(ray), Some(t), None) => AngleInterval::around(ray, t).map_err(|e| e.to_string()),
        (Some(ray), None, Some(c)) => {
            AngleInterval::around(ray, c.acos()).map_err(|e| e.to_string())
        }
        _ => Err("invalid region-of-interest options".into()),
    }
}

fn render_inspect(table: &RawTable) -> String {
    let stats = table_stats(table);
    let mut out = String::new();
    writeln!(
        out,
        "{}: {} rows × {} scoring columns",
        table.name,
        stats.n_rows,
        table.n_cols()
    )
    .unwrap();
    writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>12} {:>12}",
        "column", "min", "max", "mean", "std"
    )
    .unwrap();
    for c in &stats.columns {
        writeln!(
            out,
            "{:<14} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            c.name, c.min, c.max, c.mean, c.std_dev
        )
        .unwrap();
    }
    writeln!(out, "correlations:").unwrap();
    for (j, row) in stats.correlations.iter().enumerate() {
        let cells: Vec<String> = row
            .iter()
            .map(|c| c.map_or_else(|| "   n/a".into(), |v| format!("{v:>6.3}")))
            .collect();
        writeln!(out, "  {:<12} {}", stats.columns[j].name, cells.join(" ")).unwrap();
    }
    writeln!(
        out,
        "dominance fraction (normalized): {:.4} — higher means fewer feasible rankings",
        stats.dominance_fraction
    )
    .unwrap();
    out
}

fn cmd_verify(inv: &Invocation, data: &Dataset, weights: &[f64]) -> Result<String, String> {
    if weights.len() != data.dim() {
        return Err(format!(
            "--weights has {} entries, data has {}",
            weights.len(),
            data.dim()
        ));
    }
    let ranking = data.rank(weights).map_err(|e| e.to_string())?;
    let mut out = String::new();
    writeln!(out, "ranking induced by weights {weights:?}:").unwrap();
    let shown = ranking.order().iter().take(10).collect::<Vec<_>>();
    writeln!(
        out,
        "  top items (row indices): {shown:?}{}",
        if data.len() > 10 { " …" } else { "" }
    )
    .unwrap();

    let (stability, method) = match data.dim() {
        2 => {
            let interval = interval_for(inv)?;
            let v = stability_verify_2d(data, &ranking, interval).map_err(|e| e.to_string())?;
            match v {
                Some(v) => (v.stability, "exact (2-D interval)"),
                None => (0.0, "exact (2-D interval)"),
            }
        }
        3 if inv.around.is_none() => {
            let v = stability_verify_3d_exact(data, &ranking).map_err(|e| e.to_string())?;
            (v.map_or(0.0, |v| v.stability), "exact (Girard, d = 3)")
        }
        d => {
            let roi = roi_for(inv, d)?;
            let mut rng = StdRng::seed_from_u64(inv.seed);
            let buffer = roi.sampler().sample_buffer(&mut rng, inv.samples);
            let v =
                stability_verify_md(data, &ranking, &roi, &buffer).map_err(|e| e.to_string())?;
            (v.map_or(0.0, |v| v.stability), "Monte-Carlo")
        }
    };
    writeln!(
        out,
        "stability: {:.6} ({:.4}% of the region of interest) [{method}]",
        stability,
        100.0 * stability
    )
    .unwrap();
    if stability == 0.0 {
        writeln!(
            out,
            "note: 0 means infeasible or below measurement resolution"
        )
        .unwrap();
    }
    Ok(out)
}

fn cmd_enumerate(
    inv: &Invocation,
    data: &Dataset,
    top: Option<usize>,
    min_stability: Option<f64>,
) -> Result<String, String> {
    let limit = top.unwrap_or(10);
    let mut out = String::new();
    let mut emit = |idx: usize, stability: f64, head: &[u32]| {
        writeln!(
            out,
            "#{:<3} stability {:>9.5}%  top: {:?}",
            idx,
            100.0 * stability,
            head
        )
        .unwrap();
    };
    if data.dim() == 2 {
        let interval = interval_for(inv)?;
        let mut e = Enumerator2D::new(data, interval).map_err(|e| e.to_string())?;
        let list = match min_stability {
            Some(s) => e.with_stability_at_least(s),
            None => e.top_h(limit),
        };
        for (i, s) in list.iter().enumerate() {
            emit(
                i + 1,
                s.stability,
                &s.ranking.order()[..s.ranking.len().min(8)],
            );
        }
        writeln!(
            out,
            "({} feasible rankings in the region) [exact]",
            e.num_regions()
        )
        .unwrap();
    } else {
        let roi = roi_for(inv, data.dim())?;
        let mut rng = StdRng::seed_from_u64(inv.seed);
        let mut e =
            MdEnumerator::new(data, &roi, inv.samples, &mut rng).map_err(|e| e.to_string())?;
        let list = match min_stability {
            Some(s) => e.with_stability_at_least(s),
            None => e.top_h(limit),
        };
        for (i, s) in list.iter().enumerate() {
            emit(
                i + 1,
                s.stability,
                &s.ranking.order()[..s.ranking.len().min(8)],
            );
        }
        writeln!(out, "[Monte-Carlo over {} samples]", inv.samples).unwrap();
    }
    Ok(out)
}

fn cmd_topk(
    inv: &Invocation,
    data: &Dataset,
    k: usize,
    ranked: bool,
    budget: usize,
    calls: usize,
) -> Result<String, String> {
    let roi = roi_for(inv, data.dim())?;
    let scope = if ranked {
        RankingScope::TopKRanked(k)
    } else {
        RankingScope::TopKSet(k)
    };
    let mut op = RandomizedEnumerator::new(data, &roi, scope, 0.05).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(inv.seed);
    let mut out = String::new();
    writeln!(
        out,
        "most stable top-{k} {} (budget {budget} first call, then {}):",
        if ranked { "ranked prefixes" } else { "sets" },
        budget / 5
    )
    .unwrap();
    for i in 0..calls {
        let b = if i == 0 { budget } else { budget / 5 };
        match op.get_next_budget(&mut rng, b) {
            Some(d) => writeln!(
                out,
                "#{:<3} stability {:>8.4}% ± {:.4}%  items {:?}",
                i + 1,
                100.0 * d.stability,
                100.0 * d.confidence_error,
                d.items
            )
            .unwrap(),
            None => {
                writeln!(out, "(no further distinct results)").unwrap();
                break;
            }
        }
    }
    Ok(out)
}

fn cmd_overview(inv: &Invocation, data: &Dataset) -> Result<String, String> {
    let mut out = String::new();
    let o = if data.dim() == 2 {
        let interval = interval_for(inv)?;
        let e = Enumerator2D::new(data, interval).map_err(|e| e.to_string())?;
        StabilityOverview::from_stabilities(e.regions().iter().map(|r| r.stability).collect())
    } else {
        let roi = roi_for(inv, data.dim())?;
        let mut rng = StdRng::seed_from_u64(inv.seed);
        let samples = roi.sampler().sample_buffer(&mut rng, inv.samples);
        StabilityOverview::from_samples(data, &samples)
    }
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "{} feasible rankings; effective number (entropy): {:.1}",
        o.len(),
        o.effective_rankings()
    )
    .unwrap();
    for f in [0.25, 0.5, 0.75, 0.9, 0.99] {
        match o.rankings_to_cover(f) {
            Some(n) => writeln!(out, "  {:>4.0}% coverage: top {n} rankings", f * 100.0).unwrap(),
            None => writeln!(out, "  {:>4.0}% coverage: not reached", f * 100.0).unwrap(),
        }
    }
    Ok(out)
}
