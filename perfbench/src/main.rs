//! perfbench: the service benchmark of srank.
//!
//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 --srank BIN --out DIR --benchmark BENCHMARK.json`
//!
//! Starts `srank serve` (the binary `BIN`) with default settings in its
//! own process and drives it over TCP from two closed-loop connections.
//! Each run sets the server up seven times (the set-up time is their
//! median) and measures a fixed request stream on the last set-up. With
//! `--trace 1` the last two set-ups are measured, untraced then traced,
//! and the streams are replayed in process for per-layer spans. The last
//! line of standard output is the JSON result; see `README.md`.

mod check;
mod probes;
mod replay;
mod stats;
mod tcp;
mod workload;

use check::Counters;
use serde_json::Value;
use stats::{mean, quantile};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use workload::{Class, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    srank: PathBuf,
    out: PathBuf,
    benchmark: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or(format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} needs a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        srank: PathBuf::from(get("--srank")?),
        out: PathBuf::from(get("--out")?),
        benchmark: PathBuf::from(get("--benchmark")?),
    })
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Set-ups per run.
const SETUPS: usize = 7;

/// A reported metric: value, unit, and the sample count behind it.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    n: usize,
}

fn metric(name: &str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        n,
    }
}

/// The (name, unit) pairs `BENCHMARK.json` lists under `key` (`end_to_end`
/// or `per_layer`): the result line carries exactly these metrics.
fn listed(path: &Path, key: &str) -> Result<Vec<(String, String)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let names = doc
        .get(key)
        .and_then(Value::as_array)
        .ok_or(format!("{} has no {key} list", path.display()))?
        .iter()
        .filter_map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
            Some((field("name")?, field("unit")?))
        })
        .collect();
    Ok(names)
}

/// The listed metrics, in list order; each must have been measured, in
/// its listed unit.
fn select(mut all: Vec<Metric>, listed: &[(String, String)]) -> Result<Vec<Metric>, String> {
    listed
        .iter()
        .map(|(name, unit)| {
            let i = all
                .iter()
                .position(|m| &m.name == name)
                .ok_or(format!("metric {name} was not measured"))?;
            let m = all.swap_remove(i);
            if m.unit != unit {
                return Err(format!(
                    "metric {name} is measured in {}, listed in {unit}",
                    m.unit
                ));
            }
            match m.value.is_finite() {
                true => Ok(m),
                false => Err(format!("metric {name} has no samples")),
            }
        })
        .collect()
}

/// Every run's problems: anything here makes the result incorrect.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Verdict {
    fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, a: T, b: T) {
        if a != b {
            self.problems.push(format!("{what} differ: {a:?} vs {b:?}"));
        }
    }

    fn phase(&mut self, what: &str, phase: &tcp::Phase) {
        self.attempted += phase.requests() as u64;
        self.failed += phase.failed();
        for c in &phase.conns {
            self.problems
                .extend(c.messages.iter().map(|m| format!("{what}: {m}")));
        }
        self.problems
            .extend(phase.disagreements.iter().map(|m| format!("{what}: {m}")));
    }
}

/// The set-ups of one run; each must leave identical counters and digests.
#[derive(Default)]
struct Setups {
    seconds: Vec<f64>,
    reference: Option<(Counters, u64)>,
}

impl Setups {
    fn add(&mut self, ready: tcp::Ready, verdict: &mut Verdict) -> tcp::Ready {
        self.seconds.push(ready.setup_s);
        verdict.failed += ready.failed;
        verdict
            .problems
            .extend(ready.messages.iter().map(|m| format!("set-up: {m}")));
        match &self.reference {
            None => self.reference = Some((ready.counters.clone(), ready.digest)),
            Some((counters, digest)) => {
                verdict.expect_eq("set-up counters", counters, &ready.counters);
                verdict.expect_eq("set-up digests", *digest, ready.digest);
            }
        }
        ready
    }

    fn median_s(&self) -> f64 {
        quantile(&mut self.seconds.clone(), 0.5)
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let wl = workload::build(&args.workload, args.seed, args.seconds).ok_or(format!(
        "unknown workload {} (one of {})",
        args.workload,
        workload::WORKLOADS.join(", ")
    ))?;
    if !args.srank.is_file() {
        return Err(format!("no srank binary at {}", args.srank.display()));
    }
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    println!(
        "perfbench {} seed {}: {} measured requests on {} closed-loop connections, available_parallelism {}",
        wl.name,
        args.seed,
        wl.measured_requests(),
        workload::CONNECTIONS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let host_before = probes::Host::now();
    let mut verdict = Verdict::default();
    let mut setups = Setups::default();
    // Every run sets up SETUPS times and reports the median set-up time;
    // the last set-up (the last two when traced) is measured.
    let measured = if args.trace { 2 } else { 1 };
    for _ in measured..SETUPS {
        drop(setups.add(tcp::set_up(&args.srank, &wl)?, &mut verdict));
    }
    let mut ready = setups.add(tcp::set_up(&args.srank, &wl)?, &mut verdict);
    let plain = tcp::measure(&mut ready, &wl, false)?;
    let rss_mb = ready.server.peak_rss_mb()?;
    drop(ready);
    let traced = match args.trace {
        true => {
            let mut ready = setups.add(tcp::set_up(&args.srank, &wl)?, &mut verdict);
            Some(tcp::measure(&mut ready, &wl, true)?)
        }
        false => None,
    };
    verdict.phase("measured", &plain);
    let (setup_counters, setup_digest) = setups.reference.clone().ok_or("no set-up ran")?;
    record(&args, &setup_counters, setup_digest, &plain, &mut verdict)?;

    for class in Class::ALL {
        let attempted = plain.latencies_us(Some(class)).len();
        let failed: u64 = plain
            .conns
            .iter()
            .filter_map(|c| c.failed.get(&class))
            .sum();
        if attempted > 0 {
            println!(
                "class {} attempted {attempted} failed {failed}",
                class.name()
            );
        }
    }
    let e2e = end_to_end(&plain, setups.median_s(), rss_mb);
    for m in &e2e {
        println!("e2e {} {} {} (n={})", m.name, m.value, m.unit, m.n);
    }
    let mut reported = select(e2e, &listed(&args.benchmark, "end_to_end")?)?;

    if let Some(traced) = traced {
        verdict.phase("traced", &traced);
        verdict.expect_eq(
            "traced vs untraced digests",
            plain.digest(),
            traced.digest(),
        );
        verdict.expect_eq(
            "traced vs untraced counters",
            &plain.counters,
            &traced.counters,
        );
        let replay = replay::run(&wl)?;
        verdict.attempted += replay.requests as u64;
        verdict.failed += replay.failed;
        verdict
            .problems
            .extend(replay.messages.iter().map(|m| format!("replay: {m}")));
        verdict
            .problems
            .extend(replay.disagreements.iter().map(|m| format!("replay: {m}")));
        verdict.expect_eq(
            "replay vs TCP set-up digests",
            setup_digest,
            replay.setup_digest,
        );
        verdict.expect_eq(
            "replay vs TCP set-up counters",
            &setup_counters,
            &replay.setup_counters,
        );
        verdict.expect_eq("replay vs TCP digests", plain.digest(), replay.digest);
        verdict.expect_eq("replay vs TCP counters", &plain.counters, &replay.counters);
        let path = args.out.join(format!("spans-{}.tsv", wl.name));
        write_spans(&path, &args, &traced, &replay)?;
        println!("spans written to {}", path.display());
        let layers = per_layer(&wl, &plain, &traced, &replay)?;
        for m in &layers {
            println!("layer {} {} {} (n={})", m.name, m.value, m.unit, m.n);
        }
        reported = select(layers, &listed(&args.benchmark, "per_layer")?)?;
    }

    let host_after = probes::Host::now();
    println!(
        "host steal_pct {:.3} over the run; reference loop {:.2} ms before, {:.2} ms after",
        host_after.steal_pct_since(&host_before),
        host_before.reference_ms,
        host_after.reference_ms
    );
    for p in &verdict.problems {
        eprintln!("perfbench: INCORRECT: {p}");
    }
    let correct = verdict.failed == 0 && verdict.problems.is_empty();
    let metrics = reported
        .iter()
        .map(|m| {
            let v = Value::Object(vec![
                ("value".into(), Value::Number(m.value)),
                ("unit".into(), Value::String(m.unit.into())),
            ]);
            (m.name.clone(), v)
        })
        .collect();
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Number(verdict.attempted as f64)),
        ("failed".into(), Value::Number(verdict.failed as f64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

/// The end-to-end metrics of a measured phase: the workload-wide ones
/// first, then one latency pair per request class the workload sends.
fn end_to_end(plain: &tcp::Phase, setup_s: f64, rss_mb: f64) -> Vec<Metric> {
    let mut all = plain.latencies_us(None);
    let n = all.len();
    let mut out = vec![
        metric("setup_s", setup_s, "s", SETUPS),
        metric("peak_rss_mb", rss_mb, "MB", 1),
        metric(
            "throughput_rps",
            plain.throughput_rps(),
            "1/s",
            plain.segments.len(),
        ),
        metric(
            "server_cpu_us_per_request",
            plain.server_cpu_s * 1e6 / n as f64,
            "us",
            n,
        ),
        metric("latency_p50_us", quantile(&mut all, 0.5), "us", n),
        metric("latency_p90_us", quantile(&mut all, 0.9), "us", n),
    ];
    for (class, name, p90) in [
        (Class::VerifyHot, "verify_hot", true),
        (Class::VerifyCold, "verify_cold", true),
        (Class::GetNext, "get_next", true),
        (Class::Overview, "overview", true),
        (Class::Open, "session_open", false),
    ] {
        let mut v = plain.latencies_us(Some(class));
        if v.is_empty() {
            continue;
        }
        out.push(metric(
            &format!("{name}_p50_us"),
            quantile(&mut v, 0.5),
            "us",
            v.len(),
        ));
        if p90 {
            out.push(metric(
                &format!("{name}_p90_us"),
                quantile(&mut v, 0.9),
                "us",
                v.len(),
            ));
        }
    }
    let mut first = plain.first_ranking_us();
    if !first.is_empty() {
        out.push(metric(
            "first_ranking_p50_us",
            quantile(&mut first, 0.5),
            "us",
            first.len(),
        ));
    }
    out
}

/// Per-request layer times of the replay, from a root span's children.
#[derive(Default, Clone, Copy)]
struct Layers {
    parse: f64,
    sweep: f64,
    handle: f64,
    serialize: f64,
    kernel: f64,
    kernel_calls: usize,
}

fn per_layer(
    wl: &Workload,
    plain: &tcp::Phase,
    traced: &tcp::Phase,
    replay: &replay::Replay,
) -> Result<Vec<Metric>, String> {
    // Fold each root's children into one row per request.
    let mut rows: BTreeMap<u32, (Class, bool, Layers)> = BTreeMap::new();
    for (i, s) in replay.spans.iter().enumerate() {
        let root = if s.parent == replay::ROOT {
            i as u32
        } else {
            s.parent
        };
        let row = &mut rows
            .entry(root)
            .or_insert((s.class, s.measured, Layers::default()))
            .2;
        match s.name {
            "proto.parse" => row.parse = s.us(),
            "session.sweep" => row.sweep = s.us(),
            "engine.handle" => row.handle = s.us(),
            "proto.serialize" => row.serialize = s.us(),
            name if replay::KERNELS.contains(&name) => {
                row.kernel += s.us();
                row.kernel_calls += 1;
            }
            _ => {}
        }
    }
    let measured: Vec<(Class, Layers)> =
        rows.values().filter(|r| r.1).map(|r| (r.0, r.2)).collect();
    let col = |f: &dyn Fn(&Layers) -> f64, class: Option<Class>| -> Vec<f64> {
        measured
            .iter()
            .filter(|(c, _)| class.is_none_or(|want| *c == want))
            .map(|(_, l)| f(l))
            .collect()
    };
    let p50 = |mut v: Vec<f64>| quantile(&mut v, 0.5);
    let self_time = |l: &Layers| l.handle - l.sweep - l.kernel;
    let n = measured.len();
    let mut out = vec![
        metric("proto.parse_us", p50(col(&|l| l.parse, None)), "us", n),
        metric(
            "proto.serialize_us",
            p50(col(&|l| l.serialize, None)),
            "us",
            n,
        ),
        metric("engine.handle_us", p50(col(&|l| l.handle, None)), "us", n),
        metric("engine.self_us", p50(col(&self_time, None)), "us", n),
        metric(
            "transport.overhead_us",
            p50(plain.latencies_us(None)) - p50(col(&|l| l.parse + l.handle + l.serialize, None)),
            "us",
            n,
        ),
        metric(
            "trace.overhead_pct",
            100.0 * (traced.wall_s() - plain.wall_s()) / plain.wall_s(),
            "%",
            traced.requests(),
        ),
    ];
    let (on, off) = probes::obs_handle_p50_us()?;
    out.push(metric("obs.overhead_us", on - off, "us", 20_000));
    out.push(metric(
        "session.sweep_us",
        p50(col(&|l| l.sweep, None)),
        "us",
        n,
    ));
    for (count, us) in probes::sweep_p50_us(&[0, 64, 200])? {
        out.push(metric(
            &format!("session.sweep_us_at_{count}"),
            us,
            "us",
            5000,
        ));
    }
    let c = |k: &str| plain.counters.get(k).copied().unwrap_or(0) as f64;
    for cache in ["result", "sample"] {
        let (hits, misses) = (
            c(&format!("{cache}_cache.hits")),
            c(&format!("{cache}_cache.misses")),
        );
        let base = (hits + misses) as usize;
        out.push(metric(&format!("cache.{cache}_hits"), hits, "count", base));
        out.push(metric(
            &format!("cache.{cache}_misses"),
            misses,
            "count",
            base,
        ));
        let ratio = if base == 0 {
            0.0
        } else {
            hits / (hits + misses)
        };
        out.push(metric(
            &format!("cache.{cache}_hit_ratio"),
            ratio,
            "ratio",
            base,
        ));
    }
    let loads: Vec<&replay::Span> = replay
        .spans
        .iter()
        .filter(|s| s.name == "engine.handle" && s.class == Class::Load)
        .collect();
    out.push(metric(
        "registry.load_ms",
        loads.iter().map(|s| s.us()).sum::<f64>() / 1e3,
        "ms",
        loads.len(),
    ));
    for (spec, span) in wl.loads.iter().zip(&loads) {
        if let workload::Spec::Load { dataset, .. } = spec {
            out.push(metric(
                &format!("registry.load_ms.{dataset}"),
                span.us() / 1e3,
                "ms",
                1,
            ));
        }
    }
    let kernel_spans = |name: &str| -> Vec<f64> {
        replay
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.us())
            .collect()
    };
    let draws = kernel_spans("sample.batch_draw");
    out.push(metric(
        "sample.batch_draw_us",
        mean(&draws),
        "us",
        draws.len(),
    ));
    let kernel_rows: Vec<f64> = measured
        .iter()
        .filter(|(_, l)| l.kernel_calls > 0)
        .map(|(_, l)| l.kernel)
        .collect();
    out.push(metric(
        "core.kernel_us",
        p50(kernel_rows.clone()),
        "us",
        kernel_rows.len(),
    ));
    let handle_total: f64 = col(&|l| l.handle, None).iter().sum();
    out.push(metric(
        "core.kernel_share",
        kernel_rows.iter().sum::<f64>() / handle_total,
        "ratio",
        n,
    ));
    let requests: i64 = plain
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("ops."))
        .map(|(_, v)| v)
        .sum();
    out.push(metric("stats.requests", requests as f64, "count", 1));
    out.push(metric(
        "stats.sessions_opened",
        c("ops.session.open"),
        "count",
        1,
    ));
    out.push(metric("stats.sheds", c("guard.shed_total"), "count", 1));
    out.push(metric(
        "stats.deadline_expired",
        c("guard.deadline_expired_total"),
        "count",
        1,
    ));

    // Beyond the listed metrics: per-class engine times, every kernel
    // span, and every counter delta, each with its sample count.
    for class in Class::ALL {
        let handle = col(&|l| l.handle, Some(class));
        if handle.is_empty() {
            continue;
        }
        let k = handle.len();
        out.push(metric(
            &format!("engine.handle_us.{}", class.name()),
            p50(handle),
            "us",
            k,
        ));
        out.push(metric(
            &format!("engine.self_us.{}", class.name()),
            p50(col(&self_time, Some(class))),
            "us",
            k,
        ));
    }
    for name in replay::KERNELS
        .iter()
        .filter(|&&k| k != "sample.batch_draw")
    {
        let v: Vec<f64> = replay
            .spans
            .iter()
            .filter(|s| s.name == *name && s.measured)
            .map(|s| s.us())
            .collect();
        if !v.is_empty() {
            let k = v.len();
            out.push(metric(&format!("{name}_us"), p50(v), "us", k));
        }
    }
    let rnd = kernel_spans("core.randomized_next");
    if !rnd.is_empty() {
        out.push(metric(
            "core.randomized_samples_per_s",
            rnd.len() as f64 * workload::RANDOMIZED_BUDGET as f64 / (rnd.iter().sum::<f64>() / 1e6),
            "1/s",
            rnd.len(),
        ));
    }
    let opens: Vec<f64> = replay
        .spans
        .iter()
        .filter(|s| s.name == "engine.handle" && s.class == Class::Open)
        .map(|s| s.us())
        .collect();
    if !opens.is_empty() {
        let k = opens.len();
        out.push(metric("session.open_us", p50(opens), "us", k));
    }
    out.push(metric("obs.handle_us_on", on, "us", 20_000));
    out.push(metric("obs.handle_us_off", off, "us", 20_000));
    for (k, v) in &plain.counters {
        out.push(metric(&format!("stats.{k}"), *v as f64, "count", 1));
    }
    Ok(out)
}

/// Writes the traced run's spans: one line each, name, start, end and
/// parent, with the request they belong to. TCP spans are the bench-side
/// spans around `Client::call`; replay spans are the in-process layers.
fn write_spans(
    path: &Path,
    args: &Args,
    traced: &tcp::Phase,
    replay: &replay::Replay,
) -> Result<(), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| format!("write {}: {e}", path.display());
    writeln!(
        w,
        "# perfbench spans: workload {} seed {} seconds {}",
        args.workload, args.seed, args.seconds
    )
    .map_err(io)?;
    writeln!(
        w,
        "source\tid\tparent\tname\tstart_ns\tend_ns\tconn\treq\tclass\tmeasured"
    )
    .map_err(io)?;
    for (conn, c) in traced.conns.iter().enumerate() {
        for (req, ((start, end), class)) in c.spans.iter().zip(&c.class).enumerate() {
            writeln!(
                w,
                "tcp\t{req}\t-\tclient.call\t{start}\t{end}\t{conn}\t{req}\t{}\t1",
                class.name()
            )
            .map_err(io)?;
        }
    }
    for (id, s) in replay.spans.iter().enumerate() {
        let parent = match s.parent {
            replay::ROOT => "-".to_string(),
            p => p.to_string(),
        };
        let conn = match s.conn {
            u8::MAX => "-".to_string(),
            c => c.to_string(),
        };
        writeln!(
            w,
            "replay\t{id}\t{parent}\t{}\t{}\t{}\t{conn}\t{}\t{}\t{}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.req,
            s.class.name(),
            u8::from(s.measured)
        )
        .map_err(io)?;
    }
    w.flush().map_err(io)
}

/// Compares this run's digests and counters with the record an earlier
/// run of the same binaries, workload, seed and length left, or leaves
/// one: the counts must repeat exactly from run to run.
fn record(
    args: &Args,
    setup_counters: &Counters,
    setup_digest: u64,
    plain: &tcp::Phase,
    verdict: &mut Verdict,
) -> Result<(), String> {
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    for bin in [
        std::env::current_exe().map_err(|e| e.to_string())?,
        args.srank.clone(),
    ] {
        let bytes = std::fs::read(&bin).map_err(|e| format!("read {}: {e}", bin.display()))?;
        fingerprint = check::fnv(fingerprint, &bytes);
    }
    let mut text = format!(
        "binaries {fingerprint:016x}\nsetup.digest {setup_digest:016x}\nmeasured.digest {:016x}\n",
        plain.digest()
    );
    for (k, v) in setup_counters {
        text.push_str(&format!("setup.{k} {v}\n"));
    }
    for (k, v) in &plain.counters {
        text.push_str(&format!("measured.{k} {v}\n"));
    }
    let path = args.out.join(format!(
        "record-{}-{}-{}.txt",
        args.workload, args.seed, args.seconds
    ));
    match std::fs::read_to_string(&path) {
        Ok(old) if old.lines().next() == text.lines().next() => {
            if old != text {
                verdict.problems.push(format!(
                    "digests or stats counters differ from the earlier run recorded in {}",
                    path.display()
                ));
            }
            Ok(())
        }
        _ => std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display())),
    }
}
