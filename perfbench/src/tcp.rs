//! The system under test: `srank serve` in its own process, driven over
//! TCP through `srank_service::Client`, one closed-loop thread per
//! connection.

use crate::check::{self, Checker, Counters, Seen};
use crate::stats::quantile;
use crate::workload::{Class, Spec, Workload, CONNECTIONS};
use serde_json::Value;
use srank_service::Client;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A running `srank serve --listen 127.0.0.1:0` with default settings.
pub struct Server {
    child: Child,
    addr: String,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    pub fn spawn(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().ok_or("no server stderr")?;
        let (tx, rx) = std::sync::mpsc::channel();
        // The reader keeps draining stderr after the address line so the
        // server never blocks on a full pipe.
        let reader = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr);
                    }
                }
            }
        });
        let mut server = Server {
            child,
            addr: String::new(),
            stderr: Some(reader),
        };
        server.addr = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "srank serve did not report its address".to_string())?;
        Ok(server)
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr.as_str()).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// One `stats` read on a fresh control connection.
    pub fn stats(&self) -> Result<Value, String> {
        let mut control = self.connect()?;
        let stats = control
            .call_ok(&Value::Object(vec![(
                "op".into(),
                Value::String("stats".into()),
            )]))
            .map_err(|e| format!("stats: {e}"))?;
        Ok(stats)
    }

    /// CPU time the server process has used, user plus system, in seconds.
    /// Time the host stole from the virtual CPUs is not charged to it.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .map_err(|e| format!("read server stat: {e}"))?;
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15, in USER_HZ (100)
        // ticks.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map_or("", |(_, rest)| rest)
            .split_whitespace()
            .collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(utime), Some(stime)) => Ok((utime + stime) / 100.0),
            _ => Err("no CPU times in server stat".into()),
        }
    }

    /// The server's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

/// A server after set-up: datasets loaded, every connection's warm-up
/// prefix answered, its sessions bound.
pub struct Ready {
    pub server: Server,
    conns: Vec<Conn>,
    pub setup_s: f64,
    /// Counters after set-up (a fresh server starts from zero).
    pub counters: Counters,
    pub digest: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

struct Conn {
    client: Client,
    sessions: Vec<u64>,
    checker: Checker,
}

/// Spawns `srank serve` and sets it up. The clock runs from the spawn until
/// the last warm-up response; prefixes run one connection after another so
/// that shared sample batches are drawn exactly once.
pub fn set_up(bin: &Path, wl: &Workload) -> Result<Ready, String> {
    let start = Instant::now();
    let server = Server::spawn(bin)?;
    let mut control = server.connect()?;
    let mut loads = Checker::new(0);
    for spec in &wl.loads {
        let response = control
            .call(&spec.request(&[]))
            .map_err(|e| format!("load: {e}"))?;
        loads.check(spec, false, &response);
    }
    drop(control);
    let mut conns = Vec::new();
    for conn in 0..CONNECTIONS {
        let mut c = Conn {
            client: server.connect()?,
            sessions: vec![0; wl.slots(conn)],
            checker: Checker::new(wl.slots(conn)),
        };
        for spec in &wl.warmup[conn] {
            let response = c
                .client
                .call(&spec.request(&c.sessions))
                .map_err(|e| format!("warm-up: {e}"))?;
            if let (Some(id), Spec::Open { slot, .. }) =
                (c.checker.check(spec, false, &response), spec)
            {
                c.sessions[*slot] = id;
            }
        }
        conns.push(c);
    }
    let setup_s = start.elapsed().as_secs_f64();
    let mut counters = check::counters(&server.stats()?);
    counters.remove("ops.stats");
    let mut digests = vec![loads.digest];
    let mut failed = loads.failures();
    let mut messages = loads.messages.clone();
    for c in &mut conns {
        digests.push(c.checker.digest);
        failed += c.checker.failures();
        messages.append(&mut c.checker.messages);
    }
    Ok(Ready {
        server,
        conns,
        setup_s,
        counters,
        digest: check::combine(&digests),
        failed,
        messages,
    })
}

/// One connection's measured requests.
pub struct ConnRun {
    pub class: Vec<Class>,
    pub latency_ns: Vec<u64>,
    /// Traced passes only: one bench-side span per `Client::call`, as
    /// (start, end) nanoseconds since the phase began.
    pub spans: Vec<(u64, u64)>,
    traced: bool,
    /// Latency of the last `session.open`.
    last_open_ns: u64,
    /// `session.open` plus the first `get_next` after it.
    pub first_ranking_ns: Vec<u64>,
    pub seen: Seen,
    pub digest: u64,
    /// Failed responses per class.
    pub failed: BTreeMap<Class, u64>,
    pub messages: Vec<String>,
}

/// A measured phase over every connection.
pub struct Phase {
    pub conns: Vec<ConnRun>,
    /// (requests, wall seconds) of each segment.
    pub segments: Vec<(usize, f64)>,
    /// Server CPU time (user plus system) over the phase.
    pub server_cpu_s: f64,
    pub counters: Counters,
    /// Server-counter deltas that disagree with what the client saw.
    pub disagreements: Vec<String>,
}

impl Phase {
    pub fn wall_s(&self) -> f64 {
        self.segments.iter().map(|s| s.1).sum()
    }

    /// Median over segments of requests completed ÷ segment wall time: a
    /// stall of the host hits the few segments it falls in, not the run.
    pub fn throughput_rps(&self) -> f64 {
        let mut rates: Vec<f64> = self.segments.iter().map(|(n, s)| *n as f64 / s).collect();
        quantile(&mut rates, 0.5)
    }

    pub fn requests(&self) -> usize {
        self.conns.iter().map(|c| c.latency_ns.len()).sum()
    }

    pub fn failed(&self) -> u64 {
        self.conns.iter().flat_map(|c| c.failed.values()).sum()
    }

    pub fn digest(&self) -> u64 {
        check::combine(&self.conns.iter().map(|c| c.digest).collect::<Vec<_>>())
    }

    /// Latencies (µs) of one class, or of every request with `None`.
    pub fn latencies_us(&self, class: Option<Class>) -> Vec<f64> {
        self.conns
            .iter()
            .flat_map(|c| c.class.iter().zip(&c.latency_ns))
            .filter(|(k, _)| class.is_none_or(|want| **k == want))
            .map(|(_, ns)| *ns as f64 / 1e3)
            .collect()
    }

    pub fn first_ranking_us(&self) -> Vec<f64> {
        self.conns
            .iter()
            .flat_map(|c| &c.first_ranking_ns)
            .map(|ns| *ns as f64 / 1e3)
            .collect()
    }
}

/// Replays every connection's measured stream, closed loop. The phase runs
/// in segments (`Workload::segment` requests per connection); each starts
/// on fresh connections and fresh load threads, all released together, so
/// one run averages over several placements of client and server threads
/// on the cores instead of keeping whichever its first connection got.
/// Each response is checked after its latency is taken.
pub fn measure(ready: &mut Ready, wl: &Workload, traced: bool) -> Result<Phase, String> {
    let before = check::counters(&ready.server.stats()?);
    let cpu_before = ready.server.cpu_s()?;
    let mut runs: Vec<ConnRun> = ready
        .conns
        .iter()
        .zip(&wl.streams)
        .map(|(conn, stream)| ConnRun::new(stream.len(), traced, conn.checker.failed.clone()))
        .collect();
    let epoch = Instant::now();
    let mut segments = Vec::new();
    let n = wl.streams[0].len();
    for lo in (0..n).step_by(wl.segment) {
        let hi = lo.saturating_add(wl.segment).min(n);
        for conn in ready.conns.iter_mut().filter(|_| wl.reconnect) {
            conn.client
                .reconnect()
                .map_err(|e| format!("reconnect: {e}"))?;
        }
        let barrier = Barrier::new(CONNECTIONS + 1);
        let (results, seconds) = std::thread::scope(|scope| {
            let handles: Vec<_> = ready
                .conns
                .iter_mut()
                .zip(&wl.streams)
                .zip(runs.iter_mut())
                .map(|((conn, stream), run)| {
                    let part = &stream[lo..hi];
                    let barrier = &barrier;
                    scope.spawn(move || drive(conn, part, run, barrier, epoch))
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            let results: Vec<Result<(), String>> = handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("load thread panicked".into()))
                })
                .collect();
            (results, start.elapsed().as_secs_f64())
        });
        results.into_iter().collect::<Result<Vec<()>, _>>()?;
        segments.push(((hi - lo) * CONNECTIONS, seconds));
    }
    for (run, conn) in runs.iter_mut().zip(&mut ready.conns) {
        run.digest = conn.checker.digest;
        // `run.failed` held the counts from before the phase.
        run.failed = conn
            .checker
            .failed
            .iter()
            .map(|(class, n)| (*class, n - run.failed.get(class).copied().unwrap_or(0)))
            .collect();
        run.messages = std::mem::take(&mut conn.checker.messages);
    }
    let server_cpu_s = ready.server.cpu_s()? - cpu_before;
    let after = check::counters(&ready.server.stats()?);
    let counters = check::delta(&after, &before);
    let mut seen = Seen::default();
    for run in &runs {
        seen.merge(&run.seen);
    }
    let disagreements = seen.disagreements(&counters, 1);
    Ok(Phase {
        conns: runs,
        segments,
        server_cpu_s,
        counters,
        disagreements,
    })
}

impl ConnRun {
    /// `failed` starts as the connection's failure counts before the phase.
    fn new(n: usize, traced: bool, failed: BTreeMap<Class, u64>) -> Self {
        ConnRun {
            class: Vec::with_capacity(n),
            latency_ns: Vec::with_capacity(n),
            spans: Vec::with_capacity(if traced { n } else { 0 }),
            traced,
            last_open_ns: 0,
            first_ranking_ns: Vec::new(),
            seen: Seen::default(),
            digest: 0,
            failed,
            messages: Vec::new(),
        }
    }
}

fn drive(
    conn: &mut Conn,
    part: &[Spec],
    run: &mut ConnRun,
    barrier: &Barrier,
    epoch: Instant,
) -> Result<(), String> {
    barrier.wait();
    for spec in part {
        let request = spec.request(&conn.sessions);
        let t0 = Instant::now();
        let response = conn.client.call(&request);
        let t1 = Instant::now();
        let response = response.map_err(|e| format!("{} failed in transport: {e}", spec.op()))?;
        let ns = (t1 - t0).as_nanos() as u64;
        run.class.push(spec.class());
        run.latency_ns.push(ns);
        if run.traced {
            let start = (t0 - epoch).as_nanos() as u64;
            run.spans.push((start, start + ns));
        }
        match spec {
            Spec::Open { .. } => run.last_open_ns = ns,
            Spec::GetNext { first: true, .. } => run.first_ranking_ns.push(run.last_open_ns + ns),
            _ => {}
        }
        run.seen.note(spec, &response);
        if let (Some(id), Spec::Open { slot, .. }) =
            (conn.checker.check(spec, true, &response), spec)
        {
            conn.sessions[*slot] = id;
        }
    }
    Ok(())
}
