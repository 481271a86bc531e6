//! Fixed probes of the traced run: the obs layer's cost on a cached
//! `verify`, the idle-session sweep at several table sizes, and the host
//! diagnostics printed beside every run.

use crate::replay::server_defaults;
use crate::stats::quantile;
use serde_json::Value;
use srank_service::{Engine, EngineConfig};
use std::hint::black_box;
use std::time::Instant;

fn handle_ok(engine: &Engine, line: &str) -> Result<Value, String> {
    let request = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let response = engine.handle(&request);
    match response.get("ok").and_then(Value::as_bool) {
        Some(true) => Ok(response),
        _ => Err(format!("probe request failed: {line}")),
    }
}

const LOAD_CS: &str =
    r#"{"op": "registry.load", "dataset": "cs", "builtin": "csmetrics", "n": 1000, "seed": 7}"#;
const HOT_VERIFY: &str = r#"{"op": "verify", "dataset": "cs", "weights": [0.4, 0.6]}"#;

/// `Engine::handle` p50 (µs) of one cached `verify` with the server's
/// defaults and with windowed telemetry and client accounting off,
/// measured in alternating blocks.
pub fn obs_handle_p50_us() -> Result<(f64, f64), String> {
    let on = Engine::new(server_defaults());
    let off = Engine::new(EngineConfig {
        window_telemetry: false,
        client_table_capacity: 0,
        ..server_defaults()
    });
    for engine in [&on, &off] {
        handle_ok(engine, LOAD_CS)?;
        handle_ok(engine, HOT_VERIFY)?;
    }
    let request: Value = serde_json::from_str(HOT_VERIFY).map_err(|e| e.to_string())?;
    let (mut t_on, mut t_off) = (Vec::new(), Vec::new());
    for round in 0..20 {
        let mut order = [(&on, &mut t_on), (&off, &mut t_off)];
        if round % 2 == 1 {
            order.reverse();
        }
        for (engine, times) in order {
            for _ in 0..1000 {
                let t0 = Instant::now();
                black_box(engine.handle(&request));
                times.push(t0.elapsed().as_nanos() as f64 / 1e3);
            }
        }
    }
    Ok((quantile(&mut t_on, 0.5), quantile(&mut t_off, 0.5)))
}

/// `Engine::evict_idle_sessions` p50 (µs) with each given number of idle
/// sessions open.
pub fn sweep_p50_us(counts: &[usize]) -> Result<Vec<(usize, f64)>, String> {
    let engine = Engine::new(server_defaults());
    handle_ok(
        &engine,
        r#"{"op": "registry.load", "dataset": "idle", "builtin": "csmetrics", "n": 100, "seed": 7}"#,
    )?;
    let mut open = 0;
    let mut out = Vec::new();
    for &target in counts {
        while open < target {
            handle_ok(
                &engine,
                r#"{"op": "session.open", "dataset": "idle", "kind": "sweep2d"}"#,
            )?;
            open += 1;
        }
        let mut times: Vec<f64> = (0..5000)
            .map(|_| {
                let t0 = Instant::now();
                black_box(engine.evict_idle_sessions(None));
                t0.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        out.push((target, quantile(&mut times, 0.5)));
    }
    Ok(out)
}

/// Host state around a run: the steal counter of `/proc/stat` and the
/// time of a fixed CPU reference loop.
pub struct Host {
    steal: u64,
    total: u64,
    pub reference_ms: f64,
}

impl Host {
    pub fn now() -> Host {
        let (steal, total) = proc_stat().unwrap_or((0, 0));
        Host {
            steal,
            total,
            reference_ms: reference_loop_ms(),
        }
    }

    /// Steal share (%) of all CPU time between two readings.
    pub fn steal_pct_since(&self, earlier: &Host) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// (steal, total) jiffies of the aggregate `cpu` line.
fn proc_stat() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user and nice.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// A fixed integer loop (xorshift), timed in milliseconds.
fn reference_loop_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x2545_f491_4f6c_dd1du64);
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}
