//! Output correctness: per-class response invariants, a digest of result
//! payloads, and the `stats` counters that must repeat exactly.

use crate::workload::{Class, Kind, Spec};
use serde_json::Value;
use std::collections::BTreeMap;

/// Checks the responses of one connection, in stream order.
pub struct Checker {
    /// Last stability returned per session slot (sweep2d and md sessions
    /// must never return a higher one).
    last: Vec<Option<f64>>,
    /// FNV-1a over class tags and result payloads, session ids left out.
    pub digest: u64,
    pub failed: BTreeMap<Class, u64>,
    /// The first few failure messages, for the log.
    pub messages: Vec<String>,
}

impl Checker {
    pub fn new(slots: usize) -> Self {
        Self {
            last: vec![None; slots],
            digest: FNV_OFFSET,
            failed: BTreeMap::new(),
            messages: Vec::new(),
        }
    }

    /// Checks one response. `warm` says whether the request's hot key has
    /// been answered before (a hot `verify` must then be a cache hit).
    /// Returns the session id an `open` bound, if it answered one.
    pub fn check(&mut self, spec: &Spec, warm: bool, response: &Value) -> Option<u64> {
        match self.invariants(spec, warm, response) {
            Ok(session) => {
                let result = response.get("result").unwrap_or(&Value::Null);
                self.digest = fnv(self.digest, &[spec.class() as u8]);
                self.digest = hash_value(self.digest, result, true);
                session
            }
            Err(msg) => {
                *self.failed.entry(spec.class()).or_default() += 1;
                if self.messages.len() < 5 {
                    self.messages
                        .push(format!("{} {}: {msg}", spec.class().name(), spec.op()));
                }
                None
            }
        }
    }

    pub fn failures(&self) -> u64 {
        self.failed.values().sum()
    }

    fn invariants(
        &mut self,
        spec: &Spec,
        warm: bool,
        response: &Value,
    ) -> Result<Option<u64>, String> {
        if response.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!(
                "not ok: {}",
                serde_json::to_string(response).unwrap_or_default()
            ));
        }
        let result = response.get("result").ok_or("no result")?;
        let cached = response.get("cached").and_then(Value::as_bool);
        let stability = || -> Result<f64, String> {
            let s = result
                .get("stability")
                .and_then(Value::as_f64)
                .ok_or("no stability")?;
            if (0.0..=1.0).contains(&s) {
                Ok(s)
            } else {
                Err(format!("stability {s} outside [0, 1]"))
            }
        };
        let method = result.get("method").and_then(Value::as_str);
        match spec {
            Spec::Load { n, .. } => {
                if result.get("rows").and_then(Value::as_u64) != Some(*n as u64) {
                    return Err("loaded row count differs".into());
                }
            }
            Spec::Verify { mc, hot, .. } => {
                stability()?;
                let want = if mc.is_some() {
                    "monte-carlo"
                } else {
                    "exact-2d"
                };
                if method != Some(want) {
                    return Err(format!("method {method:?}, want {want}"));
                }
                if cached != Some(*hot && warm) {
                    return Err(format!(
                        "cached {cached:?} on a {} verify",
                        if warm { "warm" } else { "first" }
                    ));
                }
            }
            Spec::Overview { .. } => {
                if method != Some("monte-carlo") {
                    return Err(format!("overview method {method:?}"));
                }
                if result.get("rankings").and_then(Value::as_u64).unwrap_or(0) < 1 {
                    return Err("overview reports no ranking".into());
                }
            }
            Spec::Open { slot, kind, .. } => {
                if result.get("kind").and_then(Value::as_str) != Some(kind.name()) {
                    return Err("session kind differs".into());
                }
                self.last[*slot] = None;
                let id = result
                    .get("session")
                    .and_then(Value::as_u64)
                    .ok_or("no session id")?;
                return Ok(Some(id));
            }
            Spec::GetNext { slot, kind, .. } => {
                if result.get("done").and_then(Value::as_bool) == Some(true) {
                    return Ok(None);
                }
                let s = stability()?;
                if *kind != Kind::Randomized {
                    if let Some(last) = self.last[*slot] {
                        if s > last {
                            return Err(format!("{} stability rose {last} -> {s}", kind.name()));
                        }
                    }
                    self.last[*slot] = Some(s);
                }
            }
            Spec::Close { .. } => {
                if result.get("closed").and_then(Value::as_bool) != Some(true) {
                    return Err("session was not closed".into());
                }
            }
        }
        Ok(None)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Folds a JSON value into `h`. At the top level of a result the
/// `session` field (a server-assigned id) is skipped.
fn hash_value(mut h: u64, v: &Value, top: bool) -> u64 {
    match v {
        Value::Null => fnv(h, b"n"),
        Value::Bool(b) => fnv(h, if *b { b"t" } else { b"f" }),
        Value::Number(x) => fnv(fnv(h, b"#"), &x.to_bits().to_le_bytes()),
        Value::String(s) => fnv(fnv(h, b"s"), s.as_bytes()),
        Value::Array(items) => {
            h = fnv(h, b"[");
            for item in items {
                h = hash_value(h, item, false);
            }
            fnv(h, b"]")
        }
        Value::Object(fields) => {
            h = fnv(h, b"{");
            for (k, item) in fields {
                if top && k == "session" {
                    continue;
                }
                h = hash_value(fnv(h, k.as_bytes()), item, false);
            }
            fnv(h, b"}")
        }
    }
}

/// Combines per-connection digests in connection order.
pub fn combine(digests: &[u64]) -> u64 {
    digests
        .iter()
        .fold(FNV_OFFSET, |h, d| fnv(h, &d.to_le_bytes()))
}

/// The `stats` counters a run must repeat exactly.
pub type Counters = BTreeMap<String, i64>;

pub fn counters(stats: &Value) -> Counters {
    let mut c = Counters::new();
    let num = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(0.0) as i64;
    if let Some(ops) = stats.get("ops").and_then(Value::as_object) {
        for (op, h) in ops {
            c.insert(format!("ops.{op}"), num(h.get("count")));
        }
    }
    for cache in ["result_cache", "sample_cache"] {
        for field in ["hits", "misses"] {
            c.insert(
                format!("{cache}.{field}"),
                num(stats.get(cache).and_then(|v| v.get(field))),
            );
        }
    }
    c.insert(
        "sessions.open".into(),
        num(stats.get("session_table").and_then(|v| v.get("open"))),
    );
    for field in ["shed_total", "deadline_expired_total"] {
        c.insert(
            format!("guard.{field}"),
            num(stats.get("guard").and_then(|v| v.get(field))),
        );
    }
    c
}

/// `after - before`, keeping every key either side has.
pub fn delta(after: &Counters, before: &Counters) -> Counters {
    let mut d = Counters::new();
    for k in after.keys().chain(before.keys()) {
        let v = after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);
        d.insert(k.clone(), v);
    }
    d
}

/// What the client saw in a measured phase; the server's counter deltas
/// must agree with it exactly.
#[derive(Default, Clone)]
pub struct Seen {
    pub ops: BTreeMap<&'static str, i64>,
    pub cached: i64,
    pub cacheable: i64,
    pub opened: i64,
    pub closed: i64,
}

impl Seen {
    pub fn note(&mut self, spec: &Spec, response: &Value) {
        *self.ops.entry(spec.op()).or_default() += 1;
        match spec {
            Spec::Verify { .. } | Spec::Overview { .. } => {
                self.cacheable += 1;
                if response.get("cached").and_then(Value::as_bool) == Some(true) {
                    self.cached += 1;
                }
            }
            Spec::Open { .. } => self.opened += 1,
            Spec::Close { .. } => self.closed += 1,
            _ => {}
        }
    }

    pub fn merge(&mut self, other: &Seen) {
        for (op, n) in &other.ops {
            *self.ops.entry(op).or_default() += n;
        }
        self.cached += other.cached;
        self.cacheable += other.cacheable;
        self.opened += other.opened;
        self.closed += other.closed;
    }

    /// Mismatches between the counter deltas of a phase and what the
    /// client sent and saw in it (`stats_calls` reads of `stats` fall
    /// inside the delta).
    pub fn disagreements(&self, d: &Counters, stats_calls: i64) -> Vec<String> {
        let get = |k: &str| d.get(k).copied().unwrap_or(0);
        let mut out = Vec::new();
        let mut expect = |what: String, got: i64, want: i64| {
            if got != want {
                out.push(format!("{what}: server counted {got}, client saw {want}"));
            }
        };
        for (k, v) in d {
            if let Some(op) = k.strip_prefix("ops.") {
                let sent = self.ops.get(op).copied().unwrap_or(0)
                    + if op == "stats" { stats_calls } else { 0 };
                expect(k.clone(), *v, sent);
            }
        }
        for (op, n) in &self.ops {
            expect(format!("ops.{op}"), get(&format!("ops.{op}")), *n);
        }
        expect(
            "result_cache.hits".into(),
            get("result_cache.hits"),
            self.cached,
        );
        expect(
            "result_cache.hits+misses".into(),
            get("result_cache.hits") + get("result_cache.misses"),
            self.cacheable,
        );
        expect(
            "sessions.open".into(),
            get("sessions.open"),
            self.opened - self.closed,
        );
        expect("guard.shed_total".into(), get("guard.shed_total"), 0);
        expect(
            "guard.deadline_expired_total".into(),
            get("guard.deadline_expired_total"),
            0,
        );
        out
    }
}
