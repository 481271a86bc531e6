//! The three workloads as fixed request streams.
//!
//! Every connection replays a list generated from `(workload seed,
//! connection index)`; a run ends when its streams are done, so every run
//! of one seed does identical work. The connections share one hot set,
//! each owns its sessions, cold keys never repeat, and class shares are
//! fixed per block, so cache hit counts and latency quantile positions do
//! not depend on timing.

use serde_json::Value;
use std::collections::HashSet;

/// Closed-loop connections, one load-generator thread each.
pub const CONNECTIONS: usize = 2;

/// Monte-Carlo sample count of the hot and cold `verify` keys: every MC
/// verify of a dataset shares one warm sample batch.
const VERIFY_SAMPLES: usize = 100_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Sweep2d,
    Md,
    Randomized,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Sweep2d => "sweep2d",
            Kind::Md => "md",
            Kind::Randomized => "randomized",
        }
    }
}

/// Request classes the end-to-end latencies are reported by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    Load,
    VerifyHot,
    VerifyCold,
    Overview,
    Open,
    GetNext,
    Close,
}

impl Class {
    pub const ALL: [Class; 7] = [
        Class::Load,
        Class::VerifyHot,
        Class::VerifyCold,
        Class::Overview,
        Class::Open,
        Class::GetNext,
        Class::Close,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Load => "registry_load",
            Class::VerifyHot => "verify_hot",
            Class::VerifyCold => "verify_cold",
            Class::Overview => "overview",
            Class::Open => "session_open",
            Class::GetNext => "get_next",
            Class::Close => "session_close",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Roi {
    pub around: Vec<f64>,
    pub theta: f64,
}

/// One request of a stream. Session requests name a per-connection slot;
/// the slot is bound to the server's session id when its `open` answers.
#[derive(Clone, Debug)]
pub enum Spec {
    Load {
        dataset: &'static str,
        family: &'static str,
        n: usize,
        seed: u64,
    },
    Verify {
        dataset: &'static str,
        weights: Vec<f64>,
        /// `Some((samples, seed))` on the Monte-Carlo path.
        mc: Option<(usize, u64)>,
        hot: bool,
    },
    Overview {
        dataset: &'static str,
        samples: usize,
        seed: u64,
    },
    Open {
        slot: usize,
        dataset: &'static str,
        kind: Kind,
        roi: Option<Roi>,
        samples: usize,
        seed: u64,
    },
    GetNext {
        slot: usize,
        kind: Kind,
        first: bool,
    },
    Close {
        slot: usize,
    },
}

/// Top-k scope and sampling budget of the randomized sessions.
pub const RANDOMIZED_K: usize = 10;
pub const RANDOMIZED_BUDGET: usize = 1_000;

impl Spec {
    pub fn class(&self) -> Class {
        match self {
            Spec::Load { .. } => Class::Load,
            Spec::Verify { hot: true, .. } => Class::VerifyHot,
            Spec::Verify { hot: false, .. } => Class::VerifyCold,
            Spec::Overview { .. } => Class::Overview,
            Spec::Open { .. } => Class::Open,
            Spec::GetNext { .. } => Class::GetNext,
            Spec::Close { .. } => Class::Close,
        }
    }

    pub fn op(&self) -> &'static str {
        match self {
            Spec::Load { .. } => "registry.load",
            Spec::Verify { .. } => "verify",
            Spec::Overview { .. } => "overview",
            Spec::Open { .. } => "session.open",
            Spec::GetNext { .. } => "session.get_next",
            Spec::Close { .. } => "session.close",
        }
    }

    /// The wire request; `sessions[slot]` is the server id bound to a slot.
    pub fn request(&self, sessions: &[u64]) -> Value {
        let mut f: Vec<(String, Value)> = vec![("op".into(), Value::String(self.op().into()))];
        let mut put = |k: &str, v: Value| f.push((k.to_string(), v));
        let num = |x: f64| Value::Number(x);
        let nums = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::Number(x)).collect());
        match self {
            Spec::Load {
                dataset,
                family,
                n,
                seed,
            } => {
                put("dataset", Value::String(dataset.to_string()));
                put("builtin", Value::String(family.to_string()));
                put("n", num(*n as f64));
                put("seed", num(*seed as f64));
            }
            Spec::Verify {
                dataset,
                weights,
                mc,
                ..
            } => {
                put("dataset", Value::String(dataset.to_string()));
                put("weights", nums(weights));
                if let Some((samples, seed)) = mc {
                    put("samples", num(*samples as f64));
                    put("seed", num(*seed as f64));
                }
            }
            Spec::Overview {
                dataset,
                samples,
                seed,
            } => {
                put("dataset", Value::String(dataset.to_string()));
                put("samples", num(*samples as f64));
                put("seed", num(*seed as f64));
            }
            Spec::Open {
                dataset,
                kind,
                roi,
                samples,
                seed,
                ..
            } => {
                put("dataset", Value::String(dataset.to_string()));
                put("kind", Value::String(kind.name().into()));
                if let Some(roi) = roi {
                    put(
                        "roi",
                        Value::Object(vec![
                            ("around".into(), nums(&roi.around)),
                            ("theta".into(), num(roi.theta)),
                        ]),
                    );
                }
                match kind {
                    Kind::Sweep2d => {}
                    Kind::Md => {
                        put("samples", num(*samples as f64));
                        put("seed", num(*seed as f64));
                    }
                    Kind::Randomized => {
                        put("scope", Value::String("top-k-ranked".into()));
                        put("k", num(RANDOMIZED_K as f64));
                        put("budget", num(RANDOMIZED_BUDGET as f64));
                        put("seed", num(*seed as f64));
                    }
                }
            }
            Spec::GetNext { slot, .. } | Spec::Close { slot } => {
                put("session", num(sessions[*slot] as f64));
            }
        }
        Value::Object(f)
    }
}

/// A workload: datasets loaded once, then per connection a warm-up prefix
/// answered during set-up and the measured stream.
pub struct Workload {
    pub name: &'static str,
    /// Requests per connection in one segment of the measured phase (the
    /// streams of all connections have one length).
    pub segment: usize,
    /// Whether each segment starts on fresh connections.
    pub reconnect: bool,
    pub loads: Vec<Spec>,
    pub warmup: Vec<Vec<Spec>>,
    pub streams: Vec<Vec<Spec>>,
}

impl Workload {
    /// Session slots a connection uses (the largest slot index + 1).
    pub fn slots(&self, conn: usize) -> usize {
        self.warmup[conn]
            .iter()
            .chain(&self.streams[conn])
            .filter_map(|s| match s {
                Spec::Open { slot, .. } => Some(slot + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    pub fn measured_requests(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }
}

pub const WORKLOADS: [&str; 3] = ["consumer_hot", "producer_sessions", "shared_mixed"];

/// Builds a workload's streams from its seed. The amount of work is fixed
/// by `seconds` (a nominal per-connection rate), never by a clock.
pub fn build(name: &str, seed: u64, seconds: u64) -> Option<Workload> {
    let mut keys = Keys::default();
    let wl = match name {
        "consumer_hot" => consumer_hot(seed, seconds, &mut keys),
        "producer_sessions" => producer_sessions(seed, seconds),
        "shared_mixed" => shared_mixed(seed, seconds, &mut keys),
        _ => return None,
    };
    Some(wl)
}

/// Generator seed of every dataset. The datasets are part of a workload's
/// definition and stay fixed; the workload seed varies the requests.
const DATASET_SEED: u64 = 7;

/// The datasets every workload loads, sized as the request classes need:
/// 2-D exact on csmetrics, Monte-Carlo on fifa (d = 4) and bluenile (d = 5).
fn base_loads() -> Vec<Spec> {
    let seed = DATASET_SEED;
    vec![
        Spec::Load {
            dataset: "cs",
            family: "csmetrics",
            n: 1000,
            seed,
        },
        Spec::Load {
            dataset: "fifa",
            family: "fifa",
            n: 1000,
            seed,
        },
        Spec::Load {
            dataset: "bn",
            family: "bluenile",
            n: 5000,
            seed,
        },
    ]
}

/// The 64 hot `verify` keys (well inside the 512-entry result cache): 32
/// exact 2-D, 16 + 16 Monte-Carlo. Every connection cycles through all of
/// them, so each key is touched at least every ~75 requests of either
/// connection, with at most a few dozen cold inserts in between: no stall
/// of one connection can let the other's cold inserts evict a hot key.
fn hot_set(seed: u64, workload: &str, keys: &mut Keys, mc_seed: u64) -> Vec<Spec> {
    let mut g = Gen::new(seed, workload, CONNECTIONS);
    let mut hot = Vec::new();
    for (dataset, dim, count) in [("cs", 2, 32), ("fifa", 4, 16), ("bn", 5, 16)] {
        for _ in 0..count {
            hot.push(Spec::Verify {
                dataset,
                weights: keys.fresh(&mut g, dataset, dim),
                mc: (dim > 2).then_some((VERIFY_SAMPLES, mc_seed)),
                hot: true,
            });
        }
    }
    hot
}

/// The share of the hot set connection `conn` answers first, during set-up.
fn warm_share(hot: &[Spec], conn: usize) -> Vec<Spec> {
    hot.iter()
        .skip(conn)
        .step_by(CONNECTIONS)
        .cloned()
        .collect()
}

/// consumer_hot: 17 of every 20 requests are cached `verify`s over the hot
/// set, 3 are exact 2-D `verify`s with fresh weights. Kernels sit idle;
/// the per-request path (transport, JSON, dispatch, cache probe) is the
/// work. The 15% cold share keeps the pooled p90 inside the cold class.
fn consumer_hot(seed: u64, seconds: u64, keys: &mut Keys) -> Workload {
    const BLOCKS_PER_SECOND: u64 = 700;
    let mc_seed = seed % 1000 + 1;
    let hot = hot_set(seed, "consumer_hot", keys, mc_seed);
    let mut warmup = Vec::new();
    let mut streams = Vec::new();
    for conn in 0..CONNECTIONS {
        let mut g = Gen::new(seed, "consumer_hot", conn);
        let order = permutation(&mut g, hot.len());
        let mut next_hot = 0;
        let mut stream = Vec::new();
        for _ in 0..seconds * BLOCKS_PER_SECOND {
            let mut block = vec![true; 17];
            block.extend([false; 3]);
            shuffle(&mut g, &mut block);
            for is_hot in block {
                if is_hot {
                    stream.push(hot[order[next_hot % hot.len()]].clone());
                    next_hot += 1;
                } else {
                    stream.push(Spec::Verify {
                        dataset: "cs",
                        weights: keys.fresh(&mut g, "cs", 2),
                        mc: None,
                        hot: false,
                    });
                }
            }
        }
        warmup.push(warm_share(&hot, conn));
        streams.push(stream);
    }
    Workload {
        name: "consumer_hot",
        segment: 25 * 20,
        reconnect: true,
        loads: base_loads(),
        warmup,
        streams,
    }
}

/// One producer script: open a sweep2d, an md and a randomized session,
/// take 4 / 8 / 5 rankings from them in a fixed interleaving, close all
/// three. Of the 23 requests the pooled p50 falls among md advances and
/// the pooled p90 among randomized advances.
fn script(g: &mut Gen, seed: u64) -> Vec<Spec> {
    let theta = 0.25 + 0.15 * g.unit();
    let angle = 0.35 + 0.9 * g.unit();
    let mut s = vec![
        Spec::Open {
            slot: 0,
            dataset: "cs",
            kind: Kind::Sweep2d,
            roi: Some(Roi {
                around: vec![round6(angle.cos()), round6(angle.sin())],
                theta: round6(theta),
            }),
            samples: 0,
            seed,
        },
        Spec::GetNext {
            slot: 0,
            kind: Kind::Sweep2d,
            first: true,
        },
        Spec::Open {
            slot: 1,
            dataset: "fifa",
            kind: Kind::Md,
            roi: None,
            samples: 2000,
            seed,
        },
        Spec::GetNext {
            slot: 1,
            kind: Kind::Md,
            first: true,
        },
        Spec::Open {
            slot: 2,
            dataset: "bn",
            kind: Kind::Randomized,
            roi: None,
            samples: 0,
            seed,
        },
        Spec::GetNext {
            slot: 2,
            kind: Kind::Randomized,
            first: true,
        },
    ];
    for slot in [1, 0, 1, 2, 1, 0, 1, 2, 1, 0, 1, 2, 1, 2] {
        let kind = [Kind::Sweep2d, Kind::Md, Kind::Randomized][slot];
        s.push(Spec::GetNext {
            slot,
            kind,
            first: false,
        });
    }
    s.extend((0..3).map(|slot| Spec::Close { slot }));
    s
}

/// producer_sessions: each connection loops over scripts. The enumeration
/// and sampling kernels do nearly all the work; at most six sessions are
/// open at a time.
fn producer_sessions(seed: u64, seconds: u64) -> Workload {
    const SCRIPTS_PER_SECOND: u64 = 3;
    let mut warmup = Vec::new();
    let mut streams = Vec::new();
    for conn in 0..CONNECTIONS {
        let mut g = Gen::new(seed, "producer_sessions", conn);
        // Session seeds are distinct across connections and scripts, so
        // every md open draws its own sample batch.
        let base = 1_000_000 * (conn as u64 + 1);
        warmup.push(script(&mut g, base));
        let stream = (0..seconds * SCRIPTS_PER_SECOND)
            .flat_map(|i| script(&mut g, base + 1 + i))
            .collect();
        streams.push(stream);
    }
    Workload {
        name: "producer_sessions",
        // One script per segment: both connections open their sessions
        // together in every script, so the peak resident set always holds
        // both connections' session states. No reconnects: a reconnect
        // moves a connection to another server worker thread, whose malloc
        // arena then keeps its own share of the multi-megabyte states.
        segment: 23,
        reconnect: false,
        loads: base_loads(),
        warmup,
        streams,
    }
}

/// Idle sessions each connection leaves open in shared_mixed's set-up
/// (200 in all: under the 256-session cap, inside the 300 s idle TTL).
const IDLE_SESSIONS_PER_CONNECTION: usize = 100;
/// Active sweep2d sessions per connection in shared_mixed.
const ACTIVE_SESSIONS: usize = 4;

/// shared_mixed: ~200 idle sessions sit in the table while each connection
/// mixes, per block of 200, 171 hot `verify`s, 10 Monte-Carlo `verify`s on
/// a warm batch with fresh weights, 18 `get_next`s on its own sweep2d
/// sessions, and one 3-D `overview` with a fresh sample seed. A request's
/// cost here depends on system size (the per-request idle-session sweep),
/// and a heavy `overview` runs beside light reads.
fn shared_mixed(seed: u64, seconds: u64, keys: &mut Keys) -> Workload {
    const BLOCKS_PER_SECOND: u64 = 9;
    let mc_seed = seed % 1000 + 1;
    let mut loads = base_loads();
    loads.push(Spec::Load {
        dataset: "dot",
        family: "dot",
        n: 200,
        seed: DATASET_SEED,
    });
    loads.push(Spec::Load {
        dataset: "idle",
        family: "csmetrics",
        n: 100,
        seed: DATASET_SEED,
    });
    let hot = hot_set(seed, "shared_mixed", keys, mc_seed);
    let mut warmup = Vec::new();
    let mut streams = Vec::new();
    for conn in 0..CONNECTIONS {
        let mut g = Gen::new(seed, "shared_mixed", conn);
        let mut prefix = warm_share(&hot, conn);
        for slot in 0..ACTIVE_SESSIONS {
            let angle = 0.35 + 0.9 * g.unit();
            prefix.push(Spec::Open {
                slot,
                dataset: "cs",
                kind: Kind::Sweep2d,
                roi: Some(Roi {
                    around: vec![round6(angle.cos()), round6(angle.sin())],
                    theta: round6(0.3 + 0.1 * g.unit()),
                }),
                samples: 0,
                seed: 0,
            });
        }
        for i in 0..IDLE_SESSIONS_PER_CONNECTION {
            prefix.push(Spec::Open {
                slot: ACTIVE_SESSIONS + i,
                dataset: "idle",
                kind: Kind::Sweep2d,
                roi: None,
                samples: 0,
                seed: 0,
            });
        }
        let order = permutation(&mut g, hot.len());
        let (mut next_hot, mut next_session) = (0, 0);
        let mut stream = Vec::new();
        for block_index in 0..seconds * BLOCKS_PER_SECOND {
            let mut block = vec![0u8; 171];
            block.extend([1u8; 10]);
            block.extend([2u8; 18]);
            block.push(3);
            shuffle(&mut g, &mut block);
            for class in block {
                stream.push(match class {
                    0 => {
                        next_hot += 1;
                        hot[order[(next_hot - 1) % hot.len()]].clone()
                    }
                    1 => Spec::Verify {
                        dataset: "fifa",
                        weights: keys.fresh(&mut g, "fifa", 4),
                        mc: Some((VERIFY_SAMPLES, mc_seed)),
                        hot: false,
                    },
                    2 => {
                        next_session += 1;
                        Spec::GetNext {
                            slot: (next_session - 1) % ACTIVE_SESSIONS,
                            kind: Kind::Sweep2d,
                            first: false,
                        }
                    }
                    _ => Spec::Overview {
                        dataset: "dot",
                        samples: 200,
                        seed: 1_000_000 * (conn as u64 + 1) + block_index,
                    },
                });
            }
        }
        warmup.push(prefix);
        streams.push(stream);
    }
    Workload {
        name: "shared_mixed",
        segment: 18 * 200,
        reconnect: true,
        loads,
        warmup,
        streams,
    }
}

/// Weight vectors handed out so far; a fresh key never repeats one.
#[derive(Default)]
struct Keys(HashSet<(String, Vec<u64>)>);

impl Keys {
    fn fresh(&mut self, g: &mut Gen, dataset: &str, dim: usize) -> Vec<f64> {
        loop {
            let w: Vec<f64> = (0..dim).map(|_| round6(0.05 + 0.95 * g.unit())).collect();
            let bits = w.iter().map(|x| x.to_bits()).collect();
            if self.0.insert((dataset.to_string(), bits)) {
                return w;
            }
        }
    }
}

fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

fn permutation(g: &mut Gen, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    shuffle(g, &mut p);
    p
}

fn shuffle<T>(g: &mut Gen, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = (g.next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// SplitMix64: the generator is part of the benchmark, so its streams do
/// not change when a dependency's generator does.
struct Gen(u64);

impl Gen {
    fn new(seed: u64, workload: &str, conn: usize) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in workload.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        Gen(seed ^ h ^ ((conn as u64 + 1) << 48))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}
