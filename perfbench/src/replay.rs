//! The traced in-process replay: the identical streams against an `Engine`
//! built with the server's defaults. Each request is a root span whose
//! children time the calls into each layer's public functions: request
//! parse, the idle-session sweep, `Engine::handle`, response serialize,
//! and a replay of the kernel calls the engine made, on the same inputs,
//! straight into srank-core and srank-sample.

use crate::check::{self, Checker, Counters, Seen};
use crate::workload::{Class, Kind, Spec, Workload, CONNECTIONS, RANDOMIZED_BUDGET, RANDOMIZED_K};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;
use srank_core::{
    ranking_region_md, stability_verify_2d, AngleInterval, Dataset, Enumerator2D, MdEnumerator,
    MdState, RandomizedEnumerator, RandomizedState, RankingScope, Sweep2DState,
};
use srank_sample::roi::RegionOfInterest;
use srank_sample::store::SampleBuffer;
use srank_service::{Engine, EngineConfig};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// Span names of the kernel replay; every other child is a request-path
/// layer.
pub const KERNELS: [&str; 11] = [
    "core.rank",
    "core.verify2d",
    "core.region_md",
    "sample.count_inside",
    "sample.batch_draw",
    "core.overview_md",
    "core.sweep2d_open",
    "core.sweep2d_next",
    "core.md_open",
    "core.md_next",
    "core.randomized_next",
];

/// One span: name, start, end and parent, plus the request it belongs to.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub conn: u8,
    pub req: u32,
    pub class: Class,
    pub measured: bool,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder of one thread.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    conn: u8,
    measured: bool,
    req: u32,
    root: u32,
}

impl Recorder {
    fn new(epoch: Instant, conn: u8, measured: bool) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            conn,
            measured,
            req: 0,
            root: ROOT,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, parent: u32, class: Class, start_ns: u64) -> u32 {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            conn: self.conn,
            req: self.req,
            class,
            measured: self.measured,
        });
        (self.spans.len() - 1) as u32
    }

    fn begin(&mut self, class: Class) {
        let now = self.now();
        self.root = self.push("request", ROOT, class, now);
    }

    fn child<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        let class = self.spans[self.root as usize].class;
        let i = self.push(name, self.root, class, start);
        self.spans[i as usize].end_ns = end;
        out
    }

    fn end(&mut self) {
        let now = self.now();
        self.spans[self.root as usize].end_ns = now;
        self.req += 1;
    }
}

/// The engine configuration `srank serve` runs with by default.
pub fn server_defaults() -> EngineConfig {
    EngineConfig {
        trace_sample: 1,
        ..EngineConfig::default()
    }
}

pub struct Replay {
    /// Spans of every thread; parents index into this vector.
    pub spans: Vec<Span>,
    pub setup_counters: Counters,
    pub counters: Counters,
    pub disagreements: Vec<String>,
    pub setup_digest: u64,
    pub digest: u64,
    pub requests: usize,
    pub failed: u64,
    pub messages: Vec<String>,
}

pub fn run(wl: &Workload) -> Result<Replay, String> {
    let engine = Engine::new(server_defaults());
    let epoch = Instant::now();
    let batches = Arc::new(Mutex::new(HashMap::new()));
    let mut rec = Recorder::new(epoch, u8::MAX, false);
    let mut loads = ConnState::new(&batches, 0);
    for spec in &wl.loads {
        exec(
            &engine,
            &mut rec,
            &mut loads,
            spec,
            false,
            &mut Seen::default(),
        )?;
    }
    let mut setup_spans = rec.spans;
    let mut conns = Vec::new();
    let mut digests = vec![loads.checker.digest];
    let mut failed = loads.checker.failures() + loads.mirror.mismatches;
    let mut messages = loads.checker.messages;
    messages.append(&mut loads.mirror.messages);
    for conn in 0..CONNECTIONS {
        let mut rec = Recorder::new(epoch, conn as u8, false);
        let mut state = ConnState::new(&batches, wl.slots(conn));
        for spec in &wl.warmup[conn] {
            exec(
                &engine,
                &mut rec,
                &mut state,
                spec,
                false,
                &mut Seen::default(),
            )?;
        }
        setup_spans.append(&mut rec.spans);
        digests.push(state.checker.digest);
        failed += state.checker.failures();
        messages.append(&mut state.checker.messages);
        conns.push(state);
    }
    let setup_digest = check::combine(&digests);
    let mut setup_counters = check::counters(&stats(&engine));
    setup_counters.remove("ops.stats");
    let before = check::counters(&stats(&engine));

    let results: Vec<ThreadResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(&wl.streams)
            .enumerate()
            .map(|(conn, (mut state, stream))| {
                let engine = &engine;
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch, conn as u8, true);
                    let mut seen = Seen::default();
                    let failed_before = state.checker.failures();
                    for spec in stream {
                        exec(engine, &mut rec, &mut state, spec, true, &mut seen)?;
                    }
                    let failed = state.checker.failures() - failed_before;
                    Ok((rec.spans, state, seen, failed))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("replay thread panicked".into()))
            })
            .collect()
    });
    let counters = check::delta(&check::counters(&stats(&engine)), &before);
    let mut spans = setup_spans;
    let mut seen = Seen::default();
    let mut measured_digests = Vec::new();
    let mut requests = 0;
    for result in results {
        let (conn_spans, mut state, conn_seen, conn_failed) = result?;
        let offset = spans.len() as u32;
        requests += conn_spans.iter().filter(|s| s.parent == ROOT).count();
        spans.extend(conn_spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += offset;
            }
            s
        }));
        seen.merge(&conn_seen);
        measured_digests.push(state.checker.digest);
        failed += conn_failed + state.mirror.mismatches;
        messages.append(&mut state.checker.messages);
        messages.append(&mut state.mirror.messages);
    }
    let disagreements = seen.disagreements(&counters, 1);
    Ok(Replay {
        spans,
        setup_counters,
        counters,
        disagreements,
        setup_digest,
        digest: check::combine(&measured_digests),
        requests,
        failed,
        messages,
    })
}

fn stats(engine: &Engine) -> Value {
    let response = engine.handle(&Value::Object(vec![(
        "op".into(),
        Value::String("stats".into()),
    )]));
    response.get("result").cloned().unwrap_or(Value::Null)
}

/// One connection's replay state: kernel mirror, checker, session ids.
struct ConnState {
    mirror: Mirror,
    checker: Checker,
    sessions: Vec<u64>,
}

impl ConnState {
    fn new(batches: &Batches, slots: usize) -> Self {
        Self {
            mirror: Mirror::new(Arc::clone(batches), slots),
            checker: Checker::new(slots),
            sessions: vec![0; slots],
        }
    }
}

/// Replays one request in process, as a root span with its children.
fn exec(
    engine: &Engine,
    rec: &mut Recorder,
    state: &mut ConnState,
    spec: &Spec,
    warm: bool,
    seen: &mut Seen,
) -> Result<(), String> {
    let ConnState {
        mirror,
        checker,
        sessions,
    } = state;
    let line = serde_json::to_string(&spec.request(sessions)).map_err(|e| e.to_string())?;
    rec.begin(spec.class());
    let request = rec
        .child("proto.parse", || serde_json::from_str(&line))
        .map_err(|e| format!("request does not parse: {e}"))?;
    rec.child("session.sweep", || {
        black_box(engine.evict_idle_sessions(None))
    });
    let response = rec.child("engine.handle", || engine.handle(&request));
    let wire = rec.child("proto.serialize", || serde_json::to_string(&response));
    black_box(wire.map_err(|e| e.to_string())?);
    let computed = response.get("cached").and_then(Value::as_bool) == Some(false);
    let kernel = match computed {
        true => mirror.replay(engine, rec, spec),
        false => Ok(None),
    };
    rec.end();
    seen.note(spec, &response);
    if let (Some(id), Spec::Open { slot, .. }) = (checker.check(spec, warm, &response), spec) {
        sessions[*slot] = id;
    }
    let served = response
        .get("result")
        .and_then(|r| r.get("stability"))
        .and_then(Value::as_f64);
    match (kernel, served) {
        (Ok(Some(replayed)), Some(served)) if (replayed - served).abs() <= 1e-12 => {}
        (Ok(Some(replayed)), served) => mirror.mismatch(format!(
            "{} kernel replay gives stability {replayed}, the engine {served:?}",
            spec.class().name()
        )),
        (Ok(None), _) => {}
        (Err(e), _) => {
            mirror.mismatch(format!("{} kernel replay failed: {e}", spec.class().name()))
        }
    }
    Ok(())
}

enum MirrorSession {
    Sweep(Sweep2DState),
    Md(MdState),
    Randomized(Box<RandomizedState>, StdRng),
}

/// The kernel calls the engine makes, replayed on the same inputs; the
/// mirror keeps its own enumerator state per session slot.
struct Mirror {
    batches: Batches,
    sessions: Vec<Option<(&'static str, MirrorSession)>>,
    mismatches: u64,
    messages: Vec<String>,
}

type KernelResult = Result<Option<f64>, String>;

/// Sample batches drawn so far, by (dataset, samples, seed), shared by the
/// replay threads as the engine's sample cache is.
type Batches = Arc<Mutex<HashMap<(String, usize, u64), Arc<SampleBuffer>>>>;

/// What one replay thread hands back: its spans, its connection state,
/// what it saw, and its failures.
type ThreadResult = Result<(Vec<Span>, ConnState, Seen, u64), String>;

impl Mirror {
    fn new(batches: Batches, slots: usize) -> Self {
        Self {
            batches,
            sessions: (0..slots).map(|_| None).collect(),
            mismatches: 0,
            messages: Vec::new(),
        }
    }

    fn mismatch(&mut self, msg: String) {
        self.mismatches += 1;
        if self.messages.len() < 5 {
            self.messages.push(msg);
        }
    }

    /// The full-orthant sample batch `(dataset, n, seed)`, drawn as the
    /// engine draws it the first time it is needed.
    fn batch(
        &self,
        rec: &mut Recorder,
        dataset: &str,
        dim: usize,
        n: usize,
        seed: u64,
    ) -> Arc<SampleBuffer> {
        let key = (dataset.to_string(), n, seed);
        let mut batches = self.batches.lock().expect("batch map lock poisoned");
        if let Some(b) = batches.get(&key) {
            return Arc::clone(b);
        }
        let buffer = rec.child("sample.batch_draw", || {
            let mut rng = StdRng::seed_from_u64(seed);
            Arc::new(
                RegionOfInterest::full(dim)
                    .sampler()
                    .sample_buffer(&mut rng, n),
            )
        });
        batches.insert(key, Arc::clone(&buffer));
        buffer
    }

    fn replay(&mut self, engine: &Engine, rec: &mut Recorder, spec: &Spec) -> KernelResult {
        let data = |name: &str| -> Result<Arc<Dataset>, String> {
            Ok(Arc::clone(
                &engine
                    .registry()
                    .get(name)
                    .map_err(|e| e.to_string())?
                    .dataset,
            ))
        };
        let err = |e: srank_core::StableRankError| e.to_string();
        match spec {
            Spec::Load { .. } => Ok(None),
            Spec::Verify {
                dataset,
                weights,
                mc,
                ..
            } => {
                let data = data(dataset)?;
                let ranking = rec.child("core.rank", || data.rank(weights)).map_err(err)?;
                let Some((n, seed)) = *mc else {
                    let v = rec
                        .child("core.verify2d", || {
                            stability_verify_2d(&data, &ranking, AngleInterval::full())
                        })
                        .map_err(err)?;
                    return Ok(Some(v.map_or(0.0, |v| v.stability)));
                };
                let batch = self.batch(rec, dataset, data.dim(), n, seed);
                let region = rec
                    .child("core.region_md", || ranking_region_md(&data, &ranking))
                    .map_err(err)?;
                let Some(region) = region else {
                    return Ok(Some(0.0));
                };
                let inside = rec.child("sample.count_inside", || {
                    srank_sample::oracle::count_inside(&region, &batch, 0, batch.len())
                });
                Ok(Some(inside as f64 / batch.len() as f64))
            }
            Spec::Overview {
                dataset,
                samples,
                seed,
            } => {
                let data = data(dataset)?;
                let batch = self.batch(rec, dataset, data.dim(), *samples, *seed);
                let region = RegionOfInterest::full(data.dim());
                rec.child(
                    "core.overview_md",
                    || -> Result<usize, srank_core::StableRankError> {
                        let mut e = MdEnumerator::with_samples(&data, &region, (*batch).clone())?;
                        Ok(std::iter::from_fn(|| e.get_next()).count())
                    },
                )
                .map_err(err)?;
                Ok(None)
            }
            Spec::Open {
                slot,
                dataset,
                kind,
                roi,
                samples,
                seed,
            } => {
                let data = data(dataset)?;
                let session = match kind {
                    Kind::Sweep2d => {
                        let interval = match roi {
                            Some(roi) => {
                                AngleInterval::around(&roi.around, roi.theta).map_err(err)?
                            }
                            None => AngleInterval::full(),
                        };
                        let state = rec
                            .child("core.sweep2d_open", || {
                                Enumerator2D::new(&data, interval).map(|e| e.into_state())
                            })
                            .map_err(err)?;
                        MirrorSession::Sweep(state)
                    }
                    Kind::Md => {
                        let batch = self.batch(rec, dataset, data.dim(), *samples, *seed);
                        let region = RegionOfInterest::full(data.dim());
                        let state = rec
                            .child("core.md_open", || {
                                MdEnumerator::with_samples(&data, &region, (*batch).clone())
                                    .map(|e| e.into_state())
                            })
                            .map_err(err)?;
                        MirrorSession::Md(state)
                    }
                    Kind::Randomized => {
                        let region = RegionOfInterest::full(data.dim());
                        let e = RandomizedEnumerator::new(
                            &data,
                            &region,
                            RankingScope::TopKRanked(RANDOMIZED_K),
                            0.05,
                        )
                        .map_err(err)?;
                        MirrorSession::Randomized(
                            Box::new(e.into_state()),
                            StdRng::seed_from_u64(*seed),
                        )
                    }
                };
                self.sessions[*slot] = Some((dataset, session));
                Ok(None)
            }
            Spec::GetNext { slot, .. } => {
                let (dataset, session) = self.sessions[*slot]
                    .take()
                    .ok_or("get_next on a closed slot")?;
                let data = data(dataset)?;
                let (session, next) = match session {
                    MirrorSession::Sweep(state) => rec
                        .child("core.sweep2d_next", || {
                            Enumerator2D::from_state(&data, state).map(|mut e| {
                                let next = e.get_next().map(|s| s.stability);
                                (MirrorSession::Sweep(e.into_state()), next)
                            })
                        })
                        .map_err(err)?,
                    MirrorSession::Md(state) => rec
                        .child("core.md_next", || {
                            MdEnumerator::from_state(&data, state).map(|mut e| {
                                let next = e.get_next().map(|s| s.stability);
                                (MirrorSession::Md(e.into_state()), next)
                            })
                        })
                        .map_err(err)?,
                    MirrorSession::Randomized(state, mut rng) => rec
                        .child("core.randomized_next", || {
                            RandomizedEnumerator::from_state(&data, *state).map(|mut e| {
                                let next = e
                                    .get_next_budget(&mut rng, RANDOMIZED_BUDGET)
                                    .map(|d| d.stability);
                                (
                                    MirrorSession::Randomized(Box::new(e.into_state()), rng),
                                    next,
                                )
                            })
                        })
                        .map_err(err)?,
                };
                self.sessions[*slot] = Some((dataset, session));
                Ok(next)
            }
            Spec::Close { slot } => {
                self.sessions[*slot] = None;
                Ok(None)
            }
        }
    }
}
