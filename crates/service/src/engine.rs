//! The query engine: dispatches protocol requests against the registry,
//! session manager, result cache, and shared Monte-Carlo sample store.
//!
//! Two layers:
//!
//! * [`EngineCore`] — all shared state (registry, sessions, caches,
//!   metrics) behind interior locks; lock order is strictly
//!   registry → sessions → caches (no method holds two at once). It is
//!   `Arc`-shared with every transport worker *and* with every job on
//!   the batch worker pool.
//! * [`Engine`] — the public handle: owns the persistent
//!   [`WorkerPool`] (created once, sized to the machine) and implements the `batch` op on top of it, in both
//!   buffered (protocol v1) and streaming (protocol v2) forms. It derefs
//!   to the core, so the embedding API is unchanged.
//!
//! Three public entry points take requests: [`Engine::handle`],
//! [`Engine::handle_line`] and [`Engine::handle_line_streamed`], the
//! last under a transport's [`RequestCtx`]. Each top-level request
//! resolves its context (deadline and `client` tag over the transport's
//! trace and cancel flag) and its [`Op`] once, each batch sub-request
//! once at submit; from there the context moves as one value into pool
//! jobs, the inline fast path and session-queue continuations (see
//! [`crate::ctx`]), and the `Op` is passed down beside it. Every request
//! that parses as JSON is counted once, in
//! `EngineCore::note_outcome`.
//!
//! ## Batch pipeline
//!
//! A `batch` submission enqueues its sub-requests on the pool's MPMC
//! work queue with an in-flight window equal to the pool width, and
//! collects completions from a bounded response queue. With
//! `"stream": true` each completion is emitted to the transport the
//! moment it lands (tagged `{batch_id, index, last}`); without it the
//! completions fill slots and the response is the familiar in-order
//! buffered envelope. The bounded response queue is the backpressure
//! mechanism: a slow consumer blocks the pushing worker (counted in
//! `stats.pool.backpressure_waits`), which stops pulling new work.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use crate::cache::{FlightCache, Probe, ResultKey};
use crate::ctx::{request_op, RequestCtx};
use crate::lockorder::{rank, LockClass, OrderedMutex};
use crate::metrics::{self, OpLatencies, Phase, PhaseGuard, PhaseLatencies, PoolMetrics, Sink};
use crate::obs::Usage;
use crate::pool::{BoundedQueue, CloseOnDrop, Job, PoolSubmitter, WorkerPool};
use crate::proto::{
    envelope, not_one_of, with_stream_tag, Fields, Object, Op, ServiceError, ServiceResult,
};
use crate::registry::{DatasetRegistry, DatasetSource};
use crate::session::{CheckOut, Grant, SessionManager, SessionState, Waiter};
use crate::trace::{self, Span, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;
use srank_core::{
    ranking_region_in, stability_verify_2d, stability_verify_3d_exact, AngleInterval, Dataset,
    Enumerator2D, MdEnumerator, RandomizedEnumerator, RankingScope, StabilityOverview,
};
use srank_sample::roi::RegionOfInterest;
use srank_sample::store::SampleBuffer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tunables for an [`Engine`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Sessions idle at least this long expire: they are never served
    /// again, and their memory goes at the next reap (within a second
    /// while the watchdog supervisor runs, else at the next `session.open`
    /// at capacity, `stats`, `debug.dump` or snapshot).
    pub idle_ttl: Duration,
    /// Entries in the query-result LRU.
    pub result_cache_capacity: usize,
    /// Entries in the shared Monte-Carlo sample-batch LRU.
    pub sample_cache_capacity: usize,
    /// Maximum concurrently open sessions.
    pub max_sessions: usize,
    /// Default Monte-Carlo sample count when a request omits `samples`.
    pub default_samples: usize,
    /// Default RNG seed when a request omits `seed`.
    pub default_seed: u64,
    /// Upper bound on client-supplied `samples` / `budget` (a request
    /// beyond it is `bad_request`, not an allocation the size of the
    /// client's imagination).
    pub max_samples: usize,
    /// Upper bound on `registry.load`'s `n`.
    pub max_rows: usize,
    /// Upper bound on `registry.load`'s `d`.
    pub max_dim: usize,
    /// Upper bound on sub-requests per `batch` op.
    pub max_batch: usize,
    /// Width of the persistent batch worker pool, created once at
    /// `Engine::new`. `0` (the default) sizes to the machine
    /// (`available_parallelism`, capped at 8).
    pub pool_workers: usize,
    /// Capacity of the per-batch bounded response queue — the
    /// backpressure knob. `None` (the default) uses the pool width;
    /// smaller values make workers block earlier behind a slow consumer.
    /// (`NonZeroUsize` because a cap of 0 could never drain; it used to
    /// be a bare `usize` whose 0 silently meant "default".)
    pub stream_queue_cap: Option<std::num::NonZeroUsize>,
    /// Bound on requests *queued* per busy session (pool-aware session
    /// scheduling): a request landing on a checked-out session parks on
    /// the session's FIFO dispatch queue up to this depth instead of
    /// being refused. `0` disables queueing and restores the pre-queue
    /// `session_busy` refusals.
    pub session_queue_depth: usize,
    /// Per-connection multiplexing: how many streamed batches one
    /// transport connection may have in flight at once (each runs on its
    /// own connection-scoped thread, envelopes interleaved on the
    /// socket, demultiplexed by the `stream.request` id echo). `0`
    /// serializes streams on the connection (wire-protocol-v2 behavior).
    pub mux_streams: usize,
    /// Durable persistence root (`serve --data-dir`). When set, the
    /// engine opens an [`crate::store::Store`] there at construction and
    /// restores whatever warm state it holds (datasets, caches,
    /// sessions); the `snapshot` / `restore` / `session.save` /
    /// `session.resume` ops operate against it. `None` (the default)
    /// runs fully in-memory, exactly as before.
    pub data_dir: Option<std::path::PathBuf>,
    /// Request tracing: trace 1 inbound request in N (`serve
    /// --trace-sample N`). `0` (the default) disables tracing entirely —
    /// the untraced path costs one branch per would-be span, so the
    /// embedded API pays nothing for the layer.
    pub trace_sample: u64,
    /// Bounded trace-recorder capacity, in completed span records.
    pub trace_capacity: usize,
    /// Completed request traces at least this long are emitted to the
    /// structured slow-request log (`serve --slow-ms`). `0` disables
    /// the slow log.
    pub slow_request_micros: u64,
    /// srank-guard: per-request deadlines and admission-control/load-
    /// shedding thresholds (`serve --default-deadline-ms`,
    /// `--shed-queue`, `--shed-wait-p99-ms`). All off by default.
    pub guard: crate::guard::GuardConfig,
    /// Fault-injection spec (see [`crate::faults`]). `None` (the
    /// default) reads the `SRANK_FAULTS` environment variable;
    /// `Some(spec)` arms programmatically (chaos tests).
    pub faults: Option<String>,
    /// Stalled-worker threshold for the obs watchdog supervisor, in
    /// milliseconds (`serve --watchdog-stall-ms`); the wedged-journal
    /// and metrics-starvation thresholds derive from it. `0` disables
    /// the supervisor thread entirely.
    pub watchdog_stall_ms: u64,
    /// Cardinality bound of the per-client resource-accounting table
    /// behind the `top` op (tag-spraying clients evict each other's
    /// rows instead of growing the table). `0` disables accounting
    /// entirely — the bench baseline and the operator escape hatch.
    pub client_table_capacity: usize,
    /// Whether op/phase latency samples are folded into the windowed
    /// ring (`stats.window`, `srank_window_rate` and friends). On by
    /// default; `false` is the bench baseline for measuring the
    /// windowing overhead (the `window` stats block stays present but
    /// empty).
    pub window_telemetry: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            idle_ttl: Duration::from_secs(300),
            result_cache_capacity: 512,
            sample_cache_capacity: 16,
            max_sessions: 256,
            default_samples: 20_000,
            default_seed: 42,
            max_samples: 2_000_000,
            max_rows: 2_000_000,
            max_dim: 32,
            max_batch: 64,
            pool_workers: 0,
            stream_queue_cap: None,
            session_queue_depth: crate::session::DEFAULT_QUEUE_DEPTH,
            mux_streams: 4,
            data_dir: None,
            trace_sample: 0,
            trace_capacity: trace::DEFAULT_TRACE_CAPACITY,
            slow_request_micros: 0,
            guard: crate::guard::GuardConfig::default(),
            faults: None,
            watchdog_stall_ms: 5_000,
            client_table_capacity: crate::obs::DEFAULT_CLIENT_TABLE_CAP,
            window_telemetry: true,
        }
    }
}

/// Cache hit/miss counters (exposed via `stats` and used by the benches).
#[derive(Debug, Default)]
pub struct CacheStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
}

impl CacheStats {
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Exports one cache block; `series` names its hits, misses and
    /// entries families.
    fn export(&self, s: &mut Sink, entries: usize, series: [&'static str; 3]) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let [hits, misses, live] = series;
        s.counter("hits", hits, "Cache hits.", load(&self.hits));
        s.counter("misses", misses, "Cache misses.", load(&self.misses));
        s.gauge("entries", live, "Live cache entries.", entries);
    }
}

/// What [`EngineCore::probe_flight`] resolved a key to.
enum Flight<'c, C: LockClass, K: CacheKey, V: Clone> {
    /// The cached value, or (`waited`) the value of another request's
    /// in-flight compute of the same key.
    Hit { value: V, waited: bool },
    /// This request computes the key.
    Lead(Lease<'c, C, K, V>),
}

/// What a single-flight cache can be keyed by.
trait CacheKey: Eq + std::hash::Hash + Clone {}
impl<K: Eq + std::hash::Hash + Clone> CacheKey for K {}

/// The duty to land a single-flight compute. [`Lease::land`] caches the
/// value and hands it to every waiter; dropping the lease unlanded (an
/// error, a shed, a panic) fails the flight, which wakes the waiters to
/// probe again.
struct Lease<'c, C: LockClass, K: CacheKey, V: Clone> {
    cache: &'c OrderedMutex<C, FlightCache<K, V>>,
    /// Present until the flight lands.
    key: Option<K>,
}

impl<C: LockClass, K: CacheKey, V: Clone> Lease<'_, C, K, V> {
    fn land(mut self, value: &V) {
        let Some(key) = self.key.take() else { return };
        let waiters = self.cache.lock().land(key, Some(value));
        for waiter in waiters {
            // A waiter that gave up (deadline, cancel) dropped its end.
            let _ = waiter.send(value.clone());
        }
    }
}

impl<C: LockClass, K: CacheKey, V: Clone> Drop for Lease<'_, C, K, V> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            // Dropping the senders (after the lock) wakes the waiters.
            let waiters = self.cache.lock().land(key, None);
            drop(waiters);
        }
    }
}

/// How often a request waiting on another's identical compute re-checks
/// its deadline and connection.
const FLIGHT_POLL: Duration = Duration::from_millis(10);

/// A parsed, normalized region of interest (`None` = the full orthant).
#[derive(Clone, Debug)]
struct RoiSpec {
    around: Vec<f64>,
    theta: f64,
}

/// Monte-Carlo samples drawn per deadline check inside one randomized
/// `session.get_next` budget (≈ a fraction of a millisecond of kernel
/// time — fine-grained enough that a deadline stops a multi-million
/// sample budget promptly, coarse enough to cost nothing when none is
/// set).
const KERNEL_CHUNK: usize = 8_192;

/// Validated `session.get_next` parameters (parsed before any session
/// state is touched).
#[derive(Clone, Copy, Debug)]
struct GetNextParams {
    session: u64,
    head_cap: usize,
    /// Per-call budget override for randomized sessions.
    budget: Option<usize>,
}

/// One request under way in [`EngineCore::dispatch`]: its op, its
/// handler's start and its open `dispatch` span. Whoever holds it
/// answers the request — a parked `session.get_next`'s continuation, so
/// the span and the op-latency sample cover the park on either path.
struct Dispatched {
    op: Op,
    start: Instant,
    span: Span,
}

impl Dispatched {
    /// Closes the `dispatch` span and counts the request, timed from its
    /// handler's start.
    fn answer(
        self,
        core: &EngineCore,
        outcome: ServiceResult<(Value, bool)>,
    ) -> ServiceResult<(Value, bool)> {
        drop(self.span);
        core.note_outcome(Some((self.op, self.start)), outcome.as_ref().err());
        outcome
    }
}

/// Where a pooled batch sub-request is answered: its batch's response
/// queue, at its index. It rides the sub-request's [`RequestCtx`]
/// (`None` on every other path), so a `session.get_next` that parks on
/// a busy session frees its worker and is answered by a later pool job.
pub(crate) struct PoolPark {
    core: Arc<EngineCore>,
    submitter: PoolSubmitter,
    responses: Arc<BoundedQueue<(usize, Value)>>,
    index: usize,
    /// The sub-request's `id`, echoed by its envelope.
    id: Option<Value>,
}

impl std::fmt::Debug for PoolPark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolPark")
            .field("index", &self.index)
            .finish_non_exhaustive()
    }
}

impl PoolPark {
    /// Ends a pool job of this sub-request: flushes the worker's spans
    /// (the submitter may answer a `trace` query the moment the last
    /// envelope lands), then delivers the envelope, if it has one.
    fn deliver(&self, env: Option<Value>) {
        self.core.tracer.flush_thread();
        if let Some(env) = env {
            self.responses.push((self.index, env));
        }
    }

    /// Submits the grant continuation of a `session.get_next` parked here
    /// as a pool job under its context `ctx`, from whatever thread
    /// returned the session — or runs it inline if the pool is shutting
    /// down, so the answer is never lost. Its wait for a worker is a
    /// `pool_queue` interval inside the request's `dispatch` span.
    fn resume(
        self: Arc<Self>,
        ctx: RequestCtx,
        params: GetNextParams,
        grant: Grant,
        dispatched: Dispatched,
    ) {
        let park = Arc::clone(&self);
        let submitted = Instant::now();
        let job: Job = Box::new(move || {
            ctx.enter(|| {
                park.core
                    .time_since(Phase::PoolQueue, Op::SessionGetNext, submitted)
                    .finish();
                let env = unwind_safe(&park.id, || {
                    let outcome = park.core.resume_get_next(params, grant, dispatched);
                    Some(envelope(park.id.clone(), outcome))
                });
                park.deliver(env);
            });
        });
        if let Err(job) = self.submitter.submit(job) {
            job();
        }
    }
}

/// Runs one batch sub-request's handler, answering a panic with an
/// envelope: a missing completion would deadlock the batch submitter.
fn unwind_safe(id: &Option<Value>, run: impl FnOnce() -> Option<Value>) -> Option<Value> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|_| {
        Some(envelope(
            id.clone(),
            Err(ServiceError::internal("sub-request handler panicked")),
        ))
    })
}

/// The public engine handle: shared state plus the persistent batch
/// worker pool. Derefs to [`EngineCore`] for everything that is not
/// batch execution.
pub struct Engine {
    core: Arc<EngineCore>,
    pool: WorkerPool,
    /// Monotonic id tagging every streamed batch's envelopes.
    batch_ids: AtomicU64,
    /// The watchdog supervisor thread (absent when
    /// `watchdog_stall_ms == 0`); signalled and joined on drop.
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl std::ops::Deref for Engine {
    type Target = EngineCore;

    fn deref(&self) -> &EngineCore {
        &self.core
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.core.obs.watchdog.request_shutdown();
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

/// The concurrent stability-query state, shared (`Arc`) by transport
/// workers and pool jobs alike.
pub struct EngineCore {
    config: EngineConfig,
    registry: DatasetRegistry,
    sessions: SessionManager,
    results: OrderedMutex<rank::ResultCache, FlightCache<ResultKey, Value>>,
    samples: OrderedMutex<rank::SampleCache, FlightCache<String, Arc<SampleBuffer>>>,
    pub result_stats: CacheStats,
    pub sample_stats: CacheStats,
    /// Per-op latency histograms (all ops, including batch sub-requests).
    pub op_latency: OpLatencies,
    /// Counters written by the worker pool, read by `stats`.
    pool_metrics: Arc<PoolMetrics>,
    /// Resolved pool width (for `stats`; the pool itself lives on
    /// [`Engine`]).
    pool_width: usize,
    /// Durable persistence (present iff `config.data_dir` was set and
    /// the directory opened).
    store: Option<crate::store::Store>,
    /// The request-trace recorder ([`crate::trace`]); samples nothing
    /// unless `config.trace_sample > 0`.
    tracer: Tracer,
    /// Phase-attributed latency histograms, fed by [`EngineCore::time`]
    /// guards; always on, independent of trace sampling.
    pub(crate) phases: PhaseLatencies,
    /// srank-guard: deadline/shed counters and admission thresholds.
    guard: crate::guard::Guard,
    /// The obs layer: windowed telemetry ring, per-client accounting
    /// table, and watchdog heartbeat stamps (see [`crate::obs`]).
    obs: crate::obs::Obs,
    /// Armed fault-injection points (disarmed unless `SRANK_FAULTS` /
    /// `config.faults` says otherwise); shared with the store so its
    /// file IO consults the same decision stream.
    faults: Arc<crate::faults::Faults>,
    started: Instant,
}

impl Engine {
    pub fn new(config: EngineConfig) -> Self {
        let pool_width = match config.pool_workers {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get().min(8)),
            n => n,
        };
        let pool_metrics = Arc::new(PoolMetrics::default());
        let obs = crate::obs::Obs::with_client_capacity(config.client_table_capacity);
        let faults = Arc::new(match &config.faults {
            Some(spec) => crate::faults::Faults::parse(spec).unwrap_or_else(|e| {
                crate::log::warn(
                    "srank-guard",
                    &format!("ignoring malformed fault spec '{spec}': {e}"),
                );
                crate::faults::Faults::disarmed()
            }),
            None => crate::faults::Faults::from_env(),
        });
        // A data-dir that cannot be opened degrades to an in-memory
        // engine with a logged warning — persistence must never be able
        // to poison boot.
        let store = config
            .data_dir
            .as_ref()
            .and_then(|dir| match crate::store::Store::open(dir) {
                Ok(mut store) => {
                    store.arm_faults(Arc::clone(&faults));
                    Some(store)
                }
                Err(e) => {
                    crate::log::warn(
                        "srank-store",
                        &format!(
                            "cannot open data dir {}: {e}; running without persistence",
                            dir.display()
                        ),
                    );
                    None
                }
            });
        let core = Arc::new(EngineCore {
            registry: DatasetRegistry::new(),
            sessions: SessionManager::with_queue_depth(
                config.max_sessions,
                config.session_queue_depth,
            )
            .with_idle_ttl(config.idle_ttl),
            results: OrderedMutex::new(FlightCache::new(config.result_cache_capacity)),
            samples: OrderedMutex::new(FlightCache::new(config.sample_cache_capacity)),
            result_stats: CacheStats::default(),
            sample_stats: CacheStats::default(),
            op_latency: OpLatencies::default(),
            pool_metrics: Arc::clone(&pool_metrics),
            pool_width,
            store,
            tracer: Tracer::new(
                config.trace_sample,
                config.trace_capacity,
                config.slow_request_micros,
            ),
            phases: PhaseLatencies::default(),
            guard: crate::guard::Guard::new(config.guard.clone()),
            obs,
            faults,
            started: Instant::now(),
            config,
        });
        // Warm restart: whatever the store holds comes back before the
        // first request (corrupt files are logged and skipped inside).
        if let Some(store) = core.store() {
            store.restore(&core);
        }
        let supervisor = match core.config.watchdog_stall_ms {
            0 => None,
            stall_ms => {
                let sup_core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name("srank-watchdog".into())
                    .spawn(move || supervise(&sup_core, stall_ms))
                    .ok()
            }
        };
        let pool = WorkerPool::with_watchdog(
            pool_width,
            pool_metrics,
            Some(Arc::clone(&core.obs.watchdog)),
        );
        Self {
            core,
            pool,
            batch_ids: AtomicU64::new(0),
            supervisor,
        }
    }

    pub fn with_defaults() -> Self {
        Self::new(EngineConfig::default())
    }

    /// A shared handle on the engine's core — what long-lived sidecars
    /// (the checkpoint journal, embedding hosts) hold so they outlive no
    /// state they don't own.
    pub fn core_arc(&self) -> Arc<EngineCore> {
        Arc::clone(&self.core)
    }

    /// Handles one raw request line, returning one response line (no
    /// trailing newline). Streaming (`batch` + `"stream": true`) is not
    /// available through this single-line API — it answers `bad_request`
    /// pointing at [`handle_line_streamed`](Self::handle_line_streamed).
    pub fn handle_line(&self, line: &str) -> String {
        let response = match serde_json::from_str(line) {
            Ok(request) => self.handle(&request),
            Err(e) => envelope(None, Err(ServiceError::parse_error(e.to_string()))),
        };
        to_line(&response)
    }

    /// Handles one parsed request into one response value (buffered),
    /// under the caller's current [`RequestCtx`] — empty unless an
    /// embedding host entered one.
    pub fn handle(&self, request: &Value) -> Value {
        // No session sweep here: sessions expire where they are touched
        // (see `crate::session`), so a request's cost does not grow with
        // the number of open sessions.
        let ctx = RequestCtx::for_request(request, &self.core.guard);
        self.respond(request, request_op(request), ctx)
    }

    /// Handles one raw request line under `ctx` — a transport's
    /// connection context (its sampling decision and death flag), or
    /// `RequestCtx::default()` — emitting one *or more* response lines
    /// through `sink`: the transport entry point of wire protocol v2.
    /// Every request except a streaming batch emits exactly one line
    /// (identical to [`handle_line`](Self::handle_line)); a `batch` with
    /// `"stream": true` emits one envelope per sub-request in completion
    /// order, tagged `{"batch_id", "index", "last": false}`, followed by
    /// one terminal summary line tagged `{"batch_id", "last": true}`.
    /// While a request runs under a raised death flag, a wait on a busy
    /// session or on an identical request's compute gives up instead of
    /// working for a client that can no longer read the answer.
    pub fn handle_line_streamed(
        &self,
        line: &str,
        sink: &mut dyn FnMut(&str) -> std::io::Result<()>,
        ctx: RequestCtx,
    ) -> std::io::Result<()> {
        match serde_json::from_str(line) {
            Ok(request) => self.handle_streamed(&request, request_op(&request), sink, ctx),
            Err(e) => {
                let response = envelope(None, Err(ServiceError::parse_error(e.to_string())));
                sink(&to_line(&response))
            }
        }
    }

    /// Whether `request`, of op `op`, is a streamed batch — i.e. whether
    /// handling it can emit more than one response line. Transports use
    /// this to decide if the request may run on a multiplexing side
    /// thread.
    pub(crate) fn is_streaming(op: &ServiceResult<Op>, request: &Value) -> bool {
        matches!(op, Ok(Op::Batch)) && request.get("stream").and_then(Value::as_bool) == Some(true)
    }

    /// [`handle_line_streamed`](Self::handle_line_streamed) for a request
    /// the transport has already parsed and resolved the op of.
    pub(crate) fn handle_streamed(
        &self,
        request: &Value,
        op: ServiceResult<Op>,
        sink: &mut dyn FnMut(&str) -> std::io::Result<()>,
        ctx: RequestCtx,
    ) -> std::io::Result<()> {
        ctx.enter(|| {
            if Self::is_streaming(&op, request) {
                let (_root, trace) = self.core.open_root(Some(Op::Batch));
                return trace::with_ctx(trace, || self.op_batch_streamed(request, sink));
            }
            let ctx = RequestCtx::for_request(request, &self.core.guard);
            let (usage, client) = match &ctx {
                Ok(ctx) => (ctx.usage.clone(), ctx.client.clone()),
                Err(_) => Default::default(),
            };
            let resolved = op.as_ref().ok().copied();
            // A root the engine opens covers the serialize span too.
            let (_root, trace) = self.core.open_root(resolved);
            trace::with_ctx(trace, || {
                let response = self.respond(request, op, ctx);
                let ser = self.core.time(Phase::Serialize, resolved);
                let line = to_line(&response);
                ser.finish();
                // Bytes are charged at the serialization seam (+1 for the
                // transport's newline), where the response size is known.
                self.core
                    .obs
                    .clients
                    .charge_in(&usage, client.as_deref(), |u| {
                        u.add(Usage::BytesWritten, line.len() as u64 + 1)
                    });
                sink(&line)
            })
        })
    }

    /// One buffered response under the request's resolved op and
    /// context: opens the request root span unless a transport already
    /// did, then dispatches.
    fn respond(
        &self,
        request: &Value,
        op: ServiceResult<Op>,
        ctx: ServiceResult<RequestCtx>,
    ) -> Value {
        let (_root, trace) = self.core.open_root(op.as_ref().ok().copied());
        let outcome = match ctx {
            Ok(ctx) => RequestCtx { trace, ..ctx }.enter(|| self.dispatch_top(op, request)),
            Err(e) => self.core.refuse(e),
        };
        envelope(request.get("id").cloned(), outcome)
    }

    fn dispatch_top(&self, op: ServiceResult<Op>, request: &Value) -> ServiceResult<(Value, bool)> {
        match op {
            Ok(Op::Batch) => {
                let start = Instant::now();
                let outcome = Fields::of(request).and_then(|f| self.op_batch_buffered(&f));
                self.core
                    .note_outcome(Some((Op::Batch, start)), outcome.as_ref().err());
                outcome
            }
            // Only a pooled sub-request parks without an answer.
            Ok(op) => self
                .core
                .dispatch(op, request, EngineCore::dispatch_op)
                .unwrap_or_else(|| Err(ServiceError::internal("request parked with no pool"))),
            Err(e) => self.core.refuse(e),
        }
    }

    // ------------------------------------------------------------------
    // Batch execution (persistent pool, buffered & streamed)

    /// Validates the shared `batch` shape and returns the sub-requests.
    fn validate_batch<'a>(&self, fields: &Fields<'a>) -> ServiceResult<&'a [Value]> {
        let requests = fields
            .raw("requests")
            .ok_or_else(|| ServiceError::bad_request("batch needs a 'requests' array"))?
            .as_array()
            .ok_or_else(|| ServiceError::bad_request("'requests' must be an array"))?;
        if requests.len() > self.core.config.max_batch {
            return Err(ServiceError::bad_request(format!(
                "batch of {} exceeds the server limit ({})",
                requests.len(),
                self.core.config.max_batch
            )));
        }
        Ok(requests)
    }

    /// Protocol-v1 `batch`: executes the sub-requests on the persistent
    /// pool and returns their envelopes *in request order* in one
    /// buffered response (each sub-request succeeds or fails
    /// independently; its envelope echoes its own `id`).
    fn op_batch_buffered(&self, fields: &Fields<'_>) -> ServiceResult<(Value, bool)> {
        if fields.bool("stream")? == Some(true) {
            return Err(ServiceError::bad_request(
                "streaming batch responses need a line transport (stdio/TCP, or \
                 Engine::handle_line_streamed); this entry point is single-response",
            ));
        }
        let requests = self.validate_batch(fields)?;
        self.core
            .pool_metrics
            .batches_buffered
            .fetch_add(1, Ordering::Relaxed);
        // Buffered batches get a dispatch group of their own too: their
        // pool jobs round-robin against other batches' instead of
        // convoying behind whichever batch submitted first.
        let group = self.batch_ids.fetch_add(1, Ordering::Relaxed) + 1;
        let mut slots: Vec<Value> = requests.iter().map(|_| Value::Null).collect();
        #[expect(
            clippy::indexing_slicing,
            reason = "execute_batch only delivers indices below requests.len() == slots.len()"
        )]
        self.execute_batch(group, requests, |i, env, _more| slots[i] = env);
        Ok((
            Object::new()
                .field("count", slots.len())
                .field("results", slots)
                .build(),
            false,
        ))
    }

    /// Protocol-v2 `batch` with `"stream": true`: emits each sub-response
    /// the moment it completes, then a terminal summary line. Sink errors
    /// (client gone mid-stream) abort emission but still drain the
    /// in-flight jobs.
    fn op_batch_streamed(
        &self,
        request: &Value,
        sink: &mut dyn FnMut(&str) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let start = Instant::now();
        let id = request.get("id").cloned();
        #[expect(
            clippy::expect_used,
            reason = "the caller only dispatches here after reading op from an object"
        )]
        let fields = Fields::of(request).expect("op was read from an object");
        // Streamed batches bypass `dispatch_top`, so their context is
        // resolved here (shape errors, a bad `deadline_ms` or `client`
        // included, answer as one plain untagged envelope — clients
        // treat a tag-less response as terminal).
        let validated = self.validate_batch(&fields).and_then(|requests| {
            Ok((
                requests,
                RequestCtx::for_request(request, &self.core.guard)?,
            ))
        });
        let (requests, ctx) = match validated {
            Ok(ok) => ok,
            Err(e) => {
                self.core.note_outcome(Some((Op::Batch, start)), Some(&e));
                let response = envelope(id, Err(e));
                return sink(&to_line(&response));
            }
        };
        self.core
            .pool_metrics
            .batches_streamed
            .fetch_add(1, Ordering::Relaxed);
        let batch_id = self.batch_ids.fetch_add(1, Ordering::Relaxed) + 1;
        let n = requests.len();
        let mut errors = 0u64;
        let mut io_error: Option<std::io::Error> = None;
        // The flush-coalescing window: an envelope delivered with
        // `more == true` (another response is already waiting in the
        // drain queue) parks here instead of paying its own sink call;
        // the burst's last envelope carries the whole window out in one
        // lock/write/flush. Every envelope still lands as its own wire
        // line — the payload is newline-joined. Bounded so a pathological
        // burst cannot grow an unbounded buffer.
        const FLUSH_COALESCE_MAX: usize = 8;
        let mut pending = String::new();
        let mut pending_count = 0u64;
        ctx.enter(|| {
            self.execute_batch(batch_id, requests, |index, env, more| {
                if env.get("ok").and_then(Value::as_bool) == Some(false) {
                    errors += 1;
                }
                if io_error.is_some() {
                    return; // keep draining, stop writing
                }
                let tagged = with_stream_tag(env, batch_id, id.as_ref(), Some(index), false);
                let ser = self.core.time(Phase::Serialize, Some(Op::Batch));
                let line = to_line(&tagged);
                ser.finish();
                self.core
                    .obs
                    .clients
                    .charge(|u| u.add(Usage::BytesWritten, line.len() as u64 + 1));
                if more && pending_count < FLUSH_COALESCE_MAX as u64 {
                    pending.push_str(&line);
                    pending.push('\n');
                    pending_count += 1;
                    return;
                }
                let outcome = if pending.is_empty() {
                    sink(&line)
                } else {
                    pending.push_str(&line);
                    let outcome = sink(&pending);
                    self.core
                        .pool_metrics
                        .writes_coalesced
                        .fetch_add(pending_count, Ordering::Relaxed);
                    pending.clear();
                    pending_count = 0;
                    outcome
                };
                if let Err(e) = outcome {
                    io_error = Some(e);
                }
            });
            // The batch counts once, on its own row; its sub-requests
            // count on their own tags, else the batch's.
            self.core.note_outcome(Some((Op::Batch, start)), None);
        });
        if let Some(e) = io_error {
            return Err(e);
        }
        let summary = Object::new()
            .field("count", n)
            .field("errors", errors)
            .build();
        let terminal = with_stream_tag(
            envelope(id.clone(), Ok((summary, false))),
            batch_id,
            id.as_ref(),
            None,
            true,
        );
        sink(&to_line(&terminal))
    }

    /// The shared batch pipeline: submits sub-requests to the persistent
    /// pool with an in-flight window equal to the pool width, and hands
    /// each completion (in completion order) to `deliver`. Responses
    /// travel through a bounded queue so a slow `deliver` backpressures
    /// the workers instead of buffering without limit.
    ///
    /// Pool jobs are tagged with `group` (one id per batch), so the work
    /// queue round-robins this batch against singles traffic and other
    /// batches instead of running it as one convoy. `deliver`'s third
    /// argument flags "another response is already waiting" — the
    /// streamed transport uses it to coalesce flushes across a burst.
    fn execute_batch(
        &self,
        group: u64,
        requests: &[Value],
        mut deliver: impl FnMut(usize, Value, bool),
    ) {
        let n = requests.len();
        if n == 0 {
            return;
        }
        let window = self.pool.width();
        let cap = self
            .core
            .config
            .stream_queue_cap
            .map_or(window, std::num::NonZeroUsize::get);
        let responses: Arc<BoundedQueue<(usize, Value)>> =
            Arc::new(BoundedQueue::new(cap, Arc::clone(&self.core.pool_metrics)));
        // If `deliver` panics, closing the queue on unwind releases any
        // worker blocked mid-push so the pool cannot wedge.
        let _close_guard = CloseOnDrop(&responses);
        let batch = RequestCtx::current();
        // One sub_request span per sub-request, held submitter-side from
        // submit to delivery (indexes mirror `requests`); the job runs
        // under the span's ctx so worker-side spans link across threads.
        let mut sub_spans: Vec<Span> = Vec::with_capacity(n);
        let mut submitted = 0usize;
        let mut delivered = 0usize;
        while delivered < n {
            // Top up the in-flight window. A slot is released only when
            // its response is *delivered* (submitter-local, so there is
            // no race against worker-side counters): at most `window`
            // jobs of this batch can ever be executing, queued, parked
            // on a session, or blocking a worker mid-push. A wedged
            // consumer therefore stalls its own submitter and holds at
            // most its own window — it cannot draft the whole pool into
            // one batch and starve the others.
            while submitted < n && submitted - delivered < window {
                let index = submitted;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "index == submitted < n == requests.len() by the loop bound"
                )]
                let request = &requests[index];
                submitted += 1;
                let op = request_op(request);
                let mut sub_span = self.core.tracer.span(trace::ambient(), Phase::SubRequest);
                if let Ok(op) = op {
                    sub_span.set_op(op);
                }
                // The sub-request's context and op are resolved once,
                // here, and move as one unit onto whichever path runs it.
                // A sub-request that resolves neither is answered here.
                let id = || request.get("id").cloned();
                let answered = match (batch.for_sub(request, sub_span.ctx()), op) {
                    (Err(e), _) => Some(envelope(id(), self.core.refuse(e))),
                    (Ok(ctx), Err(e)) => Some(envelope(id(), ctx.enter(|| self.core.refuse(e)))),
                    (Ok(ctx), Ok(op)) => self.run_inline(op, request, ctx.clone()).or_else(|| {
                        self.submit_sub(group, index, op, request, ctx, &responses);
                        None
                    }),
                };
                match answered {
                    Some(env) => {
                        delivered += 1;
                        sub_spans.push(Span::disabled());
                        trace::with_ctx(sub_span.ctx(), || deliver(index, env, false));
                    }
                    None => sub_spans.push(sub_span),
                }
            }
            // Every remaining sub-request may have been answered by the
            // fast path above — nothing is in flight, so don't block on
            // an empty response queue.
            if delivered == n {
                break;
            }
            let Some((mut index, mut env)) = responses.pop() else {
                break; // closed — cannot happen while this loop runs
            };
            // Burst drain: after the blocking pop, responses that piled
            // up behind it are taken non-blockingly and delivered in the
            // same wake-up, each flagged "another follows" so a streamed
            // transport can coalesce their flushes into one write.
            loop {
                delivered += 1;
                let next = if delivered < n {
                    responses.try_pop()
                } else {
                    None
                };
                // Delivery completes the sub_request span. `deliver`
                // (which serializes streamed envelopes) runs under its
                // ctx, so serialize spans nest inside the sub-request
                // they belong to.
                #[expect(
                    clippy::indexing_slicing,
                    reason = "one span is pushed per submitted index before delivery"
                )]
                let sub_span = std::mem::replace(&mut sub_spans[index], Span::disabled());
                trace::with_ctx(sub_span.ctx(), || deliver(index, env, next.is_some()));
                match next {
                    Some((i, e)) => {
                        index = i;
                        env = e;
                    }
                    None => break,
                }
            }
        }
    }

    /// The submitter-side fast paths for one sub-request, under its
    /// context `ctx` (`None` sends it to the pool): a result-LRU hit — so
    /// under overload admitted cold work never sits in front of a cache
    /// hit — or a sub-request the cost classifier proves cheaper to run
    /// than to dispatch, which goes through the pool job's runner and so
    /// passes the same guard seams.
    fn run_inline(&self, op: Op, request: &Value, ctx: RequestCtx) -> Option<Value> {
        let core = &self.core;
        let env = ctx.enter(|| {
            core.try_cached_inline(op, request).or_else(|| {
                (core.classify_inline(op, request) == crate::guard::SubCost::Inline)
                    .then(|| core.run_sub(op, request, None))
                    .flatten()
            })
        })?;
        core.pool_metrics
            .inline_answered
            .fetch_add(1, Ordering::Relaxed);
        Some(env)
    }

    /// Submits one sub-request to the pool under its context `ctx`, with
    /// its [`PoolPark`]. The job (or, for a `session.get_next` parked on a
    /// busy session, its continuation) pushes the envelope into
    /// `responses`.
    fn submit_sub(
        &self,
        group: u64,
        index: usize,
        op: Op,
        request: &Value,
        ctx: RequestCtx,
        responses: &Arc<BoundedQueue<(usize, Value)>>,
    ) {
        let park = Arc::new(PoolPark {
            core: Arc::clone(&self.core),
            submitter: self.pool.submitter(),
            responses: Arc::clone(responses),
            index,
            id: request.get("id").cloned(),
        });
        let job_request = request.clone();
        let submit_at = Instant::now();
        let accepted = self.pool.submit_tagged(
            group,
            Box::new(move || {
                let ctx = RequestCtx {
                    park: Some(Arc::clone(&park)),
                    ..ctx
                };
                let env = ctx.enter(|| park.core.run_sub(op, &job_request, Some(submit_at)));
                park.deliver(env);
            }),
        );
        if !accepted {
            // Only reachable while the engine is being torn down.
            responses.push((
                index,
                envelope(
                    request.get("id").cloned(),
                    Err(ServiceError::internal("engine is shutting down")),
                ),
            ));
        }
    }
}

impl EngineCore {
    pub fn registry(&self) -> &DatasetRegistry {
        &self.registry
    }

    /// The engine's tunables (read-only after construction).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The durable store, when the engine was built with a `data_dir`.
    pub fn store(&self) -> Option<&crate::store::Store> {
        self.store.as_ref()
    }

    /// The srank-guard layer: deadline/shed counters and admission
    /// thresholds.
    pub fn guard(&self) -> &crate::guard::Guard {
        &self.guard
    }

    /// The armed fault-injection points (disarmed in production).
    pub fn faults(&self) -> &crate::faults::Faults {
        &self.faults
    }

    /// The obs layer: windowed telemetry, per-client accounting, and
    /// the watchdog heartbeat stamps.
    pub fn obs(&self) -> &crate::obs::Obs {
        &self.obs
    }

    /// Live load signals for the admission decision, gathered from the
    /// pool and session-queue metrics the engine already keeps. Only
    /// called when admission control is armed (the session-queue
    /// percentile walk is not free).
    fn load_signals(&self) -> crate::guard::LoadSignals {
        let completed = self.pool_metrics.completed.load(Ordering::Relaxed);
        let wait = self.pool_metrics.queue_wait_micros.load(Ordering::Relaxed);
        crate::guard::LoadSignals {
            pool_queue_depth: self.pool_metrics.queue_depth.load(Ordering::Relaxed),
            avg_pool_wait_micros: wait.checked_div(completed).unwrap_or(0),
            session_wait_p99_micros: self.sessions.queue_counters().wait_p99_micros,
        }
    }

    /// Admission check for one expensive cold op (kernel compute,
    /// session open, enumeration advance). Cheap ops and cache hits
    /// never call this — overload degrades to the cached working set.
    fn admit_cold(&self, op: Op) -> ServiceResult<()> {
        if !self.guard.config().admission_armed() {
            return Ok(());
        }
        self.guard.admit_cold(op, self.load_signals())
    }

    /// Persists a full snapshot now, if a store is configured — the
    /// graceful-shutdown flush used by transports and the CLI.
    pub fn checkpoint_now(&self) -> ServiceResult<Option<Value>> {
        match self.store() {
            None => Ok(None),
            Some(store) => store.snapshot(self).map(Some),
        }
    }

    /// The request-trace recorder (samples nothing when
    /// `config.trace_sample` is 0).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Times `phase` of `op` (`None`: a span only, or an unresolved op)
    /// from now until the guard closes: see [`PhaseGuard`].
    pub(crate) fn time(&self, phase: Phase, op: Option<Op>) -> PhaseGuard<'_> {
        PhaseGuard::open(self, phase, op, None)
    }

    /// Times `phase` of `op` from `start`, an instant stamped elsewhere:
    /// a pooled sub-request's submit instant or a park instant.
    pub(crate) fn time_since(&self, phase: Phase, op: Op, start: Instant) -> PhaseGuard<'_> {
        PhaseGuard::open(self, phase, Some(op), Some(start))
    }

    /// Opens a request root span unless the caller already made the
    /// sampling decision — transports open the root themselves (it must
    /// cover parse and flush), while the embedded `handle` API and
    /// `handle_line` get one here. Returns it with the (decided) trace
    /// context the request runs under.
    fn open_root(&self, op: Option<Op>) -> (Span, trace::TraceCtx) {
        let ambient = trace::ambient();
        if ambient.is_decided() {
            return (Span::disabled(), ambient);
        }
        let mut root = self.tracer.root_span();
        if !root.is_recording() {
            return (root, trace::TraceCtx::UNSAMPLED);
        }
        if let Some(op) = op {
            root.set_op(op);
        }
        let ctx = root.ctx();
        (root, ctx)
    }

    pub(crate) fn sessions(&self) -> &SessionManager {
        &self.sessions
    }

    pub(crate) fn results_cache(
        &self,
    ) -> &OrderedMutex<rank::ResultCache, FlightCache<ResultKey, Value>> {
        &self.results
    }

    pub(crate) fn samples_cache(
        &self,
    ) -> &OrderedMutex<rank::SampleCache, FlightCache<String, Arc<SampleBuffer>>> {
        &self.samples
    }

    /// Evicts idle sessions now, against an explicit TTL (tests) or the
    /// configured one.
    pub fn evict_idle_sessions(&self, ttl: Option<Duration>) -> usize {
        self.sessions
            .evict_idle(ttl.unwrap_or(self.config.idle_ttl))
    }

    /// Whole-table session sweeps run since boot: no request path runs
    /// one, only the reaps of `open` at capacity, the table's views and
    /// the supervisor, and [`evict_idle_sessions`](Self::evict_idle_sessions).
    pub fn session_sweeps(&self) -> u64 {
        self.sessions.sweeps()
    }

    /// Runs `handler` for one non-batch request (also a batch
    /// sub-request) with its resolved op, under a `dispatch` span; the
    /// handler answers through its [`Dispatched`], which counts the
    /// request from the handler's start. `None`: the request parked on a
    /// busy session, and its grant continuation answers it.
    fn dispatch(
        &self,
        op: Op,
        request: &Value,
        handler: impl FnOnce(&Self, &Fields<'_>, Dispatched) -> Option<ServiceResult<(Value, bool)>>,
    ) -> Option<ServiceResult<(Value, bool)>> {
        let mut span = self.tracer.span(trace::ambient(), Phase::Dispatch);
        span.set_op(op);
        let ctx = span.ctx();
        let dispatched = Dispatched {
            op,
            start: Instant::now(),
            span,
        };
        let fields = match Fields::of(request) {
            Ok(fields) => fields,
            Err(e) => return Some(dispatched.answer(self, Err(e))),
        };
        if !ctx.is_enabled() {
            return handler(self, &fields, dispatched);
        }
        trace::with_ctx(ctx, || handler(self, &fields, dispatched))
    }

    /// Answers a request no handler ran for — its context or op did not
    /// resolve — with `e`, counted like any other failed request.
    fn refuse(&self, e: ServiceError) -> ServiceResult<(Value, bool)> {
        self.note_outcome(None, Some(&e));
        Err(e)
    }

    /// Counts one request — every request that parses as JSON passes
    /// here once — in the window (as its op-latency sample when a handler
    /// ran for its op, `timed` from the handler's start), and on the
    /// current client's row, with its error, shed and deadline marks.
    fn note_outcome(&self, timed: Option<(Op, Instant)>, error: Option<&ServiceError>) {
        match timed {
            Some((op, start)) => {
                let elapsed = start.elapsed();
                self.op_latency.record(op, elapsed);
                if self.config.window_telemetry {
                    let micros = metrics::micros(elapsed);
                    self.obs
                        .window
                        .record_op(op, micros, trace::ambient().trace);
                }
            }
            None if self.config.window_telemetry => self.obs.window.record_request(),
            None => {}
        }
        match error {
            None => self.obs.clients.charge(|u| u.add(Usage::Requests, 1)),
            Some(e) => {
                let shed = e.code == crate::proto::ErrorCode::Overloaded;
                let expired = e.code == crate::proto::ErrorCode::DeadlineExceeded;
                if self.config.window_telemetry {
                    self.obs.window.record_error();
                    if shed {
                        self.obs.window.record_shed();
                    }
                }
                self.obs.clients.charge(|u| {
                    u.add(Usage::Requests, 1);
                    u.add(Usage::Errors, 1);
                    if shed {
                        u.add(Usage::Sheds, 1);
                    }
                    if expired {
                        u.add(Usage::DeadlineExpired, 1);
                    }
                });
            }
        }
    }

    /// The handler of every op but `batch`.
    fn dispatch_op(
        &self,
        fields: &Fields<'_>,
        dispatched: Dispatched,
    ) -> Option<ServiceResult<(Value, bool)>> {
        let op = dispatched.op;
        let outcome = match op {
            Op::Ping => Ok((Object::new().field("pong", true).build(), false)),
            // Top-level batches are routed on `Engine` before reaching
            // the core, so this arm only sees nested ones (which must be
            // refused: a batch job blocking on its own pool would
            // deadlock a width-1 pool).
            Op::Batch => Err(ServiceError::bad_request(
                "batch sub-requests cannot be batches",
            )),
            Op::Stats => self.op_stats(fields),
            Op::Health => Ok((self.health_value(), false)),
            Op::Trace => self.op_trace(fields),
            Op::Top => self.op_top(fields),
            Op::DebugDump => self.op_debug_dump(),
            Op::RegistryLoad => self.op_registry_load(fields),
            Op::RegistryList => self.op_registry_list(),
            Op::RegistryDrop => self.op_registry_drop(fields),
            Op::Verify => self.cached(op, fields, |e, f| e.op_verify(f)),
            Op::Overview => self.cached(op, fields, |e, f| e.op_overview(f)),
            Op::SessionOpen => self.op_session_open(fields),
            Op::SessionGetNext => return self.op_session_get_next(fields, dispatched),
            Op::SessionClose => self.op_session_close(fields),
            Op::SessionSave => self.with_store(|s| s.save_session(self, self.session_id(fields)?)),
            Op::SessionResume => {
                self.with_store(|s| s.resume_session(self, self.session_id(fields)?))
            }
            Op::Snapshot => self.with_store(|s| s.snapshot(self)),
            Op::Restore => self.with_store(|s| Ok(s.restore(self))),
        };
        Some(dispatched.answer(self, outcome))
    }

    /// Runs a persistence op against the store; without a `--data-dir`
    /// these ops answer `bad_request` rather than pretending to persist.
    fn with_store(
        &self,
        run: impl FnOnce(&crate::store::Store) -> ServiceResult<Value>,
    ) -> ServiceResult<(Value, bool)> {
        match self.store() {
            None => Err(ServiceError::bad_request(
                "persistence is disabled: the engine was started without a data dir \
                 (serve --data-dir PATH)",
            )),
            Some(store) => {
                let _io = self.time(Phase::StoreIo, None);
                run(store).map(|v| (v, false))
            }
        }
    }

    fn session_id(&self, fields: &Fields<'_>) -> ServiceResult<u64> {
        fields
            .u64("session")?
            .ok_or_else(|| ServiceError::bad_request("this op needs a 'session' id"))
    }

    /// Runs one batch sub-request under its (entered) context, on the
    /// submitter thread or a pool worker — the two differ only in the
    /// pool-queue wait a worker records from `queued_at`, its submit
    /// instant. A sub-request whose deadline passed before it started is
    /// shed at the dequeue seam, before any kernel work, and accounted
    /// like any other failed request. Returns its envelope, or `None`
    /// when it parked on a busy session. Nested batches are refused in
    /// [`dispatch_op`](Self::dispatch_op).
    fn run_sub(&self, op: Op, request: &Value, queued_at: Option<Instant>) -> Option<Value> {
        if let Some(queued_at) = queued_at {
            self.time_since(Phase::PoolQueue, op, queued_at).finish();
        }
        let id = request.get("id").cloned();
        if let Err(e) = self
            .guard
            .check_deadline(crate::guard::DeadlineStage::Dequeue)
        {
            return Some(envelope(id, self.refuse(e)));
        }
        unwind_safe(&id, || {
            self.dispatch(op, request, Self::dispatch_op)
                .map(|outcome| envelope(id.clone(), outcome))
        })
    }

    /// Reads an optional size parameter, applying the default and the
    /// server-side cap (a request beyond the cap is `bad_request`).
    fn capped_usize(
        &self,
        fields: &Fields<'_>,
        key: &str,
        default: usize,
        max: usize,
    ) -> ServiceResult<usize> {
        match fields.usize(key)? {
            None => Ok(default),
            Some(v) if v <= max => Ok(v),
            Some(v) => Err(ServiceError::bad_request(format!(
                "'{key}' = {v} exceeds the server limit ({max})"
            ))),
        }
    }

    fn samples_param(&self, fields: &Fields<'_>) -> ServiceResult<usize> {
        self.capped_usize(
            fields,
            "samples",
            self.config.default_samples,
            self.config.max_samples,
        )
    }

    // ------------------------------------------------------------------
    // Result cache

    /// Runs `compute` through the result LRU. The key embeds the dataset
    /// generation, so reloads invalidate implicitly; determinism of the
    /// compute path (fixed seeds) makes cached and fresh answers
    /// indistinguishable apart from latency. Concurrent misses on one key
    /// compute once: the others wait for that value and count as hits
    /// (see [`Self::probe_flight`]).
    fn cached(
        &self,
        op: Op,
        fields: &Fields<'_>,
        compute: impl FnOnce(&Self, &Fields<'_>) -> ServiceResult<Value>,
    ) -> ServiceResult<(Value, bool)> {
        let key = self.cache_key(op, fields)?;
        let generation = key.generation;
        let mut probe = self.time(Phase::CacheProbe, None);
        let lease = match self.probe_flight(&self.results, &key)? {
            Flight::Hit { value, waited } => {
                let waited = if waited { " after wait" } else { "" };
                self.count_hit(probe, || format!("hit g{generation}{waited}"));
                return Ok((value, true));
            }
            Flight::Lead(lease) => lease,
        };
        if probe.span.is_recording() {
            probe.span.set_detail(&format!("miss g{generation}"));
        }
        drop(probe);
        self.result_stats.miss();
        self.obs.clients.charge(|u| u.add(Usage::CacheMisses, 1));
        // The cold path is where admission control bites: a cache hit
        // above was served unconditionally (graceful degradation), a
        // miss is expensive kernel work the server may shed. Every early
        // return from here drops the lease, which fails the flight and
        // wakes its waiters to retry.
        self.admit_cold(op)?;
        // Chaos seam: a kernel-delay fault simulates a slow kernel, so
        // the deadline check below trips the way a real stall would.
        if let Some(delay) = self.faults.kernel_delay() {
            std::thread::sleep(delay);
        }
        self.guard
            .check_deadline(crate::guard::DeadlineStage::Kernel)?;
        // The kernel guard measures CPU once across the whole compute
        // and charges it to the current client, the error path included.
        let mut kernel = self.time(Phase::Kernel, Some(op));
        kernel.span.set_op(op);
        let result = compute(self, fields)?;
        if let Some(n) = result.get("samples").and_then(Value::as_u64) {
            kernel.span.set_samples(n);
        }
        kernel.finish();
        lease.land(&result);
        Ok((result, false))
    }

    /// Looks `key` up in a single-flight cache. A hit returns the cached
    /// value; a miss while another request computes the key waits for
    /// that compute and returns its value (`waited`); any other miss
    /// returns the [`Lease`] to compute the key under. A waiter whose
    /// leader fails probes again (and may lead the retry); a waiter whose
    /// deadline passes or whose connection closes gives up with an error.
    fn probe_flight<'c, C: LockClass, K: CacheKey, V: Clone>(
        &self,
        cache: &'c OrderedMutex<C, FlightCache<K, V>>,
        key: &K,
    ) -> ServiceResult<Flight<'c, C, K, V>> {
        loop {
            let rx = match cache.lock().probe(key) {
                Probe::Hit(value) => {
                    return Ok(Flight::Hit {
                        value,
                        waited: false,
                    })
                }
                Probe::Lead => {
                    return Ok(Flight::Lead(Lease {
                        cache,
                        key: Some(key.clone()),
                    }))
                }
                Probe::Wait(rx) => rx,
            };
            let ctx = RequestCtx::current();
            loop {
                let poll = ctx
                    .deadline
                    .map_or(FLIGHT_POLL, |d| d.remaining().min(FLIGHT_POLL));
                match rx.recv_timeout(poll) {
                    Ok(value) => {
                        return Ok(Flight::Hit {
                            value,
                            waited: true,
                        })
                    }
                    Err(RecvTimeoutError::Disconnected) => break, // leader failed: retry
                    Err(RecvTimeoutError::Timeout) => {
                        self.guard
                            .check_deadline(crate::guard::DeadlineStage::Kernel)?;
                        if ctx.is_cancelled() {
                            return Err(ServiceError::internal(
                                "request cancelled: its connection closed while it waited \
                                 for an identical request's computation",
                            ));
                        }
                    }
                }
            }
        }
    }

    /// Counts one result-cache hit, closing its probe span with
    /// `detail` (built only when traced).
    fn count_hit(&self, mut probe: PhaseGuard<'_>, detail: impl FnOnce() -> String) {
        if probe.span.is_recording() {
            probe.span.set_detail(&detail());
        }
        drop(probe);
        self.result_stats.hit();
        self.obs.clients.charge(|u| u.add(Usage::CacheHits, 1));
    }

    /// Submitter-side fast path for batch sub-requests: answers a
    /// cacheable op (`verify`/`overview`) straight from the result LRU
    /// without round-tripping it through the pool, dispatched and counted
    /// like any other request. Anything else — a miss, a non-cacheable
    /// op, a malformed request, an already-expired deadline — returns
    /// `None` and takes the pool path, where admission control and the
    /// dequeue deadline check apply unchanged (expiry is counted there,
    /// exactly once).
    pub(crate) fn try_cached_inline(&self, op: Op, request: &Value) -> Option<Value> {
        if !op.cacheable() {
            return None;
        }
        let fields = Fields::of(request).ok()?;
        if RequestCtx::current().deadline.is_some_and(|d| d.expired()) {
            return None;
        }
        let key = self.cache_key(op, &fields).ok()?;
        let generation = key.generation;
        let hit = self.results.lock().get(&key).cloned()?;
        // The probe span is recorded only on the hit path: a miss falls
        // through to `cached()`, which records its own probe — two
        // spans for one logical probe would double-count.
        let outcome = self.dispatch(op, request, |core, _, dispatched| {
            let probe = core.time(Phase::CacheProbe, None);
            core.count_hit(probe, || format!("hit g{generation} inline"));
            Some(dispatched.answer(core, Ok((hit, true))))
        })?;
        Some(envelope(request.get("id").cloned(), outcome))
    }

    /// Classifies one batch sub-request for the submitter-side inline
    /// fast path (see [`crate::guard::classify_sub`]): `Inline` means
    /// the pool round-trip costs more than the work itself.
    pub(crate) fn classify_inline(&self, op: Op, request: &Value) -> crate::guard::SubCost {
        let Ok(fields) = Fields::of(request) else {
            return crate::guard::SubCost::Pool;
        };
        let signals = self.inline_signals(op, &fields);
        crate::guard::classify_sub(op, signals.as_ref())
    }

    /// Gathers the cost classifier's signals for a cacheable sub-request
    /// (`verify`/`overview`). Any parse or registry failure returns
    /// `None` — the pool path owns error reporting, so a malformed or
    /// ghost-dataset request must classify `Pool` and fail there.
    fn inline_signals(&self, op: Op, fields: &Fields<'_>) -> Option<crate::guard::InlineSignals> {
        if !op.cacheable() {
            return None;
        }
        let entry = self
            .registry
            .get(fields.required_str("dataset").ok()?)
            .ok()?;
        let roi = Self::parse_roi(fields).ok()?;
        if fields.usize("tau").ok()?.unwrap_or(0) > 0 {
            // τ-tolerant verification lists up to n²/2 exchanging
            // pairs, O(n log n + E) — not tiny; the pool keeps it.
            return None;
        }
        let samples = self.samples_param(fields).ok()?;
        let dim = entry.dataset.dim();
        // Mirrors `op_verify`'s kernel selection: 2-D is always exact,
        // 3-D without an ROI takes the exact spherical-polygon area (one
        // clip, linear in the rows), everything else is Monte-Carlo. `overview` is exact only in 2-D, which
        // the warm-batch requirement below already excludes.
        let exact_kernel = op == Op::Verify && (dim == 2 || (dim == 3 && roi.is_none()));
        let sample_batch_warm = if exact_kernel || dim == 2 {
            false
        } else {
            let seed = fields.u64("seed").ok()?.unwrap_or(self.config.default_seed);
            let key = Self::batch_key(
                &entry.name,
                entry.generation,
                &Self::roi_key(&roi),
                samples,
                seed,
            );
            self.samples.lock().contains(&key)
        };
        Some(crate::guard::InlineSignals {
            exact_kernel,
            rows: entry.dataset.len(),
            samples,
            sample_batch_warm,
        })
    }

    /// Canonical cache key: op, dataset identity (name + generation), ROI,
    /// and the op's parameters.
    fn cache_key(&self, op: Op, fields: &Fields<'_>) -> ServiceResult<ResultKey> {
        let name = fields.required_str("dataset")?;
        let entry = self.registry.get(name)?;
        let roi = Self::parse_roi(fields)?;
        Ok(ResultKey {
            op,
            dataset: name.to_string(),
            generation: entry.generation,
            roi: roi.is_some().then(|| Self::roi_key(&roi)),
            weights: fields
                .f64_array("weights")?
                .map(|w| w.into_iter().map(f64::to_bits).collect()),
            samples: self.samples_param(fields)?,
            seed: fields.u64("seed")?.unwrap_or(self.config.default_seed),
            tau: fields.usize("tau")?.unwrap_or(0),
        })
    }

    fn roi_key(roi: &Option<RoiSpec>) -> String {
        match roi {
            None => "full".to_string(),
            Some(RoiSpec { around, theta }) => format!("cone({around:?},{theta:.15e})"),
        }
    }

    // ------------------------------------------------------------------
    // Shared Monte-Carlo sample batches

    /// The sample cache key of a batch: the one key both
    /// [`Self::sample_batch`] and the warm-batch probe of
    /// [`Self::inline_signals`] read.
    fn batch_key(dataset: &str, generation: u64, roi_key: &str, n: usize, seed: u64) -> String {
        format!("{dataset}|g{generation}|{roi_key}|n{n}|r{seed}")
    }

    /// A sample batch for `(dataset, roi, n, seed)`, drawn once and shared
    /// across every query and session on that dataset/ROI. Concurrent
    /// misses draw it once (see [`Self::probe_flight`]). The drawing
    /// request checks its deadline every `KERNEL_CHUNK` samples; an
    /// abandoned draw caches nothing, and its waiters retry. A waiter
    /// fails on its own deadline or a closed connection.
    fn sample_batch(
        &self,
        dataset: &str,
        generation: u64,
        roi: &RegionOfInterest,
        roi_key: &str,
        n: usize,
        seed: u64,
    ) -> ServiceResult<Arc<SampleBuffer>> {
        let key = Self::batch_key(dataset, generation, roi_key, n, seed);
        let lease = match self.probe_flight(&self.samples, &key)? {
            Flight::Hit { value, .. } => {
                self.sample_stats.hit();
                return Ok(value);
            }
            Flight::Lead(lease) => lease,
        };
        self.sample_stats.miss();
        let mut rng = StdRng::seed_from_u64(seed);
        let sampler = roi.sampler();
        let buffer = SampleBuffer::generate_checked(
            &mut rng,
            n,
            KERNEL_CHUNK,
            || {
                self.guard
                    .check_deadline(crate::guard::DeadlineStage::Kernel)
            },
            |r| sampler.sample(r),
        )?;
        let buffer = Arc::new(buffer);
        lease.land(&buffer);
        Ok(buffer)
    }

    // ------------------------------------------------------------------
    // Regions of interest

    fn parse_roi(fields: &Fields<'_>) -> ServiceResult<Option<RoiSpec>> {
        let Some(roi) = fields.raw("roi") else {
            return Ok(None);
        };
        let roi =
            Fields::of(roi).map_err(|_| ServiceError::bad_request("'roi' must be an object"))?;
        let around = roi
            .f64_array("around")?
            .ok_or_else(|| ServiceError::bad_request("'roi' needs an 'around' ray"))?;
        let theta = match (roi.f64("theta")?, roi.f64("cosine")?) {
            (Some(t), None) => t,
            (None, Some(c)) => {
                if !(0.0..1.0).contains(&c) {
                    return Err(ServiceError::bad_request("'roi.cosine' must lie in [0, 1)"));
                }
                c.acos()
            }
            (None, None) => {
                return Err(ServiceError::bad_request("'roi' needs 'theta' or 'cosine'"))
            }
            (Some(_), Some(_)) => {
                return Err(ServiceError::bad_request(
                    "'roi' takes either 'theta' or 'cosine', not both",
                ))
            }
        };
        if !(theta > 0.0 && theta.is_finite()) {
            return Err(ServiceError::bad_request(
                "'roi' opening angle must be positive",
            ));
        }
        // Reject rays the cone sampler would panic on (client input must
        // never be able to unwind a worker thread).
        if around.iter().any(|x| !x.is_finite()) || around.iter().all(|&x| x == 0.0) {
            return Err(ServiceError::bad_request(
                "'roi.around' must be a finite, non-zero ray",
            ));
        }
        Ok(Some(RoiSpec { around, theta }))
    }

    fn roi_for(spec: &Option<RoiSpec>, d: usize) -> ServiceResult<RegionOfInterest> {
        match spec {
            None => Ok(RegionOfInterest::full(d)),
            Some(RoiSpec { around, theta }) => {
                if around.len() != d {
                    return Err(ServiceError::bad_request(format!(
                        "'roi.around' has {} weights, dataset has {d}",
                        around.len()
                    )));
                }
                if *theta > std::f64::consts::FRAC_PI_2 + 1e-12 {
                    return Err(ServiceError::bad_request("'roi.theta' must be at most π/2"));
                }
                Ok(RegionOfInterest::cone(around, *theta))
            }
        }
    }

    fn interval_for(spec: &Option<RoiSpec>) -> ServiceResult<AngleInterval> {
        match spec {
            None => Ok(AngleInterval::full()),
            Some(RoiSpec { around, theta }) => {
                if around.len() != 2 {
                    return Err(ServiceError::bad_request(
                        "2-D region of interest needs a 2-weight 'around' ray",
                    ));
                }
                AngleInterval::around(around, *theta)
                    .map_err(|e| ServiceError::bad_request(e.to_string()))
            }
        }
    }

    // ------------------------------------------------------------------
    // Ops

    fn op_stats(&self, fields: &Fields<'_>) -> ServiceResult<(Value, bool)> {
        match fields.str("format")? {
            None | Some("json") => {}
            // Prometheus text exposition — same numbers, scrape-ready
            // (also served raw over `serve --metrics-port`).
            Some("prometheus") => {
                return Ok((
                    Object::new()
                        .field("format", "prometheus")
                        .field("text", self.prometheus_text())
                        .build(),
                    false,
                ))
            }
            Some(other) => {
                return Err(ServiceError::bad_request(format!(
                    "unknown stats format '{other}' (json | prometheus)"
                )))
            }
        }
        Ok((metrics::json(|s| self.export(s)), false))
    }

    /// The one metric walk behind `stats`, the Prometheus exposition and
    /// the README metrics table (see [`crate::metrics`]).
    fn export(&self, s: &mut Sink) {
        // The table's views count no expired session.
        self.sessions.reap();
        s.gauge(
            "uptime_seconds",
            "srank_uptime_seconds",
            "Engine uptime.",
            self.started.elapsed().as_secs_f64(),
        );
        s.gauge(
            "datasets",
            "srank_datasets",
            "Registered datasets.",
            self.registry.list().len(),
        );
        let sessions: Vec<Value> = self
            .sessions
            .list()
            .into_iter()
            .map(|(id, dataset, kind, returned, queue_high_water)| {
                Object::new()
                    .field("session", id)
                    .field("dataset", dataset)
                    .field("kind", kind)
                    .field("returned", returned)
                    .field("queue_high_water", queue_high_water)
                    .build()
            })
            .collect();
        s.info("sessions", sessions);
        s.block("session_table", |s| self.export_session_table(s));
        let q = self.sessions.queue_counters();
        s.block("session_queue", |s| {
            s.info("per_session_cap", q.per_session_cap);
            s.gauge(
                "depth",
                "srank_session_queue_depth",
                "Waiters currently parked.",
                q.depth,
            );
            s.gauge(
                "max_depth",
                "srank_session_queue_max_depth",
                "High-water mark of parked waiters.",
                q.max_depth,
            );
            s.counter(
                "queued_total",
                "srank_session_queue_queued_total",
                "Requests ever parked on a busy session.",
                q.queued_total,
            );
            s.counter(
                "granted",
                "srank_session_queue_granted_total",
                "Parked requests granted their session.",
                q.granted,
            );
            s.counter(
                "cancelled",
                "srank_session_queue_cancelled_total",
                "Parked requests dropped because their connection died.",
                q.cancelled,
            );
            s.counter(
                "fair_grants",
                "srank_session_queue_fair_grants_total",
                "Grants where a different client overtook a repeat client.",
                q.fair_grants,
            );
            s.counter(
                "wait_micros",
                "srank_session_queue_wait_micros_total",
                "Cumulative park-to-grant wait.",
                q.wait_micros,
            );
            // Park-to-grant wait percentiles (histogram bucket upper
            // bounds); absent until at least one waiter has been granted.
            for (key, v) in [
                ("wait_p50_micros", q.wait_p50_micros),
                ("wait_p90_micros", q.wait_p90_micros),
                ("wait_p99_micros", q.wait_p99_micros),
            ] {
                if let Some(v) = v {
                    s.info(key, v);
                }
            }
        });
        let result_entries = self.results.lock().len();
        let sample_entries = self.samples.lock().len();
        let series = [
            "srank_result_cache_hits_total",
            "srank_result_cache_misses_total",
            "srank_result_cache_entries",
        ];
        s.block("result_cache", |s| {
            self.result_stats.export(s, result_entries, series)
        });
        let series = [
            "srank_sample_cache_hits_total",
            "srank_sample_cache_misses_total",
            "srank_sample_cache_entries",
        ];
        s.block("sample_cache", |s| {
            self.sample_stats.export(s, sample_entries, series)
        });
        s.block("pool", |s| self.pool_metrics.export(s, self.pool_width));
        self.op_latency.export(s);
        self.phases.export(s);
        self.obs.window.export(s);
        s.block("clients", |s| self.obs.clients.export(s));
        s.block("trace", |s| self.tracer.export(s));
        s.block("guard", |s| self.guard.export(s));
        s.block("watchdog", |s| self.obs.watchdog.export(s));
        if self.faults.armed() {
            s.info("faults", self.faults.stats_value());
        }
        if let Some(store) = self.store() {
            s.block("store", |s| store.export(s));
        }
    }

    /// The `session_table` block: `busy_conflicts` (deprecated to
    /// refusals-only in an earlier release) is gone from the wire;
    /// `refusals` is the same counter under its accurate name.
    fn export_session_table(&self, s: &mut Sink) {
        let (open, checked_out, refusals) = self.sessions.counters();
        s.gauge("open", "srank_sessions_open", "Open sessions.", open);
        s.gauge(
            "checked_out",
            "srank_sessions_checked_out",
            "Sessions currently executing a request.",
            checked_out,
        );
        s.counter(
            "refusals",
            "srank_session_refusals_total",
            "Busy refusals (queue overflow or queueing disabled).",
            refusals,
        );
    }

    /// The `(stats path, Prometheus series, kind)` rows of every series
    /// this engine exposes, in `stats` order — the README metrics table.
    pub fn describe_metrics(&self) -> Vec<metrics::Row> {
        metrics::describe(|s| self.export(s))
    }

    /// The `health` op / `/healthz` payload: a coarse status —
    /// `"ok"`, `"degraded"` (persistence failing), or `"overloaded"`
    /// (admission control shed within the last few seconds) — plus the
    /// shed, deadline, and store-failure counters an operator pages on.
    pub fn health_value(&self) -> Value {
        let store_failing = self
            .store()
            .is_some_and(|s| s.counters.consecutive_failures.load(Ordering::Relaxed) > 0);
        // A data dir that failed to open at boot means the operator asked
        // for persistence and is not getting it.
        let persistence_degraded = self.config.data_dir.is_some() && self.store.is_none();
        // The watchdog's degraded latch joins the persistence checks: a
        // stalled worker or wedged journal degrades `/healthz` even while
        // the store itself still answers.
        let watchdog_degraded = self.obs.watchdog.is_degraded();
        let status = if self.guard.recently_shed() {
            "overloaded"
        } else if store_failing || persistence_degraded || watchdog_degraded {
            "degraded"
        } else {
            "ok"
        };
        let store_block = match self.store() {
            Some(store) => store.health_value(),
            None => Object::new()
                .field("configured", self.config.data_dir.is_some())
                .field("active", false)
                .build(),
        };
        Object::new()
            .field("status", status)
            .field("uptime_seconds", self.started.elapsed().as_secs_f64())
            .field("shed", metrics::json(|s| self.guard.export(s)))
            .field("store", store_block)
            .field("watchdog", metrics::json(|s| self.obs.watchdog.export(s)))
            .field("faults", self.faults.stats_value())
            .build()
    }

    /// Renders every series the `stats` op reports as Prometheus text
    /// exposition format (version 0.0.4) — the payload of
    /// `stats {"format": "prometheus"}` and of the `--metrics-port`
    /// one-shot HTTP responder.
    pub fn prometheus_text(&self) -> String {
        metrics::prometheus(|s| self.export(s))
    }

    /// The `trace` op: recent sampled request traces rendered as span
    /// trees, most recently finished first. Filters: `filter_op` keeps
    /// traces whose root op matches, `min_micros` keeps traces whose
    /// root lasted at least that long, `session` keeps traces touching
    /// that session id; `limit` caps the returned count (default 8,
    /// max 64).
    fn op_trace(&self, fields: &Fields<'_>) -> ServiceResult<(Value, bool)> {
        let filter_op = match fields.str("filter_op")? {
            None => None,
            Some(name) => Some(
                Op::parse(name)
                    .ok_or_else(|| not_one_of("filter_op", name, &Op::ALL.map(Op::name)))?,
            ),
        };
        let min_micros = fields.u64("min_micros")?.unwrap_or(0);
        let session = fields.u64("session")?;
        let limit = fields.usize("limit")?.unwrap_or(8).min(64);
        Ok((
            self.tracer.query(filter_op, min_micros, session, limit),
            false,
        ))
    }

    /// The `top` op: the per-client resource-accounting table, sorted
    /// by `sort_by` (default kernel CPU) descending and truncated to
    /// `limit` rows — the payload behind `srank top`.
    fn op_top(&self, fields: &Fields<'_>) -> ServiceResult<(Value, bool)> {
        let sort_by = fields.str("sort_by")?.unwrap_or("kernel_cpu_micros");
        let limit = fields.usize("limit")?.unwrap_or(16).min(256);
        Ok((self.obs.clients.top_value(sort_by, limit)?, false))
    }

    /// The `debug.dump` op: a one-shot self-diagnostic — watchdog
    /// findings and busy workers, pool and session-queue state, cache
    /// occupancy, the hottest clients, and the engine's lock hierarchy
    /// in rank order. Designed to be cheap and safe to call against a
    /// wedged server (every block reads atomics or takes one short
    /// lock at a time, in rank order).
    fn op_debug_dump(&self) -> ServiceResult<(Value, bool)> {
        self.sessions.reap();
        let queue = self.sessions.queue_counters();
        // Each length is read under its own statement, so no cache guard
        // outlives its read.
        let result_cache_entries = self.results.lock().len();
        let sample_cache_entries = self.samples.lock().len();
        let lock_ranks: Vec<Value> = crate::lockorder::rank::TABLE
            .iter()
            .map(|&(class, rank)| {
                Object::new()
                    .field("class", class)
                    .field("rank", u64::from(rank))
                    .build()
            })
            .collect();
        Ok((
            Object::new()
                .field("watchdog", metrics::json(|s| self.obs.watchdog.export(s)))
                .field(
                    "pool",
                    metrics::json(|s| self.pool_metrics.export(s, self.pool_width)),
                )
                .field(
                    "session_table",
                    metrics::json(|s| self.export_session_table(s)),
                )
                .field("session_queue_depth", queue.depth)
                .field("sessions", self.sessions.debug_value())
                .field("result_cache_entries", result_cache_entries)
                .field("sample_cache_entries", sample_cache_entries)
                .field(
                    "clients",
                    self.obs.clients.top_value("kernel_cpu_micros", 8)?,
                )
                .field("guard", metrics::json(|s| self.guard.export(s)))
                .field("trace", metrics::json(|s| self.tracer.export(s)))
                .field("lock_ranks", Value::Array(lock_ranks))
                .build(),
            false,
        ))
    }

    fn op_registry_load(&self, fields: &Fields<'_>) -> ServiceResult<(Value, bool)> {
        let name = fields.required_str("dataset")?;
        let source = if let Some(builtin) = fields.str("builtin")? {
            DatasetSource::Builtin {
                family: builtin.to_string(),
                n: self.capped_usize(fields, "n", 100, self.config.max_rows)?,
                d: self.capped_usize(fields, "d", 0, self.config.max_dim)?,
                seed: fields.u64("seed")?.unwrap_or(self.config.default_seed),
            }
        } else if let Some(path) = fields.str("csv")? {
            let names = |key: &str| -> ServiceResult<Vec<String>> {
                Ok(match fields.raw(key) {
                    None => Vec::new(),
                    Some(v) => v
                        .as_array()
                        .ok_or_else(|| {
                            ServiceError::bad_request(format!(
                                "field '{key}' must be an array of column names"
                            ))
                        })?
                        .iter()
                        .map(|x| {
                            x.as_str().map(str::to_string).ok_or_else(|| {
                                ServiceError::bad_request(format!(
                                    "field '{key}' must be an array of column names"
                                ))
                            })
                        })
                        .collect::<ServiceResult<_>>()?,
                })
            };
            DatasetSource::Csv {
                path: path.to_string(),
                higher: names("higher")?,
                lower: names("lower")?,
            }
        } else {
            return Err(ServiceError::bad_request(
                "registry.load needs 'builtin' or 'csv'",
            ));
        };
        let entry = self.registry.load(name, &source)?;
        Ok((
            Object::new()
                .field("dataset", entry.name.as_str())
                .field("rows", entry.dataset.len())
                .field("dim", entry.dataset.dim())
                .field("generation", entry.generation)
                .field("source", entry.source.as_str())
                .build(),
            false,
        ))
    }

    fn op_registry_list(&self) -> ServiceResult<(Value, bool)> {
        let datasets: Vec<Value> = self
            .registry
            .list()
            .into_iter()
            .map(|e| {
                Object::new()
                    .field("dataset", e.name.as_str())
                    .field("rows", e.dataset.len())
                    .field("dim", e.dataset.dim())
                    .field("generation", e.generation)
                    .field("source", e.source.as_str())
                    .build()
            })
            .collect();
        Ok((Object::new().field("datasets", datasets).build(), false))
    }

    fn op_registry_drop(&self, fields: &Fields<'_>) -> ServiceResult<(Value, bool)> {
        let name = fields.required_str("dataset")?;
        let dropped = self.registry.drop_entry(name);
        Ok((Object::new().field("dropped", dropped).build(), false))
    }

    /// Problem 1 — stability verification of the ranking induced by
    /// `weights`: exact in 2-D (interval) and 3-D full-orthant (the
    /// spherical-polygon area; the wire keeps the `exact-girard-3d` label),
    /// Monte-Carlo elsewhere. τ-tolerant verification (`tau` > 0, 2-D
    /// only, non-negative weights) is §8's mass of all rankings within
    /// Kendall-tau distance τ: one angle interval around the weights
    /// ([`srank_core::tau_stability_2d`]), answered with `tau` beside the
    /// usual fields.
    fn op_verify(&self, fields: &Fields<'_>) -> ServiceResult<Value> {
        let entry = self.registry.get(fields.required_str("dataset")?)?;
        let data = &*entry.dataset;
        let weights = fields
            .f64_array("weights")?
            .ok_or_else(|| ServiceError::bad_request("verify needs 'weights'"))?;
        if weights.len() != data.dim() {
            return Err(ServiceError::bad_request(format!(
                "'weights' has {} entries, dataset has {}",
                weights.len(),
                data.dim()
            )));
        }
        data.check_weights(&weights)
            .map_err(|e| ServiceError::bad_request(e.to_string()))?;
        let roi = Self::parse_roi(fields)?;
        let tau = fields.usize("tau")?.unwrap_or(0);
        // The full ranking, for the branches that read its adjacent
        // pairs; the τ branch reads only its head.
        let rank = || {
            data.rank(&weights)
                .map_err(|e| ServiceError::bad_request(e.to_string()))
        };
        let (stability, method, samples_used, ranking) = match data.dim() {
            2 if tau > 0 => {
                let interval = Self::interval_for(&roi)?;
                let s = srank_core::tau_stability_2d(data, &weights, interval, tau)
                    .map_err(|e| ServiceError::bad_request(e.to_string()))?;
                (s, "exact-2d-tau", None, None)
            }
            _ if tau > 0 => {
                return Err(ServiceError::bad_request(
                    "tau-tolerant verification is exact-2D only; omit 'tau' for d > 2",
                ))
            }
            2 => {
                let ranking = rank()?;
                let interval = Self::interval_for(&roi)?;
                let v = stability_verify_2d(data, &ranking, interval)
                    .map_err(|e| ServiceError::bad_request(e.to_string()))?;
                (
                    v.map_or(0.0, |v| v.stability),
                    "exact-2d",
                    None,
                    Some(ranking),
                )
            }
            3 if roi.is_none() => {
                let ranking = rank()?;
                let v = stability_verify_3d_exact(data, &ranking)
                    .map_err(|e| ServiceError::bad_request(e.to_string()))?;
                let stability = v.map_or(0.0, |v| v.stability);
                (stability, "exact-girard-3d", None, Some(ranking))
            }
            d => {
                let ranking = rank()?;
                let region = Self::roi_for(&roi, d)?;
                let n = self.samples_param(fields)?;
                let seed = fields.u64("seed")?.unwrap_or(self.config.default_seed);
                let batch = self.sample_batch(
                    &entry.name,
                    entry.generation,
                    &region,
                    &Self::roi_key(&roi),
                    n,
                    seed,
                )?;
                let stability = self.verify_md_chunked(data, &ranking, &region, &batch)?;
                (stability, "monte-carlo", Some(n), Some(ranking))
            }
        };
        let head = match &ranking {
            Some(ranking) => ranking.order().iter().take(10).copied().collect(),
            None => top_head(data, &weights, 10),
        };
        let mut out = Object::new()
            .field("stability", stability)
            .field("method", method)
            .field("items", data.len())
            .field("head", head.as_slice());
        if tau > 0 {
            out = out.field("tau", tau);
        }
        if let Some(n) = samples_used {
            out = out.field("samples", n);
        }
        Ok(out.build())
    }

    /// The Monte-Carlo verify oracle: on a batch of at least
    /// `INDEX_MIN_SAMPLES`, the batch's grid index (built by the first
    /// verify on the batch) leaves only the samples of cells the region
    /// can reach to test; a smaller batch is sieved whole. The deadline is
    /// checked every `KERNEL_CHUNK` samples of each index-build pass,
    /// after the build, and every `KERNEL_CHUNK` samples tested, so a
    /// huge-sample `verify` cannot hold a worker past its caller's
    /// patience (the batch draw and the session sampling path make the
    /// same promise). The region is built for `roi`; the count is
    /// exact, so the estimate is bit-identical to the sieve of
    /// `stability_verify_md`.
    fn verify_md_chunked(
        &self,
        data: &Dataset,
        ranking: &srank_core::Ranking,
        roi: &RegionOfInterest,
        samples: &SampleBuffer,
    ) -> ServiceResult<f64> {
        let Some(region) = ranking_region_in(data, ranking, roi)
            .map_err(|e| ServiceError::bad_request(e.to_string()))?
        else {
            return Ok(0.0);
        };
        let n = samples.len();
        if n == 0 {
            return Ok(0.0);
        }
        let inside =
            srank_sample::oracle::count_inside_chunked(&region, samples, KERNEL_CHUNK, || {
                self.guard
                    .check_deadline(crate::guard::DeadlineStage::Kernel)
            })?;
        Ok(inside as f64 / n as f64)
    }

    /// The §1 "overview" promise: the stability distribution over all
    /// feasible rankings of the region of interest, with coverage counts.
    /// For d ≥ 3 it is the histogram of distinct rankings in the cached
    /// sample batch ([`StabilityOverview::from_samples`]).
    fn op_overview(&self, fields: &Fields<'_>) -> ServiceResult<Value> {
        let entry = self.registry.get(fields.required_str("dataset")?)?;
        let data = &*entry.dataset;
        let roi = Self::parse_roi(fields)?;
        let (overview, method) = if data.dim() == 2 {
            let interval = Self::interval_for(&roi)?;
            let e = Enumerator2D::new(data, interval)
                .map_err(|e| ServiceError::bad_request(e.to_string()))?;
            let s: Vec<f64> = e.regions().iter().map(|r| r.stability).collect();
            let overview = StabilityOverview::from_stabilities(s)
                .map_err(|e| ServiceError::internal(e.to_string()))?;
            (overview, "exact-2d")
        } else {
            let region = Self::roi_for(&roi, data.dim())?;
            let n = self.samples_param(fields)?;
            let seed = fields.u64("seed")?.unwrap_or(self.config.default_seed);
            let batch = self.sample_batch(
                &entry.name,
                entry.generation,
                &region,
                &Self::roi_key(&roi),
                n,
                seed,
            )?;
            let overview = StabilityOverview::from_samples(data, &batch)
                .map_err(|e| ServiceError::bad_request(e.to_string()))?;
            (overview, "monte-carlo")
        };
        let coverage = [0.25, 0.5, 0.75, 0.9, 0.99]
            .iter()
            .map(|&f| {
                let v = overview
                    .rankings_to_cover(f)
                    .map_or(Value::Null, |n| Value::Number(n as f64));
                (format!("{}", (f * 100.0).round() as u64), v)
            })
            .collect::<Vec<_>>();
        Ok(Object::new()
            .field("rankings", overview.len())
            .field("effective_rankings", overview.effective_rankings())
            .field("total_mass", overview.total_mass())
            .field("coverage", Value::Object(coverage))
            .field("method", method)
            .build())
    }

    fn op_session_open(&self, fields: &Fields<'_>) -> ServiceResult<(Value, bool)> {
        // Opening builds an enumerator (hyperplane derivation, sample
        // draws) — expensive cold work admission control may shed.
        self.admit_cold(Op::SessionOpen)?;
        let entry = self.registry.get(fields.required_str("dataset")?)?;
        let data = &*entry.dataset;
        let kind = fields.str("kind")?.unwrap_or("auto");
        let roi = Self::parse_roi(fields)?;
        let seed = fields.u64("seed")?.unwrap_or(self.config.default_seed);
        let kind = match kind {
            "auto" if data.dim() == 2 => "sweep2d",
            "auto" => "md",
            k => k,
        };
        let state = match kind {
            "sweep2d" => {
                let interval = Self::interval_for(&roi)?;
                let e = Enumerator2D::new(data, interval)
                    .map_err(|e| ServiceError::bad_request(e.to_string()))?;
                SessionState::Sweep2D(e.into_state())
            }
            "md" => {
                let region = Self::roi_for(&roi, data.dim())?;
                let n = self.samples_param(fields)?;
                let batch = self.sample_batch(
                    &entry.name,
                    entry.generation,
                    &region,
                    &Self::roi_key(&roi),
                    n,
                    seed,
                )?;
                let e = MdEnumerator::with_samples(data, &region, (*batch).clone())
                    .map_err(|e| ServiceError::bad_request(e.to_string()))?;
                SessionState::Md(Box::new(e.into_state()))
            }
            "randomized" => {
                let region = Self::roi_for(&roi, data.dim())?;
                let scope = match (fields.str("scope")?.unwrap_or("full"), fields.usize("k")?) {
                    ("full", _) => RankingScope::Full,
                    ("top-k-ranked", Some(k)) => RankingScope::TopKRanked(k),
                    ("top-k-set", Some(k)) => RankingScope::TopKSet(k),
                    ("top-k-ranked" | "top-k-set", None) => {
                        return Err(ServiceError::bad_request("top-k scopes need a 'k' field"))
                    }
                    (other, _) => {
                        return Err(ServiceError::bad_request(format!(
                            "unknown scope '{other}' (full | top-k-ranked | top-k-set)"
                        )))
                    }
                };
                let alpha = fields.f64("alpha")?.unwrap_or(0.05);
                let budget = self.capped_usize(fields, "budget", 1000, self.config.max_samples)?;
                let mut e = RandomizedEnumerator::new(data, &region, scope, alpha)
                    .map_err(|e| ServiceError::bad_request(e.to_string()))?;
                // `prime: true` warm-starts the accumulator from the shared
                // Monte-Carlo sample batch for this dataset/ROI — cached
                // samples feed the interning table directly, so a session
                // opens with `samples` observations already counted and no
                // RNG consumed (the session stream starts fresh).
                let primed = fields.bool("prime")?.unwrap_or(false);
                if primed {
                    let n = self.samples_param(fields)?;
                    let batch = self.sample_batch(
                        &entry.name,
                        entry.generation,
                        &region,
                        &Self::roi_key(&roi),
                        n,
                        seed,
                    )?;
                    e.observe_samples(&batch)
                        .map_err(|e| ServiceError::bad_request(e.to_string()))?;
                }
                // The shared batch is drawn from StdRng(seed); a primed
                // session continuing from StdRng(seed) would replay that
                // exact stream and double-count every primed observation.
                // Primed sessions therefore continue on a derived stream —
                // still a pure function of the open parameters, so
                // identical opens still replay identically.
                let session_seed = if primed {
                    seed ^ 0x9e37_79b9_7f4a_7c15
                } else {
                    seed
                };
                SessionState::Randomized {
                    state: Box::new(e.into_state()),
                    rng: StdRng::seed_from_u64(session_seed),
                    budget,
                }
            }
            other => {
                return Err(ServiceError::bad_request(format!(
                    "unknown session kind '{other}' (sweep2d | md | randomized | auto)"
                )))
            }
        };
        let kind_name = state.kind();
        let id = self
            .sessions
            .open(entry.name.clone(), entry.generation, state)?;
        Ok((
            Object::new()
                .field("session", id)
                .field("dataset", entry.name.as_str())
                .field("kind", kind_name)
                .build(),
            false,
        ))
    }

    /// Validates `session.get_next` parameters. Every fallible
    /// request-parameter read happens before the session state is
    /// touched, so a bad_request can never corrupt a session.
    fn parse_get_next(&self, fields: &Fields<'_>) -> ServiceResult<GetNextParams> {
        let session = fields
            .u64("session")?
            .ok_or_else(|| ServiceError::bad_request("session.get_next needs 'session'"))?;
        let head_cap = fields.usize("head")?.unwrap_or(10);
        let budget = match fields.usize("budget")? {
            Some(v) if v > self.config.max_samples => {
                return Err(ServiceError::bad_request(format!(
                    "'budget' = {v} exceeds the server limit ({})",
                    self.config.max_samples
                )))
            }
            other => other,
        };
        Ok(GetNextParams {
            session,
            head_cap,
            budget,
        })
    }

    /// `session.get_next`, on every path. A free session is advanced
    /// here. A busy one parks the request on its dispatch queue, and the
    /// grant runs [`resume_get_next`](Self::resume_get_next): a transport
    /// thread blocks on a one-slot channel for the grant and resumes
    /// itself (its client waits on this very response anyway, and the
    /// queue ahead is bounded); a pooled batch sub-request — its
    /// [`PoolPark`] rides the context — resumes as a pool job and
    /// returns `None` here, freeing its worker meanwhile.
    fn op_session_get_next(
        &self,
        fields: &Fields<'_>,
        dispatched: Dispatched,
    ) -> Option<ServiceResult<(Value, bool)>> {
        // Admission runs before the checkout: a shed advance never
        // occupies the session or its queue.
        let params = match self
            .parse_get_next(fields)
            .and_then(|params| self.admit_cold(Op::SessionGetNext).map(|()| params))
        {
            Ok(params) => params,
            Err(e) => return Some(dispatched.answer(self, Err(e))),
        };
        // The whole request context parks with the waiter: its cancel
        // flag and fairness identity ride the waiter (grant selection may
        // let a different tagged client overtake a repeat client at the
        // front of this session's dispatch queue), and a pool
        // continuation runs under it, in the same trace and on the same
        // client row.
        let ctx = RequestCtx::current();
        let mut held = Some(dispatched);
        let mut grant_rx = None;
        let checked = self.sessions.check_out_or_queue(params.session, || {
            let (cancel, client) = (ctx.cancel.clone(), ctx.client_hash());
            if let Some(park) = ctx.park.clone() {
                if let Some(dispatched) = held.take() {
                    let resume = move |grant| park.resume(ctx, params, grant, dispatched);
                    return Waiter::new(resume, cancel, client);
                }
            }
            let (tx, rx) = std::sync::mpsc::sync_channel(1);
            grant_rx = Some(rx);
            Waiter::new(move |grant| drop(tx.send(grant)), cancel, client)
        });
        // Parked on the pool: the continuation holds the request now.
        let dispatched = held?;
        let outcome = match checked {
            Ok(CheckOut::Ready(checked)) => self
                .advance_session(checked, params.head_cap, params.budget)
                .map(|v| (v, false)),
            // The transport park: block for the grant, then resume here.
            Ok(CheckOut::Queued) => match grant_rx.and_then(|rx| rx.recv().ok()) {
                Some(grant) => return Some(self.resume_get_next(params, grant, dispatched)),
                None => Err(ServiceError::internal("session grant lost")),
            },
            Err(e) => Err(e),
        };
        Some(dispatched.answer(self, outcome))
    }

    /// The grant continuation of a parked `session.get_next`, on either
    /// park: records the park → grant wait from the grant's own instants
    /// (span, tagged with the session, and histogram), re-checks the
    /// deadline (an expired request drops the session, which hands it to
    /// the next waiter), advances the session, and answers the request.
    fn resume_get_next(
        &self,
        params: GetNextParams,
        grant: Grant,
        dispatched: Dispatched,
    ) -> ServiceResult<(Value, bool)> {
        let mut wait = self.time_since(Phase::SessionWait, Op::SessionGetNext, grant.parked);
        wait.span.set_session(params.session);
        wait.finish_at(grant.granted);
        let outcome = grant.session.and_then(|session| {
            let checked = self.sessions.adopt(session);
            self.guard
                .check_deadline(crate::guard::DeadlineStage::Grant)?;
            self.advance_session(checked, params.head_cap, params.budget)
                .map(|v| (v, false))
        });
        dispatched.answer(self, outcome)
    }

    fn advance_session(
        &self,
        mut checked: crate::session::CheckedOut<'_>,
        head_cap: usize,
        budget_override: Option<usize>,
    ) -> ServiceResult<Value> {
        let (dataset, id, generation) = {
            let session = checked.session();
            (session.dataset.clone(), session.id, session.generation)
        };
        // A stale session (dataset dropped/reloaded under it) is closed
        // rather than checked back in.
        let entry = match self.registry.get(&dataset) {
            Err(_) => {
                checked.discard();
                return Err(ServiceError::session_not_found(format!(
                    "dataset '{dataset}' was dropped; session {id} is stale"
                )));
            }
            Ok(entry) if entry.generation != generation => {
                checked.discard();
                return Err(ServiceError::session_not_found(format!(
                    "dataset '{dataset}' was reloaded; session {id} is stale"
                )));
            }
            Ok(entry) => entry,
        };
        let data = &*entry.dataset;
        // Chaos seam + kernel-entry deadline check: on the error path
        // `checked` drops and the session is returned to the table
        // untouched — no work is lost or double-executed.
        if let Some(delay) = self.faults.kernel_delay() {
            std::thread::sleep(delay);
        }
        self.guard
            .check_deadline(crate::guard::DeadlineStage::Kernel)?;
        let mut kernel = self.time(Phase::Kernel, Some(Op::SessionGetNext));
        kernel.span.set_op(Op::SessionGetNext);
        kernel.span.set_session(id);

        // Temporarily move the state out to reattach it to the dataset.
        // `advance` returns `(restored state, payload)`; a from_state
        // failure cannot happen for a generation-matched dataset (same
        // `Arc`, same shape), but if it somehow does the state has been
        // consumed, so the session is closed instead of being kept in a
        // silently-corrupted form.
        let taken = std::mem::replace(
            &mut checked.session().state,
            SessionState::Sweep2D(placeholder_state()),
        );
        // Set when the deadline expires *between sampling chunks*: the
        // samples drawn so far are kept (sampling is monotone progress,
        // not corruption), the remaining budget is abandoned, and the
        // request answers `deadline_exceeded` after the state is
        // restored.
        let mut kernel_deadline: Option<ServiceError> = None;
        // Samples this advance drew (randomized sessions only) — the
        // kernel span's `samples` tag, like `verify`'s.
        let mut drawn: Option<u64> = None;
        let advanced: Result<(SessionState, Option<Value>), srank_core::StableRankError> =
            match taken {
                // The exact sessions pop their region without ranking it:
                // only the top `head_cap` items of the ranking go on the
                // wire, so only those are ranked, at the weights
                // `get_next` would rank all `n` at.
                SessionState::Sweep2D(state) => {
                    Enumerator2D::from_state(data, state).map(|mut e| {
                        let next = e.next_region();
                        (
                            SessionState::Sweep2D(e.into_state()),
                            next.map(|r| {
                                let head = top_head(data, &r.midpoint_weights(), head_cap);
                                ranking_payload(&head, data.len(), r.stability)
                                    .field("region_lo", r.lo)
                                    .field("region_hi", r.hi)
                                    .build()
                            }),
                        )
                    })
                }
                SessionState::Md(state) => MdEnumerator::from_state(data, *state).map(|mut e| {
                    let next = e.next_leaf();
                    (
                        SessionState::Md(Box::new(e.into_state())),
                        next.map(|leaf| {
                            let head = top_head(data, &leaf.representative, head_cap);
                            ranking_payload(&head, data.len(), leaf.stability)
                                .field("representative", leaf.representative.as_slice())
                                .build()
                        }),
                    )
                }),
                SessionState::Randomized {
                    state,
                    mut rng,
                    budget,
                } => RandomizedEnumerator::from_state(data, *state).map(|mut e| {
                    // The sampling budget runs in chunks with a deadline
                    // check between them, so one huge-budget advance
                    // cannot hold a worker past its caller's patience.
                    let before = e.total_samples();
                    let total = budget_override.unwrap_or(budget);
                    let mut remaining = total;
                    while remaining > KERNEL_CHUNK {
                        e.sample_n(&mut rng, KERNEL_CHUNK);
                        remaining -= KERNEL_CHUNK;
                        if let Err(err) = self
                            .guard
                            .check_deadline(crate::guard::DeadlineStage::Kernel)
                        {
                            kernel_deadline = Some(err);
                            break;
                        }
                    }
                    let next = match kernel_deadline {
                        Some(_) => None,
                        None => e.get_next_budget(&mut rng, remaining),
                    };
                    drawn = Some(e.total_samples() - before);
                    // Cumulative progress counters, so a producer polling
                    // GET-NEXT can see convergence without a stats call:
                    // samples ever observed, distinct rankings seen, and
                    // rankings emitted over the session's lifetime.
                    let (samples_total, distinct, emitted) = (
                        e.total_samples(),
                        e.distinct_observed(),
                        e.regions_emitted(),
                    );
                    (
                        SessionState::Randomized {
                            state: Box::new(e.into_state()),
                            rng,
                            budget,
                        },
                        next.map(|d| {
                            let head = d.items.get(..head_cap).unwrap_or(&d.items);
                            ranking_payload(head, d.items.len(), d.stability)
                                .field("confidence_error", d.confidence_error)
                                .field("samples_used", d.samples_used)
                                .field("samples_total", samples_total)
                                .field("distinct_rankings", distinct)
                                .field("regions_emitted", emitted)
                                .field("exemplar_weights", d.exemplar_weights.as_slice())
                                .build()
                        }),
                    )
                }),
            };
        let (state, payload) = match advanced {
            Ok(ok) => ok,
            Err(e) => {
                checked.discard();
                return Err(ServiceError::internal(e.to_string()));
            }
        };
        if let Some(n) = drawn {
            kernel.span.set_samples(n);
        }
        kernel.finish();
        let session = checked.session();
        session.state = state;
        // Advancing consumed enumeration progress (and, for randomized
        // sessions, RNG stream position): the journal must re-checkpoint.
        session.advances += 1;
        // Expired between sampling chunks: the state (with its partial
        // progress) is back in the session; without this the `None`
        // payload below would read as a finished enumeration.
        if let Some(err) = kernel_deadline {
            return Err(err);
        }
        match payload {
            None => Ok(Object::new()
                .field("done", true)
                .field("returned", session.returned)
                .build()),
            Some(payload) => {
                session.returned += 1;
                if let Some(s) = payload.get("stability").and_then(Value::as_f64) {
                    session.last_stability = Some(s);
                }
                Ok(payload)
            }
        }
    }

    fn op_session_close(&self, fields: &Fields<'_>) -> ServiceResult<(Value, bool)> {
        let id = fields
            .u64("session")?
            .ok_or_else(|| ServiceError::bad_request("session.close needs 'session'"))?;
        Ok((
            Object::new()
                .field("closed", self.sessions.close(id))
                .build(),
            false,
        ))
    }
}

/// A response envelope as its wire line.
#[expect(
    clippy::expect_used,
    reason = "an envelope is a plain Value, and a Value always serializes"
)]
fn to_line(response: &Value) -> String {
    serde_json::to_string(response).expect("a Value serializes")
}

/// Payload for one returned ranking: stability, its full length `len`,
/// and its top items `head` (the full order of a million-item ranking
/// does not belong on the wire by default); each session kind appends
/// its own fields.
fn ranking_payload(head: &[u32], len: usize, stability: f64) -> Object {
    Object::new()
        .field("done", false)
        .field("stability", stability)
        .field("len", len)
        .field("head", head)
}

/// The first `k` items of the ranking `w` induces on `data` (all of them
/// when `k ≥ n`), from the fused top-k kernel: the prefix `Dataset::rank`
/// would answer, without sorting the other items. `w` must be finite and
/// `d` long, as a region's midpoint weights and an md representative are.
fn top_head(data: &Dataset, w: &[f64], k: usize) -> Vec<u32> {
    let (mut best, mut head) = (Vec::new(), Vec::new());
    data.top_k_fused_into(w, k.min(data.len()), &mut best, &mut head);
    head
}

/// The watchdog supervisor loop: reaps expired sessions every
/// min(`idle_ttl`, 1 s), scans the heartbeat stamps every quarter of the
/// stall threshold (clamped to [100 ms, 1 s]), emits one structured
/// warning per finding — with the recorder's most recent span trees
/// attached, so a stalled worker's warning carries the offending request
/// tree — and exits promptly (within one 25 ms tick) when the engine
/// drops.
fn supervise(core: &Arc<EngineCore>, stall_ms: u64) {
    let tick = Duration::from_millis(25);
    let scan_every = Duration::from_millis((stall_ms / 4).clamp(100, 1_000));
    let reap_every = core.config.idle_ttl.min(Duration::from_secs(1));
    let watchdog = Arc::clone(&core.obs.watchdog);
    let mut last_scan = Instant::now();
    let mut last_reap = last_scan;
    while !watchdog.shutdown_requested() {
        std::thread::sleep(tick);
        if last_reap.elapsed() >= reap_every {
            last_reap = Instant::now();
            core.sessions.reap();
        }
        if last_scan.elapsed() < scan_every {
            continue;
        }
        last_scan = Instant::now();
        for finding in watchdog.scan(stall_ms) {
            // Recent span trees give the warning its "what is it stuck
            // on" context; empty when tracing is disabled.
            let spans = core.tracer().query(None, 0, None, 2);
            let spans = serde_json::to_string(&spans).unwrap_or_default();
            crate::log::warn(
                "srank-watchdog",
                &format!(
                    "{kind}: {detail} (recent traces: {spans})",
                    kind = finding.kind,
                    detail = finding.detail,
                ),
            );
        }
    }
}

/// An empty 2-D state used only as a `mem::replace` placeholder while a
/// session's real state is being advanced.
fn placeholder_state() -> srank_core::Sweep2DState {
    static PLACEHOLDER: std::sync::OnceLock<srank_core::Sweep2DState> = std::sync::OnceLock::new();
    PLACEHOLDER
        .get_or_init(|| {
            #[expect(
                clippy::expect_used,
                reason = "a static one-row dataset is always valid"
            )]
            let data = Dataset::from_rows(&[vec![0.5, 0.5]]).expect("static data");
            #[expect(
                clippy::expect_used,
                reason = "a one-item dataset always admits an enumerator"
            )]
            let mut e = Enumerator2D::new(&data, AngleInterval::full()).expect("1 item");
            while e.get_next().is_some() {}
            e.into_state()
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc::channel;

    const WAITERS: usize = 5;

    fn engine_with_figure1() -> Engine {
        let engine = Engine::new(EngineConfig::default());
        let loaded =
            engine.handle_line(r#"{"op": "registry.load", "dataset": "h", "builtin": "figure1"}"#);
        assert!(loaded.contains(r#""ok":true"#), "{loaded}");
        engine
    }

    /// Holds a leader's compute on a latch until `WAITERS` other requests
    /// for the same key have joined its flight, then releases it: the
    /// key is computed once, every waiter receives that value as a hit,
    /// and a waiter's own compute never runs.
    #[test]
    fn concurrent_misses_on_one_key_compute_once() {
        let engine = engine_with_figure1();
        let core = &*engine.core;
        let request: Value =
            serde_json::from_str(r#"{"op": "verify", "dataset": "h", "weights": [1, 1]}"#).unwrap();
        let fields = &Fields::of(&request).unwrap();
        let key = core.cache_key(Op::Verify, fields).unwrap();
        let computes = &AtomicU64::new(0);
        let (started_tx, started_rx) = channel::<()>();
        let (release_tx, release_rx) = channel::<()>();
        let answer = &Object::new().field("stability", 0.25).build();
        std::thread::scope(|scope| {
            let leader = scope.spawn(move || {
                core.cached(Op::Verify, fields, |_, _| {
                    computes.fetch_add(1, Ordering::SeqCst);
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok(answer.clone())
                })
            });
            started_rx.recv().unwrap();
            let waiters: Vec<_> = (0..WAITERS)
                .map(|_| {
                    scope.spawn(|| {
                        core.cached(Op::Verify, fields, |_, _| {
                            computes.fetch_add(1, Ordering::SeqCst);
                            Ok(Value::Null)
                        })
                    })
                })
                .collect();
            while core.results.lock().waiters(&key) < WAITERS {
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();
            assert_eq!(leader.join().unwrap().unwrap(), (answer.clone(), false));
            for waiter in waiters {
                assert_eq!(waiter.join().unwrap().unwrap(), (answer.clone(), true));
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        assert_eq!(core.result_stats.misses.load(Ordering::SeqCst), 1);
        assert_eq!(
            core.result_stats.hits.load(Ordering::SeqCst),
            WAITERS as u64
        );
        assert_eq!(core.results.lock().waiters(&key), 0, "the flight landed");
    }

    /// A leader whose compute fails wakes its waiters, which probe again:
    /// one of them leads the retry and the rest receive its value.
    #[test]
    fn a_failed_compute_hands_the_key_to_a_waiter() {
        let engine = engine_with_figure1();
        let core = &*engine.core;
        let request: Value =
            serde_json::from_str(r#"{"op": "verify", "dataset": "h", "weights": [2, 1]}"#).unwrap();
        let fields = &Fields::of(&request).unwrap();
        let key = core.cache_key(Op::Verify, fields).unwrap();
        let computes = &AtomicU64::new(0);
        let (started_tx, started_rx) = channel::<()>();
        let (release_tx, release_rx) = channel::<()>();
        let answer = &Object::new().field("stability", 0.5).build();
        std::thread::scope(|scope| {
            let leader = scope.spawn(move || {
                core.cached(Op::Verify, fields, |_, _| {
                    computes.fetch_add(1, Ordering::SeqCst);
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Err(ServiceError::internal("injected failure"))
                })
            });
            started_rx.recv().unwrap();
            let waiters: Vec<_> = (0..WAITERS)
                .map(|_| {
                    scope.spawn(|| {
                        core.cached(Op::Verify, fields, |_, _| {
                            computes.fetch_add(1, Ordering::SeqCst);
                            Ok(answer.clone())
                        })
                    })
                })
                .collect();
            while core.results.lock().waiters(&key) < WAITERS {
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();
            assert!(leader.join().unwrap().is_err());
            let fresh = waiters
                .into_iter()
                .map(|w| w.join().unwrap().unwrap())
                .filter(|(value, cached)| {
                    assert_eq!(value, answer);
                    !cached
                })
                .count();
            assert_eq!(fresh, 1, "exactly one waiter led the retry");
        });
        assert_eq!(computes.load(Ordering::SeqCst), 2);
        assert_eq!(core.result_stats.misses.load(Ordering::SeqCst), 2);
        assert_eq!(
            core.result_stats.hits.load(Ordering::SeqCst),
            WAITERS as u64 - 1
        );
    }

    /// A batch sub-request inherits its connection's cancel flag on both
    /// paths: parked behind a held identical compute, an inline-class
    /// sub-request (figure1) and a pool-bound one (bluenile, 600 rows)
    /// each give up with a "cancelled" envelope well inside the leader's
    /// hold instead of waiting it out.
    #[test]
    fn a_batch_sub_request_waiter_honours_its_connection() {
        const HOLD: Duration = Duration::from_millis(1500);
        let engine = engine_with_figure1();
        let loaded = engine.handle_line(
            r#"{"op": "registry.load", "dataset": "bn", "builtin": "bluenile", "n": 600, "d": 2, "seed": 3}"#,
        );
        assert!(loaded.contains(r#""ok":true"#), "{loaded}");
        let core = &*engine.core;
        for sub in [
            r#"{"op": "verify", "dataset": "h", "weights": [3, 1]}"#,
            r#"{"op": "verify", "dataset": "bn", "weights": [3, 1]}"#,
        ] {
            let request: Value = serde_json::from_str(sub).unwrap();
            let fields = &Fields::of(&request).unwrap();
            let (started_tx, started_rx) = channel::<()>();
            let (release_tx, release_rx) = channel::<()>();
            std::thread::scope(|scope| {
                let leader = scope.spawn(move || {
                    core.cached(Op::Verify, fields, |_, _| {
                        started_tx.send(()).unwrap();
                        let _ = release_rx.recv_timeout(HOLD);
                        Ok(Value::Null)
                    })
                });
                started_rx.recv().unwrap();
                let closed = RequestCtx {
                    cancel: Some(Arc::new(AtomicBool::new(true))),
                    ..RequestCtx::default()
                };
                let start = Instant::now();
                let mut lines = Vec::new();
                let batch = format!(r#"{{"op": "batch", "requests": [{sub}]}}"#);
                engine
                    .handle_line_streamed(
                        &batch,
                        &mut |line| {
                            lines.push(line.to_string());
                            Ok(())
                        },
                        closed,
                    )
                    .unwrap();
                let waited = start.elapsed();
                // The leader may already have given up its hold.
                let _ = release_tx.send(());
                let response: Value = serde_json::from_str(&lines[0]).unwrap();
                let envelope = response
                    .get("result")
                    .and_then(|r| r.get("results"))
                    .and_then(Value::as_array)
                    .and_then(|results| results.first())
                    .unwrap();
                let message = envelope
                    .get("error")
                    .and_then(|e| e.get("message"))
                    .and_then(Value::as_str);
                assert!(
                    message.is_some_and(|m| m.contains("cancelled")),
                    "{sub}: {envelope:?}"
                );
                assert!(waited < HOLD / 2, "{sub}: waited {waited:?}");
                assert!(leader.join().unwrap().is_ok());
            });
        }
    }

    /// A waiter gives up at its deadline, and on a closed connection,
    /// without disturbing the flight it waited on.
    #[test]
    fn a_waiter_honours_its_deadline_and_connection() {
        let engine = engine_with_figure1();
        let core = &*engine.core;
        let request: Value =
            serde_json::from_str(r#"{"op": "verify", "dataset": "h", "weights": [1, 2]}"#).unwrap();
        let fields = &Fields::of(&request).unwrap();
        let (started_tx, started_rx) = channel::<()>();
        let (release_tx, release_rx) = channel::<()>();
        std::thread::scope(|scope| {
            let leader = scope.spawn(move || {
                core.cached(Op::Verify, fields, |_, _| {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok(Value::Null)
                })
            });
            started_rx.recv().unwrap();
            let deadline = crate::guard::Deadline::after(Duration::from_millis(30));
            let expired = RequestCtx {
                deadline: Some(deadline),
                ..RequestCtx::default()
            }
            .enter(|| core.cached(Op::Verify, fields, |_, _| Ok(Value::Null)));
            assert_eq!(
                expired.unwrap_err().code,
                crate::proto::ErrorCode::DeadlineExceeded
            );
            let closed = Arc::new(AtomicBool::new(true));
            let cancelled = RequestCtx {
                cancel: Some(closed),
                ..RequestCtx::default()
            }
            .enter(|| core.cached(Op::Verify, fields, |_, _| Ok(Value::Null)));
            assert!(cancelled.unwrap_err().message.contains("cancelled"));
            release_tx.send(()).unwrap();
            assert_eq!(leader.join().unwrap().unwrap(), (Value::Null, false));
        });
        assert_eq!(core.result_stats.misses.load(Ordering::SeqCst), 1);
    }

    /// The result-cache key as the engine rendered it before the key was
    /// typed: one `format!` per probe.
    fn string_key(core: &EngineCore, op: Op, fields: &Fields<'_>) -> String {
        let name = fields.required_str("dataset").unwrap();
        let entry = core.registry.get(name).unwrap();
        let roi = match EngineCore::parse_roi(fields).unwrap() {
            None => "full".to_string(),
            Some(RoiSpec { around, theta }) => format!("cone({around:?},{theta:.15e})"),
        };
        let weights = fields.f64_array("weights").unwrap();
        let samples = core.samples_param(fields).unwrap();
        let seed = fields
            .u64("seed")
            .unwrap()
            .unwrap_or(core.config.default_seed);
        let tau = fields.usize("tau").unwrap().unwrap_or(0);
        format!(
            "{op}|{name}|g{generation}|{roi}|w{weights:?}|s{samples}|r{seed}|t{tau}",
            op = op.name(),
            generation = entry.generation,
        )
    }

    /// The typed key renders the string key byte for byte, parses back
    /// to itself, and two requests share a typed key exactly when they
    /// share a string key.
    #[test]
    fn typed_result_keys_render_and_compare_as_the_string_keys() {
        let engine = engine_with_figure1();
        for load in [
            r#"{"op": "registry.load", "dataset": "f", "builtin": "fifa", "n": 30, "seed": 3}"#,
            r#"{"op": "registry.load", "dataset": "p|q", "builtin": "figure1"}"#,
        ] {
            assert!(engine.handle_line(load).contains(r#""ok":true"#));
        }
        let requests = [
            (Op::Verify, r#"{"dataset": "h", "weights": [1, 1]}"#),
            (Op::Verify, r#"{"dataset": "h", "weights": [-0.0, 1]}"#),
            (Op::Verify, r#"{"dataset": "h", "weights": [0.0, 1]}"#),
            (Op::Verify, r#"{"dataset": "h", "weights": [1e-300, 1]}"#),
            (
                Op::Verify,
                r#"{"dataset": "h", "weights": [0.30000000000000004, 1]}"#,
            ),
            (Op::Verify, r#"{"dataset": "h", "weights": [0.3, 1]}"#),
            (
                Op::Verify,
                r#"{"dataset": "h", "weights": [1, 1], "tau": 2}"#,
            ),
            (Op::Verify, r#"{"dataset": "p|q", "weights": [1, 1]}"#),
            (Op::Verify, r#"{"dataset": "h"}"#),
            (Op::Verify, r#"{"dataset": "h", "weights": []}"#),
            (Op::Overview, r#"{"dataset": "h"}"#),
            (
                Op::Overview,
                r#"{"dataset": "f", "samples": 500, "seed": 9}"#,
            ),
            (
                Op::Verify,
                r#"{"dataset": "f", "weights": [1, 2, 3, 4], "samples": 500}"#,
            ),
            (
                Op::Verify,
                r#"{"dataset": "f", "weights": [1, 2, 3, 4], "roi": {"around": [1, 1, 1, 1], "theta": 0.3}}"#,
            ),
            (
                Op::Verify,
                r#"{"dataset": "f", "weights": [1, 2, 3, 4], "roi": {"around": [1, 2, 1, 1], "cosine": 0.9}}"#,
            ),
            (
                Op::Verify,
                r#"{"dataset": "f", "weights": [1, 2, 3, 4], "roi": {"around": [1, 2, 1, 1], "theta": 0.45102681179626236}}"#,
            ),
        ];
        let keys: Vec<(ResultKey, String)> = requests
            .iter()
            .map(|(op, raw)| {
                let request: Value = serde_json::from_str(raw).unwrap();
                let fields = Fields::of(&request).unwrap();
                (
                    engine.cache_key(*op, &fields).unwrap(),
                    string_key(&engine, *op, &fields),
                )
            })
            .collect();
        for (typed, string) in &keys {
            assert_eq!(&typed.to_string(), string);
            assert_eq!(&string.parse::<ResultKey>().unwrap(), typed, "{string}");
        }
        for (a, a_string) in &keys {
            for (b, b_string) in &keys {
                assert_eq!(a == b, a_string == b_string, "{a_string} vs {b_string}");
            }
        }
        for malformed in ["", "verify|h|g1|full", "ping|h|g1|full|wNone|s1|r1|t0"] {
            assert!(malformed.parse::<ResultKey>().is_err(), "{malformed}");
        }
    }
}
