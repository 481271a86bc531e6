//! Engine observability: pool counters and per-op latency histograms,
//! all lock-free atomics so recording never contends with the hot path,
//! and the export walk every metric surface is rendered from.
//!
//! Each metric-owning component has one `export` method that names
//! every value once — JSON key, Prometheus series, [`Kind`] and HELP
//! text — and hands it to a [`Sink`]. Three sinks drive the same walk:
//! [`json`] builds the `stats` object (and the blocks `health` and
//! `debug.dump` reuse), [`prometheus`] renders the text exposition, and
//! [`describe`] lists `(stats path, series, kind)` rows, which is the
//! metrics table in `crates/service/README.md`. A series cannot appear
//! on one surface and not the other: there is no second place to write
//! it.
//!
//! The counters are written by the worker pool and the dispatch wrapper
//! and only ever read by the walk, so `Relaxed` ordering is sufficient
//! throughout — a snapshot is allowed to be a few operations behind
//! each thread.

use crate::engine::EngineCore;
use crate::obs::{CpuTimer, Usage};
use crate::proto::{IntoValue, Object, Op};
use crate::trace::{self, Span};
use serde_json::Value;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How an exported value behaves: the Prometheus `TYPE` word and the
/// README table's kind column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotone since boot; the series ends in `_total`.
    Counter,
    /// A point-in-time value.
    Gauge,
    /// A gauge computed over the `window` telemetry horizons.
    WindowedGauge,
    /// A classic log2 latency histogram (`_bucket`/`_sum`/`_count`).
    Histogram,
}

impl Kind {
    fn prometheus_type(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge | Kind::WindowedGauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }

    /// The README table's kind column.
    pub fn label(self) -> &'static str {
        match self {
            Kind::WindowedGauge => "windowed gauge",
            kind => kind.prometheus_type(),
        }
    }
}

/// One exported metric, named once.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Metric {
    pub kind: Kind,
    /// Dot-path of the value in the `stats` JSON, relative to the block
    /// the walk is in.
    pub key: &'static str,
    /// Prometheus family name.
    pub series: &'static str,
    /// Prometheus HELP text.
    pub help: &'static str,
}

impl Metric {
    pub const fn new(
        kind: Kind,
        key: &'static str,
        series: &'static str,
        help: &'static str,
    ) -> Self {
        Metric {
            kind,
            key,
            series,
            help,
        }
    }
}

/// One row of the [`describe`] walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Dot-path into the `stats` JSON.
    pub path: String,
    pub series: &'static str,
    pub kind: Kind,
}

/// A consumer of an `export` walk: the three renderings of one walk.
pub(crate) enum Sink {
    /// Builds the `stats`-shaped JSON object.
    Json(Vec<(String, Value)>),
    /// Renders Prometheus text exposition (version 0.0.4).
    Prometheus(String),
    /// Lists every described series under its full stats path.
    Describe { prefix: String, rows: Vec<Row> },
}

impl Sink {
    pub fn counter(
        &mut self,
        key: &'static str,
        series: &'static str,
        help: &'static str,
        value: impl IntoValue,
    ) {
        self.scalar(
            Metric::new(Kind::Counter, key, series, help),
            value.into_value(),
        );
    }

    pub fn gauge(
        &mut self,
        key: &'static str,
        series: &'static str,
        help: &'static str,
        value: impl IntoValue,
    ) {
        self.scalar(
            Metric::new(Kind::Gauge, key, series, help),
            value.into_value(),
        );
    }

    /// A scalar series: JSON field `m.key` and one unlabelled sample.
    fn scalar(&mut self, m: Metric, value: Value) {
        match self {
            Sink::Json(fields) => fields.push((m.key.to_string(), value)),
            Sink::Prometheus(out) => {
                let value = match value {
                    Value::Number(n) => n,
                    Value::Bool(b) => f64::from(u8::from(b)),
                    _ => return,
                };
                header(out, m);
                let _ = writeln!(out, "{} {value}", m.series);
            }
            Sink::Describe { .. } => self.row(m),
        }
    }

    /// A JSON-only field (config echoes, paths, optional values, nested
    /// detail); the Prometheus and describe sinks ignore it.
    pub fn info(&mut self, key: &str, value: impl IntoValue) {
        if let Sink::Json(fields) = self {
            fields.push((key.to_string(), value.into_value()));
        }
    }

    /// A nested JSON object under `key`.
    pub fn block(&mut self, key: &str, walk: impl FnOnce(&mut Sink)) {
        match self {
            Sink::Json(fields) => fields.push((key.to_string(), json(walk))),
            Sink::Prometheus(_) => walk(self),
            Sink::Describe { prefix, .. } => {
                let len = prefix.len();
                prefix.push_str(key);
                prefix.push('.');
                walk(self);
                if let Sink::Describe { prefix, .. } = self {
                    prefix.truncate(len);
                }
            }
        }
    }

    /// A labelled family: HELP and TYPE once, then every sample
    /// `samples` writes, so the family's lines stay one group. `m.key`
    /// is where the family's numbers show in the JSON, which carries
    /// them through an [`info`](Self::info) call; the JSON sink ignores
    /// this call.
    pub fn family(&mut self, m: Metric, samples: impl FnOnce(&mut Samples<'_>)) {
        match self {
            Sink::Json(_) => {}
            Sink::Prometheus(out) => {
                header(out, m);
                samples(&mut Samples {
                    out,
                    series: m.series,
                });
            }
            Sink::Describe { .. } => self.row(m),
        }
    }

    fn row(&mut self, m: Metric) {
        if let Sink::Describe { prefix, rows } = self {
            let path = format!("{prefix}{}", m.key);
            rows.push(Row {
                path,
                series: m.series,
                kind: m.kind,
            });
        }
    }
}

fn header(out: &mut String, m: Metric) {
    let _ = writeln!(out, "# HELP {} {}", m.series, m.help);
    let _ = writeln!(out, "# TYPE {} {}", m.series, m.kind.prometheus_type());
}

/// The sample writer a [`Sink::family`] callback fills.
pub(crate) struct Samples<'a> {
    out: &'a mut String,
    series: &'static str,
}

impl Samples<'_> {
    /// Writes `{series}{suffix}{{labels}} {value}`.
    pub fn push(&mut self, suffix: &str, labels: &str, value: impl std::fmt::Display) {
        let _ = writeln!(self.out, "{}{suffix}{{{labels}}} {value}", self.series);
    }
}

/// Runs `walk` into a JSON object.
pub(crate) fn json(walk: impl FnOnce(&mut Sink)) -> Value {
    let mut sink = Sink::Json(Vec::new());
    walk(&mut sink);
    match sink {
        Sink::Json(fields) => Value::Object(fields),
        _ => Value::Null,
    }
}

/// Runs `walk` into Prometheus text.
pub(crate) fn prometheus(walk: impl FnOnce(&mut Sink)) -> String {
    let mut sink = Sink::Prometheus(String::with_capacity(4096));
    walk(&mut sink);
    match sink {
        Sink::Prometheus(text) => text,
        _ => String::new(),
    }
}

/// Runs `walk` into describe rows, in walk order.
pub(crate) fn describe(walk: impl FnOnce(&mut Sink)) -> Vec<Row> {
    let prefix = String::new();
    let mut sink = Sink::Describe {
        prefix,
        rows: Vec::new(),
    };
    walk(&mut sink);
    match sink {
        Sink::Describe { rows, .. } => rows,
        _ => Vec::new(),
    }
}

/// Number of power-of-two latency buckets. Bucket `i` counts requests
/// with latency in `[2^i, 2^(i+1))` microseconds — except bucket 0,
/// which also absorbs sub-microsecond durations (`[0, 2)`), and the last
/// bucket, which is unbounded above: it absorbs everything ≥ 2^29 µs
/// ≈ 9 minutes (nothing the engine does takes that long). Bucket
/// assignment is pinned by the `bucket_edges_*` unit tests below.
pub const LATENCY_BUCKETS: usize = 30;

/// The log2 bucket a duration of `micros` lands in — the one bucket
/// function behind [`LatencyHistogram`] and the windowed ring.
#[inline]
pub fn bucket_index(micros: u64) -> usize {
    ((63 - micros.max(1).leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
}

/// The upper edge of bucket `i`, in micros (nominal for the last,
/// unbounded bucket).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    1u64 << (i + 1)
}

/// The upper bound of the log2 bucket holding the `q`-quantile (`q` in
/// `[0, 1]`) of one row of bucket counts; `None` when the row is empty.
pub fn quantile_upper_bound(buckets: &[u64], q: f64) -> Option<u64> {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
    let mut cumulative = 0u64;
    buckets.iter().enumerate().find_map(|(i, &c)| {
        cumulative += c;
        (cumulative >= rank).then(|| bucket_upper_bound(i))
    })
}

/// `elapsed` in whole microseconds, saturating.
pub(crate) fn micros(elapsed: Duration) -> u64 {
    elapsed.as_micros().min(u128::from(u64::MAX)) as u64
}

/// A log2-bucketed latency histogram (microsecond resolution).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    count: AtomicU64,
    total_micros: AtomicU64,
    max_micros: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    pub fn record(&self, elapsed: Duration) {
        let micros = micros(elapsed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
        self.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The upper bound of the log2 bucket containing the `q`-quantile
    /// sample (`q` in `[0, 1]`): the tightest "p99 ≤ this" statement
    /// the bucketed histogram can make. `None` when empty.
    pub fn percentile_upper_bound(&self, q: f64) -> Option<u64> {
        let buckets: [u64; LATENCY_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        quantile_upper_bound(&buckets, q)
    }

    /// Serializes to `{"count", "total_micros", "max_micros", "buckets"}`
    /// where `buckets` is a sparse `[[upper_bound_micros, count]…]` over
    /// the non-empty buckets. (The last bucket's printed upper bound,
    /// 2^30, is nominal — that bucket is unbounded above.)
    pub fn to_value(&self) -> Value {
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let count = c.load(Ordering::Relaxed);
                (count > 0).then(|| {
                    Value::Array(vec![
                        Value::Number(bucket_upper_bound(i) as f64),
                        Value::Number(count as f64),
                    ])
                })
            })
            .collect();
        Object::new()
            .field("count", self.count.load(Ordering::Relaxed))
            .field("total_micros", self.total_micros.load(Ordering::Relaxed))
            .field("max_micros", self.max_micros.load(Ordering::Relaxed))
            .field("buckets", buckets)
            .build()
    }

    /// Writes this histogram's classic exposition under `labels`:
    /// cumulative `_bucket` lines for the non-empty finite buckets, the
    /// `+Inf` terminal, `_sum` and `_count`. The last bucket is
    /// unbounded above, so it has no finite edge line — only `+Inf` may
    /// claim its samples (a finite `le` there would cap every slow
    /// request's quantile at 2^30 µs).
    fn write_samples(&self, labels: &str, out: &mut Samples<'_>) {
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets[..LATENCY_BUCKETS - 1].iter().enumerate() {
            let count = bucket.load(Ordering::Relaxed);
            if count > 0 {
                cumulative += count;
                let le = bucket_upper_bound(i);
                out.push("_bucket", &format!("{labels},le=\"{le}\""), cumulative);
            }
        }
        out.push("_bucket", &format!("{labels},le=\"+Inf\""), self.count());
        out.push("_sum", labels, self.total_micros.load(Ordering::Relaxed));
        out.push("_count", labels, self.count());
    }
}

/// One latency histogram per protocol op.
#[derive(Debug, Default)]
pub struct OpLatencies {
    histograms: [LatencyHistogram; Op::ALL.len()],
}

impl OpLatencies {
    pub fn record(&self, op: Op, elapsed: Duration) {
        self.histograms[op as usize].record(elapsed);
    }

    /// `{"op": {histogram}, …}` over the ops that have been seen.
    pub fn to_value(&self) -> Value {
        let mut out = Object::new();
        for (op, h) in Op::ALL.iter().zip(&self.histograms) {
            if h.count() > 0 {
                out = out.field(op.name(), h.to_value());
            }
        }
        out.build()
    }

    /// Writes the seen ops' histograms, each labelled `{prefix}op="…"`.
    fn write_samples(&self, prefix: &str, out: &mut Samples<'_>) {
        for (op, h) in Op::ALL.iter().zip(&self.histograms) {
            if h.count() > 0 {
                h.write_samples(&format!("{prefix}op=\"{}\"", op.name()), out);
            }
        }
    }

    /// Exports the `ops` block and its histogram family.
    pub(crate) fn export(&self, s: &mut Sink) {
        s.info("ops", self.to_value());
        let help = "Per-op request latency in microseconds.";
        s.family(
            Metric::new(Kind::Histogram, "ops", "srank_op_latency_micros", help),
            |out| self.write_samples("", out),
        );
    }
}

/// Declares [`Phase`] from its table, one row per phase: the variant,
/// its span name, the `stats` name of its histogram (`None`: the phase
/// is a span only) and what it covers.
macro_rules! phase_table {
    ($($phase:ident => $span:literal, stats: $stats:expr, covers: $covers:literal;)*) => {
        /// The request phases: every trace span and every phase
        /// histogram in `stats` is one, timed by one [`PhaseGuard`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Phase {
            $(#[doc = $covers] $phase,)*
        }

        impl Phase {
            /// Every phase, in table order (`phase as usize` indexes it).
            pub const ALL: [Phase; [$(Phase::$phase),*].len()] = [$(Phase::$phase),*];

            /// The span name: a trace span's `phase` field.
            pub const fn span_name(self) -> &'static str {
                match self { $(Phase::$phase => $span,)* }
            }

            /// The histogram's name in `stats`; `None` for a span-only phase.
            pub const fn stats_name(self) -> Option<&'static str> {
                match self { $(Phase::$phase => $stats,)* }
            }

            /// What the phase covers.
            pub const fn covers(self) -> &'static str {
                match self { $(Phase::$phase => $covers,)* }
            }
        }
    };
}

phase_table! {
    Request => "request", stats: None, covers: "Root: one inbound request line, transport read to final flush.";
    Parse => "parse", stats: None, covers: "Request line to JSON.";
    Dispatch => "dispatch", stats: None, covers: "Op routing and handler execution.";
    SubRequest => "sub_request", stats: None, covers: "One batch sub-request, submit to delivery; links the worker-side spans to the batch root.";
    PoolQueue => "pool_queue", stats: Some("queue_wait"), covers: "A pooled sub-request's wait in the work queue, submit to worker pickup; again for a pool-parked `session.get_next`'s continuation, grant to worker pickup.";
    SessionWait => "session_wait", stats: Some("session_wait"), covers: "A `session.get_next` parked on a busy session, park to grant.";
    CacheProbe => "cache_probe", stats: None, covers: "Result-cache lookup (`detail`: `\"hit g1\"` / `\"miss g1\"`, with the dataset generation).";
    Kernel => "kernel", stats: Some("kernel"), covers: "Compute proper: a cache miss's compute or a session advance (`samples`: the Monte-Carlo samples it drew).";
    StoreIo => "store_io", stats: None, covers: "Snapshot, restore and session save/resume file I/O.";
    Serialize => "serialize", stats: Some("serialize"), covers: "Response to its JSON line.";
    Flush => "flush", stats: None, covers: "Writing and flushing the response line to the transport.";
}

const ROWS: usize = Phase::ALL.len();

/// The histogram rows numbered densely in table order: each row's slot
/// (`None`: span only), the `stats` names by slot, and the slot count.
const HISTOGRAMS: ([Option<PhaseSlot>; ROWS], [&str; ROWS], usize) = {
    let (mut slots, mut names, mut i, mut n) = ([None; ROWS], [""; ROWS], 0, 0);
    while i < ROWS {
        if let Some(name) = Phase::ALL[i].stats_name() {
            (slots[i], names[n]) = (Some(PhaseSlot(n)), name);
            n += 1;
        }
        i += 1;
    }
    (slots, names, n)
};

impl Phase {
    /// The histogram phases' `stats` names by slot: the order of
    /// `stats.phases`, the exposition and the window's phase rows.
    pub const STATS_NAMES: [&'static str; HISTOGRAMS.2] = *HISTOGRAMS.1.first_chunk().unwrap();

    fn slot(self) -> Option<PhaseSlot> {
        HISTOGRAMS.0[self as usize]
    }
}

/// A histogram phase's slot. Only this module makes one, so only a
/// [`PhaseGuard`] records into the window ring's phase rows.
#[derive(Clone, Copy, Debug)]
pub struct PhaseSlot(usize);

impl PhaseSlot {
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Per-phase, per-op latency histograms, one row per histogram phase —
/// where inside the engine each op's time goes, independent of trace
/// sampling (always on). Compare `queue_wait` vs `kernel` vs
/// `serialize` for `verify` to read a batch-op regression from `stats`.
/// Only a [`PhaseGuard`] records into them.
#[derive(Debug, Default)]
pub struct PhaseLatencies {
    rows: [OpLatencies; HISTOGRAMS.2],
}

impl PhaseLatencies {
    /// `{"phase": {"op": {histogram}, …}, …}` over the seen pairs.
    pub fn to_value(&self) -> Value {
        let mut out = Object::new();
        for (name, row) in Phase::STATS_NAMES.iter().zip(&self.rows) {
            if row.histograms.iter().any(|h| h.count() > 0) {
                out = out.field(name, row.to_value());
            }
        }
        out.build()
    }

    /// Exports the `phases` block and its histogram family.
    pub(crate) fn export(&self, s: &mut Sink) {
        s.info("phases", self.to_value());
        let help = "Phase-attributed request latency in microseconds.";
        s.family(
            Metric::new(
                Kind::Histogram,
                "phases",
                "srank_phase_latency_micros",
                help,
            ),
            |out| {
                for (name, row) in Phase::STATS_NAMES.iter().zip(&self.rows) {
                    row.write_samples(&format!("phase=\"{name}\","), out);
                }
            },
        );
    }
}

/// One phase of one request, timed once: one `Instant` at open and one
/// at close give both the span (traced requests) and, on
/// [`finish`](Self::finish), the histogram and window sample. Dropped
/// unfinished (an error path) it closes the span only; a kernel guard
/// charges its thread CPU either way. A span-only phase of an untraced
/// request reads no clock.
pub(crate) struct PhaseGuard<'a> {
    core: &'a EngineCore,
    phase: Phase,
    /// The histogram's op (`None`: the span only).
    op: Option<Op>,
    start: Option<Instant>,
    cpu: Option<CpuTimer>,
    /// The phase's span, for tagging (inert when untraced).
    pub span: Span,
}

impl<'a> PhaseGuard<'a> {
    /// Opens `phase` of `op` under the thread's trace context, from
    /// `start` (stamped elsewhere) or else from now.
    pub(crate) fn open(
        core: &'a EngineCore,
        phase: Phase,
        op: Option<Op>,
        start: Option<Instant>,
    ) -> Self {
        let ctx = trace::ambient();
        let timed = op.is_some() && phase.slot().is_some();
        let start = start.or_else(|| (timed || ctx.is_enabled()).then(Instant::now));
        let span = start.map_or_else(Span::disabled, |at| core.tracer().span_at(ctx, phase, at));
        let cpu = (phase == Phase::Kernel && core.obs().clients.is_enabled()).then(CpuTimer::start);
        PhaseGuard {
            core,
            phase,
            op,
            start,
            cpu,
            span,
        }
    }

    /// Closes the completed phase now.
    pub fn finish(self) {
        self.finish_at(Instant::now());
    }

    /// Closes the completed phase at `end`, stamped where it ended.
    pub fn finish_at(mut self, end: Instant) {
        if let (Some(start), Some(op), Some(slot)) = (self.start, self.op, self.phase.slot()) {
            let elapsed = end.saturating_duration_since(start);
            self.core.phases.rows[slot.0].record(op, elapsed);
            let obs = self.core.obs();
            if self.core.config().window_telemetry {
                obs.window.record_phase(slot, micros(elapsed));
            }
            if self.phase == Phase::PoolQueue {
                obs.clients
                    .charge(|u| u.add(Usage::QueueWaitMicros, micros(elapsed)));
            }
        }
        self.span.close_at(end);
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some(cpu) = self.cpu.take() {
            let cpu_micros = cpu.finish();
            let clients = &self.core.obs().clients;
            clients.charge(|u| u.add(Usage::KernelCpuMicros, cpu_micros));
        }
        if self.span.is_recording() {
            self.span.close_at(Instant::now());
        }
    }
}

/// Counters shared between the persistent worker pool (writer) and the
/// `stats` op (reader).
#[derive(Debug, Default)]
pub struct PoolMetrics {
    /// Worker threads ever created — constant at pool width after
    /// startup; the "zero spawns in steady state" acceptance check.
    pub threads_spawned: AtomicU64,
    /// Jobs enqueued on the work queue.
    pub submitted: AtomicU64,
    /// Jobs fully executed.
    pub completed: AtomicU64,
    /// Jobs currently executing on a worker.
    pub executing: AtomicU64,
    /// Jobs currently waiting on the work queue.
    pub queue_depth: AtomicU64,
    /// High-water mark of `queue_depth`.
    pub max_queue_depth: AtomicU64,
    /// Cumulative enqueue→dequeue wait across all jobs.
    pub queue_wait_micros: AtomicU64,
    /// Times a worker blocked pushing a completed response into a full
    /// (bounded) response queue — the backpressure signal.
    pub backpressure_waits: AtomicU64,
    /// Buffered `batch` ops served.
    pub batches_buffered: AtomicU64,
    /// Streamed `batch` ops served.
    pub batches_streamed: AtomicU64,
    /// Batch sub-requests answered on the submitter thread (cache-hit
    /// fast path or classified inline-cheap) — work the pool queue never
    /// saw.
    pub inline_answered: AtomicU64,
    /// Streamed-batch response envelopes whose flush rode a following
    /// envelope's write instead of paying their own (flushes saved by
    /// the coalescing window).
    pub writes_coalesced: AtomicU64,
}

impl PoolMetrics {
    /// Exports the `pool` block; `workers` is the configured width.
    pub(crate) fn export(&self, s: &mut Sink, workers: usize) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        s.gauge(
            "workers",
            "srank_pool_workers",
            "Worker pool width.",
            workers,
        );
        s.counter(
            "threads_spawned",
            "srank_pool_threads_spawned_total",
            "Worker threads ever created.",
            load(&self.threads_spawned),
        );
        s.counter(
            "submitted",
            "srank_pool_jobs_submitted_total",
            "Jobs enqueued on the work queue.",
            load(&self.submitted),
        );
        s.counter(
            "completed",
            "srank_pool_jobs_completed_total",
            "Jobs fully executed.",
            load(&self.completed),
        );
        s.gauge(
            "executing",
            "srank_pool_jobs_executing",
            "Jobs currently executing.",
            load(&self.executing),
        );
        s.gauge(
            "queue_depth",
            "srank_pool_queue_depth",
            "Jobs waiting on the work queue.",
            load(&self.queue_depth),
        );
        s.gauge(
            "max_queue_depth",
            "srank_pool_queue_max_depth",
            "High-water mark of the work queue.",
            load(&self.max_queue_depth),
        );
        s.counter(
            "queue_wait_micros",
            "srank_pool_queue_wait_micros_total",
            "Cumulative enqueue-to-dequeue wait.",
            load(&self.queue_wait_micros),
        );
        s.counter(
            "backpressure_waits",
            "srank_pool_backpressure_waits_total",
            "Workers blocked on a full response queue.",
            load(&self.backpressure_waits),
        );
        s.counter(
            "batches_buffered",
            "srank_pool_batches_buffered_total",
            "Buffered batch ops served.",
            load(&self.batches_buffered),
        );
        s.counter(
            "batches_streamed",
            "srank_pool_batches_streamed_total",
            "Streamed batch ops served.",
            load(&self.batches_streamed),
        );
        s.counter(
            "inline_answered",
            "srank_pool_inline_answered_total",
            "Batch sub-requests answered on the submitter thread.",
            load(&self.inline_answered),
        );
        s.counter(
            "writes_coalesced",
            "srank_pool_writes_coalesced_total",
            "Streamed-batch flushes saved by write coalescing.",
            load(&self.writes_coalesced),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2_micros() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(3)); // bucket [2, 4)
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(100)); // bucket [64, 128)
        assert_eq!(h.count(), 3);
        let v = h.to_value();
        assert_eq!(v.get("count").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("total_micros").unwrap().as_u64(), Some(106));
        assert_eq!(v.get("max_micros").unwrap().as_u64(), Some(100));
        let buckets = v.get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), 2, "two non-empty buckets");
        assert_eq!(buckets[0].as_array().unwrap()[0].as_u64(), Some(4));
        assert_eq!(buckets[0].as_array().unwrap()[1].as_u64(), Some(2));
    }

    /// The upper bound of the bucket [`bucket_index`] assigns to
    /// `micros`, checked against the single non-empty bucket a
    /// histogram shows after recording it.
    fn landed_upper_bound(micros: u64) -> u64 {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(micros));
        let v = h.to_value();
        let buckets = v.get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), 1, "one sample lands in exactly one bucket");
        let printed = buckets[0].as_array().unwrap()[0].as_u64().unwrap();
        assert_eq!(bucket_upper_bound(bucket_index(micros)), printed);
        printed
    }

    #[test]
    fn bucket_edges_around_powers_of_two_are_exact() {
        // Audit of `bucket_index` (`63 - leading_zeros`): bucket i must
        // cover exactly [2^i, 2^(i+1)) µs, so each 2^k lands in the
        // bucket whose printed upper bound is 2^(k+1), and 2^k − 1 lands
        // one bucket below.
        for k in 1..29u32 {
            let edge = 1u64 << k;
            assert_eq!(landed_upper_bound(edge), edge * 2, "2^{k} opens bucket {k}");
            assert_eq!(bucket_index(edge), k as usize);
            assert_eq!(
                landed_upper_bound(edge - 1),
                edge,
                "2^{k} - 1 closes bucket {}",
                k - 1
            );
        }
    }

    #[test]
    fn bucket_edges_at_zero_and_one() {
        // 0 µs (sub-microsecond durations) and 1 µs both land in bucket
        // 0, printed as upper bound 2.
        assert_eq!(landed_upper_bound(0), 2);
        assert_eq!(landed_upper_bound(1), 2);
        assert_eq!((bucket_index(0), bucket_index(1)), (0, 0));
    }

    #[test]
    fn bucket_edge_at_the_unbounded_top() {
        // Everything from 2^29 µs up — including u64::MAX — saturates
        // into the last bucket (index 29, printed upper bound 2^30).
        let top = 2u64.pow(30);
        assert_eq!(landed_upper_bound(1 << 29), top);
        assert_eq!(landed_upper_bound(u64::MAX), top);
        assert_eq!(bucket_index(1 << 29), LATENCY_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), LATENCY_BUCKETS - 1);
        // The recorded max saturates cleanly (the JSON layer renders
        // numbers as f64, so compare at f64 precision).
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(u64::MAX));
        let v = h.to_value();
        assert_eq!(v.get("max_micros").unwrap().as_f64(), Some(u64::MAX as f64));
    }

    #[test]
    fn percentile_upper_bound_walks_cumulative_buckets() {
        let h = LatencyHistogram::default();
        assert_eq!(h.percentile_upper_bound(0.99), None, "empty histogram");
        for _ in 0..90 {
            h.record(Duration::from_micros(3)); // bucket [2, 4)
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(1000)); // bucket [512, 1024)
        }
        assert_eq!(h.percentile_upper_bound(0.5), Some(4));
        assert_eq!(h.percentile_upper_bound(0.9), Some(4));
        assert_eq!(h.percentile_upper_bound(0.99), Some(1024));
        assert_eq!(h.percentile_upper_bound(1.0), Some(1024));
    }

    #[test]
    fn phase_latencies_report_seen_pairs_only() {
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(phase as usize, i, "{phase:?} indexes Phase::ALL");
        }
        // The table: span and stats names are unique, and the histogram
        // rows fill dense slots in the `stats` order.
        let spans: Vec<&str> = Phase::ALL.iter().map(|p| p.span_name()).collect();
        let mut unique = spans.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            spans.len(),
            "span names are unique: {spans:?}"
        );
        let stats: Vec<&str> = Phase::ALL.iter().filter_map(|p| p.stats_name()).collect();
        assert_eq!(
            stats,
            ["queue_wait", "session_wait", "kernel", "serialize"],
            "the histogram rows, in stats order (unique)"
        );
        assert_eq!(Phase::STATS_NAMES, stats.as_slice());
        let slots: Vec<usize> = Phase::ALL
            .iter()
            .filter_map(|p| p.slot().map(PhaseSlot::index))
            .collect();
        assert_eq!(slots, [0, 1, 2, 3], "histogram slots are dense");
        for phase in Phase::ALL {
            assert_eq!(phase.slot().is_some(), phase.stats_name().is_some());
        }
        assert_eq!(Phase::PoolQueue.span_name(), "pool_queue");
        assert_eq!(Phase::PoolQueue.stats_name(), Some("queue_wait"));

        let phases = PhaseLatencies::default();
        let record = |p: Phase, micros| {
            let slot = p.slot().expect("a histogram phase");
            phases.rows[slot.0].record(Op::Verify, Duration::from_micros(micros));
        };
        record(Phase::Kernel, 100);
        record(Phase::PoolQueue, 5);
        let v = phases.to_value();
        let top = v.as_object().unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, "queue_wait", "phase catalogue order");
        assert_eq!(top[1].0, "kernel");
        let kernel = v.get("kernel").unwrap().as_object().unwrap();
        assert_eq!(kernel.len(), 1);
        assert_eq!(kernel[0].0, "verify");

        let text = prometheus(|s| phases.export(s));
        assert!(text.contains("srank_phase_latency_micros_count{phase=\"kernel\",op=\"verify\"} 1"));
        assert!(text.contains("le=\"+Inf\""));
    }

    /// The children of the one trace's root span, as `(phase, micros)`.
    fn root_children(tracer: &crate::trace::Tracer) -> Vec<(String, u64)> {
        let out = tracer.query(None, 0, None, 8);
        let traces = out.get("traces").and_then(Value::as_array).unwrap();
        assert_eq!(traces.len(), 1);
        let root = &traces[0].get("spans").and_then(Value::as_array).unwrap()[0];
        let kids = root.get("children").and_then(Value::as_array).unwrap();
        kids.iter()
            .map(|k| {
                let phase = k.get("phase").and_then(Value::as_str).unwrap();
                let micros = k.get("micros").and_then(Value::as_u64).unwrap();
                (phase.to_string(), micros)
            })
            .collect()
    }

    fn total_micros(phases: &PhaseLatencies, name: &str) -> Option<u64> {
        let v = phases.to_value();
        v.get(name)?.get("verify")?.get("total_micros")?.as_u64()
    }

    #[test]
    fn a_guard_times_span_and_histogram_from_one_interval() {
        let engine = crate::Engine::new(crate::EngineConfig {
            trace_sample: 1,
            ..crate::EngineConfig::default()
        });
        let (tracer, phases) = (engine.tracer(), &engine.phases);
        let root = tracer.root_span();
        trace::with_ctx(root.ctx(), || {
            let serialize = engine.time(Phase::Serialize, Some(Op::Verify));
            std::thread::sleep(Duration::from_micros(300));
            serialize.finish();
            // A start stamped elsewhere, closed at an end stamped elsewhere.
            let start = Instant::now();
            std::thread::sleep(Duration::from_micros(200));
            let end = Instant::now();
            std::thread::sleep(Duration::from_micros(200));
            engine
                .time_since(Phase::PoolQueue, Op::Verify, start)
                .finish_at(end);
            assert_eq!(
                Some(micros(end - start)),
                total_micros(phases, "queue_wait")
            );
            // Dropped unfinished (an error path): a span, no sample.
            drop(engine.time(Phase::Kernel, Some(Op::Verify)));
        });
        // Untraced, a span-only guard reads no clock and records nothing.
        let idle = engine.time(Phase::Flush, None);
        assert!(idle.start.is_none() && !idle.span.is_recording());
        drop(idle);
        drop(root);
        let kids = root_children(tracer);
        let phases_seen: Vec<&str> = kids.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(phases_seen, ["serialize", "pool_queue", "kernel"]);
        assert!(kids[0].1 >= 300);
        assert_eq!(Some(kids[0].1), total_micros(phases, "serialize"));
        assert_eq!(Some(kids[1].1), total_micros(phases, "queue_wait"));
        assert_eq!(total_micros(phases, "kernel"), None, "no sample on drop");
        let top = engine.obs().clients.top_value("queue_wait_micros", 1);
        let top = top.unwrap();
        let row = &top.get("clients").and_then(Value::as_array).unwrap()[0];
        assert_eq!(
            row.get("queue_wait_micros").and_then(Value::as_u64),
            Some(kids[1].1),
            "the queue wait is charged to the client"
        );
    }

    #[test]
    fn op_latencies_only_reports_seen_ops() {
        let ops = OpLatencies::default();
        ops.record(Op::Verify, Duration::from_micros(10));
        let v = ops.to_value();
        let entries = v.as_object().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, "verify");
    }
}
