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

use crate::obs::WindowRing;
use crate::proto::{IntoValue, Object, Op};
use serde_json::Value;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

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
        let micros = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
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
///
/// When a [`WindowRing`] is attached (the engine does so at
/// construction), every recorded sample is also folded into the ring's
/// current second — the seam that gives `stats` its windowed
/// percentiles without touching any call site.
#[derive(Debug, Default)]
pub struct OpLatencies {
    histograms: [LatencyHistogram; Op::ALL.len()],
    window: OnceLock<Arc<WindowRing>>,
}

impl OpLatencies {
    /// Attaches the windowed ring; later samples fan out to it. At
    /// most one ring can ever be attached (subsequent calls are no-ops).
    pub fn attach_window(&self, ring: Arc<WindowRing>) {
        let _ = self.window.set(ring);
    }

    pub fn record(&self, op: Op, elapsed: Duration) {
        self.histograms[op as usize].record(elapsed);
        if let Some(ring) = self.window.get() {
            let micros = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
            ring.record_op(op, micros, crate::trace::ambient().trace);
        }
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

    /// Exports the `ops` block and its histogram family.
    pub(crate) fn export(&self, s: &mut Sink) {
        s.info("ops", self.to_value());
        let help = "Per-op request latency in microseconds.";
        s.family(
            Metric::new(Kind::Histogram, "ops", "srank_op_latency_micros", help),
            |out| {
                for (op, h) in Op::ALL.iter().zip(&self.histograms) {
                    if h.count() > 0 {
                        h.write_samples(&format!("op=\"{}\"", op.name()), out);
                    }
                }
            },
        );
    }
}

/// The request phases the phase-attributed histograms break time into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Pool-queue wait (submit → worker pickup).
    QueueWait,
    /// Time parked on a busy session (park → grant).
    SessionWait,
    /// Compute: sampling/scoring/stability math, cache misses only.
    Kernel,
    /// Response-to-JSON-line time.
    Serialize,
}

impl Phase {
    /// Every phase, in `stats` output order (`phase as usize` indexes it).
    pub const ALL: [Phase; 4] = [
        Phase::QueueWait,
        Phase::SessionWait,
        Phase::Kernel,
        Phase::Serialize,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            Phase::QueueWait => "queue_wait",
            Phase::SessionWait => "session_wait",
            Phase::Kernel => "kernel",
            Phase::Serialize => "serialize",
        }
    }
}

/// Per-phase, per-op latency histograms — where inside the engine each
/// op's time goes, independent of trace sampling (always on). This is
/// the histogram family that makes a batch-op regression readable from
/// `stats`: compare `queue_wait` vs `kernel` vs `serialize` for
/// `verify` under a batch workload.
#[derive(Debug, Default)]
pub struct PhaseLatencies {
    histograms: [[LatencyHistogram; Op::ALL.len()]; Phase::ALL.len()],
    window: OnceLock<Arc<WindowRing>>,
}

impl PhaseLatencies {
    /// Attaches the windowed ring (see [`OpLatencies::attach_window`]).
    pub fn attach_window(&self, ring: Arc<WindowRing>) {
        let _ = self.window.set(ring);
    }

    /// Records `elapsed` against `(phase, op)`.
    pub fn record(&self, phase: Phase, op: Op, elapsed: Duration) {
        self.histograms[phase as usize][op as usize].record(elapsed);
        if let Some(ring) = self.window.get() {
            let micros = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
            ring.record_phase(phase, micros);
        }
    }

    /// `{"phase": {"op": {histogram}, …}, …}` over the seen pairs.
    pub fn to_value(&self) -> Value {
        let mut out = Object::new();
        for (phase, row) in Phase::ALL.iter().zip(&self.histograms) {
            if row.iter().all(|h| h.count() == 0) {
                continue;
            }
            let mut inner = Object::new();
            for (op, h) in Op::ALL.iter().zip(row) {
                if h.count() > 0 {
                    inner = inner.field(op.name(), h.to_value());
                }
            }
            out = out.field(phase.name(), inner.build());
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
                for (phase, row) in Phase::ALL.iter().zip(&self.histograms) {
                    for (op, h) in Op::ALL.iter().zip(row) {
                        if h.count() > 0 {
                            let labels = format!("phase=\"{}\",op=\"{}\"", phase.name(), op.name());
                            h.write_samples(&labels, out);
                        }
                    }
                }
            },
        );
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
        let phases = PhaseLatencies::default();
        phases.record(Phase::Kernel, Op::Verify, Duration::from_micros(100));
        phases.record(Phase::QueueWait, Op::Verify, Duration::from_micros(5));
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
