//! Request-scoped structured tracing for the stable-ranking service.
//!
//! Every inbound request line may begin a *trace*: a tree of typed
//! *spans*, one per [`Phase`] it passes through (transport parse,
//! dispatch, pool queue wait, session park, cache probe, kernel, store
//! I/O, serialize, flush), each timed with its phase histogram by one
//! [`PhaseGuard`](crate::metrics::PhaseGuard). Span records are staged
//! in a per-thread buffer (one `Vec` push on the hot path, no lock) and
//! drained into a bounded global recorder when a root span completes,
//! when the buffer grows past a watermark, or when a worker thread
//! finishes a traced job. The `trace` wire op reads the recorder back
//! as span trees.
//!
//! Tracing is *sampled*: a tracer created with `sample_every = N`
//! traces one inbound request in `N` (`0` disables tracing entirely).
//! An untraced request carries [`TraceCtx::DISABLED`], and every span
//! creation on that path is a single branch on a `Copy` struct — no
//! allocation, no clock read — so the disabled path stays within noise
//! of not having the layer at all.
//!
//! Parent links cross threads by value: a [`TraceCtx`] names the trace
//! and the parent span id, is `Copy`, and travels into pool jobs and
//! parked-waiter continuations inside the closures those layers already
//! box, as the trace field of the request's
//! [`RequestCtx`](crate::ctx::RequestCtx). Within a
//! thread, [`with_ctx`] rewrites that field while a span nests, so deep
//! helpers (cache probes, store I/O) can attach child spans without
//! parameter plumbing.

use crate::ctx::CURRENT;
use crate::lockorder::{rank, OrderedMutex};
use crate::log;
use crate::metrics::{Phase, Sink};
use crate::proto::{Object, Op};
use serde_json::Value;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-thread staging buffer flush watermark.
const THREAD_BUFFER_FLUSH: usize = 64;

/// Default bounded-recorder capacity (completed span records).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// A trace context: which trace a unit of work belongs to and which
/// span is its parent. `trace == 0` means "not traced" and makes every
/// downstream span a no-op.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TraceCtx {
    /// Trace id (0 = disabled).
    pub trace: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
}

impl TraceCtx {
    /// The no-op context: spans created under it cost one branch.
    pub const DISABLED: TraceCtx = TraceCtx {
        trace: 0,
        parent: 0,
    };

    /// Not traced, but the sampling decision *was already made* upstream.
    /// Transports install this for requests the sampler skipped, so the
    /// engine's entry points don't re-roll the 1-in-N dice (which would
    /// skew the effective sampling rate).
    pub const UNSAMPLED: TraceCtx = TraceCtx {
        trace: 0,
        parent: u64::MAX,
    };

    /// Whether work under this context records spans.
    #[inline]
    pub fn is_enabled(self) -> bool {
        self.trace != 0
    }

    /// Whether the sampling decision has been made for this scope
    /// (traced or explicitly skipped).
    #[inline]
    pub fn is_decided(self) -> bool {
        self.trace != 0 || self.parent == u64::MAX
    }
}

thread_local! {
    static STAGED: RefCell<ThreadBuffer> = const {
        RefCell::new(ThreadBuffer { owner: None, records: Vec::new() })
    };
}

struct ThreadBuffer {
    owner: Option<Tracer>,
    records: Vec<SpanRecord>,
}

/// The trace field of the thread's current
/// [`RequestCtx`](crate::ctx::RequestCtx) (set by
/// [`RequestCtx::enter`](crate::ctx::RequestCtx::enter) and [`with_ctx`]); [`TraceCtx::DISABLED`]
/// outside any traced scope.
#[inline]
pub fn ambient() -> TraceCtx {
    CURRENT.with(|slot| slot.borrow().trace)
}

/// Runs `f` with `ctx` as the trace field of the thread's current
/// [`RequestCtx`](crate::ctx::RequestCtx) — the narrow helper for nesting spans, leaving the
/// deadline, client and cancel fields alone — restoring the previous
/// trace afterwards (panic-safe via the restore guard).
pub fn with_ctx<T>(ctx: TraceCtx, f: impl FnOnce() -> T) -> T {
    struct Restore(TraceCtx);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|slot| slot.borrow_mut().trace = self.0);
        }
    }
    let previous = CURRENT.with(|slot| std::mem::replace(&mut slot.borrow_mut().trace, ctx));
    let _restore = Restore(previous);
    f()
}

/// One completed span, as staged and recorded.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: u64,
    /// This span's id (unique across the tracer).
    pub span: u64,
    /// Parent span id (0 = trace root).
    pub parent: u64,
    /// The phase the span times.
    pub phase: Phase,
    /// Operation, where known (root and dispatch spans).
    pub op: Option<Op>,
    /// Free-form detail ("hit g3", dataset name, ...).
    pub detail: Option<Box<str>>,
    /// Session id, for session-scoped spans.
    pub session: Option<u64>,
    /// Kernel sample count, for sampling spans.
    pub samples: Option<u64>,
    /// Start, microseconds since the tracer's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

struct TracerInner {
    /// Trace 1 request in N; 0 disables tracing.
    sample_every: AtomicU64,
    /// Inbound-request counter driving the sampling decision.
    seq: AtomicU64,
    /// Trace id allocator (ids start at 1; 0 means disabled).
    trace_seq: AtomicU64,
    /// Span id allocator (ids start at 1; 0 means "no parent").
    span_seq: AtomicU64,
    /// Roots at least this long are logged as slow requests (0 = off).
    slow_micros: AtomicU64,
    /// Bounded recorder capacity, in span records.
    capacity: usize,
    /// All `start_us` values are relative to this instant.
    epoch: Instant,
    recorder: OrderedMutex<rank::TraceRing, VecDeque<SpanRecord>>,
    /// Records ever drained into the recorder.
    recorded: AtomicU64,
    /// Records evicted from the bounded recorder.
    dropped: AtomicU64,
}

/// The shared trace recorder. Cloning is cheap (an `Arc` bump); every
/// layer that records spans holds a clone.
#[derive(Clone)]
pub struct Tracer(Arc<TracerInner>);

impl Tracer {
    /// Builds a tracer sampling one request in `sample_every`
    /// (0 disables), keeping at most `capacity` completed span records,
    /// and logging root spans at least `slow_micros` long (0 disables
    /// the slow log).
    pub fn new(sample_every: u64, capacity: usize, slow_micros: u64) -> Self {
        Tracer(Arc::new(TracerInner {
            sample_every: AtomicU64::new(sample_every),
            seq: AtomicU64::new(0),
            trace_seq: AtomicU64::new(0),
            span_seq: AtomicU64::new(0),
            slow_micros: AtomicU64::new(slow_micros),
            capacity: capacity.max(1),
            epoch: Instant::now(),
            recorder: OrderedMutex::new(VecDeque::new()),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }))
    }

    /// A tracer that records nothing (the embedded-API default).
    pub fn disabled() -> Self {
        Tracer::new(0, 1, 0)
    }

    /// The sampling rate (trace 1 in N; 0 = off).
    pub fn sample_every(&self) -> u64 {
        self.0.sample_every.load(Ordering::Relaxed)
    }

    /// Makes the sampling decision for one inbound request: a live
    /// context for the sampled 1-in-N, [`TraceCtx::DISABLED`] otherwise.
    #[inline]
    pub fn begin_trace(&self) -> TraceCtx {
        let every = self.0.sample_every.load(Ordering::Relaxed);
        if every == 0 {
            return TraceCtx::DISABLED;
        }
        let seq = self.0.seq.fetch_add(1, Ordering::Relaxed);
        if !seq.is_multiple_of(every) {
            return TraceCtx::DISABLED;
        }
        TraceCtx {
            trace: self.0.trace_seq.fetch_add(1, Ordering::Relaxed) + 1,
            parent: 0,
        }
    }

    /// Opens a span under `ctx`. A disabled context returns an inert
    /// span (one branch, no clock read).
    #[inline]
    pub fn span(&self, ctx: TraceCtx, phase: Phase) -> Span {
        self.open(ctx, phase, false, Instant::now)
    }

    /// Opens a span under `ctx` that started at `start`: the seam a
    /// [`PhaseGuard`](crate::metrics::PhaseGuard) times its span through.
    #[inline]
    pub(crate) fn span_at(&self, ctx: TraceCtx, phase: Phase, start: Instant) -> Span {
        self.open(ctx, phase, false, || start)
    }

    /// Begins a new sampled trace and opens its `request` root span,
    /// which flushes the staging buffer (and feeds the slow log) on drop.
    pub fn root_span(&self) -> Span {
        self.open(self.begin_trace(), Phase::Request, true, Instant::now)
    }

    #[inline]
    fn open(&self, ctx: TraceCtx, phase: Phase, flush: bool, start: impl Fn() -> Instant) -> Span {
        if !ctx.is_enabled() {
            return Span::disabled();
        }
        Span {
            inner: Some(Box::new(SpanInner {
                tracer: self.clone(),
                record: SpanRecord {
                    trace: ctx.trace,
                    span: self.0.span_seq.fetch_add(1, Ordering::Relaxed) + 1,
                    parent: ctx.parent,
                    phase,
                    op: None,
                    detail: None,
                    session: None,
                    samples: None,
                    start_us: 0,
                    dur_us: 0,
                },
                start: start(),
                flush,
            })),
        }
    }

    fn micros_since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.0.epoch).as_micros() as u64
    }

    /// Stages one record in the thread buffer, draining to the global
    /// recorder on owner change, watermark, or a flush-flagged record.
    fn stage(&self, record: SpanRecord, flush: bool) {
        STAGED.with(|staged| {
            let mut buf = staged.borrow_mut();
            let same_owner = buf
                .owner
                .as_ref()
                .is_some_and(|t| Arc::ptr_eq(&t.0, &self.0));
            if !same_owner {
                if let Some(prev) = buf.owner.take() {
                    prev.drain(&mut buf.records);
                }
                buf.owner = Some(self.clone());
            }
            buf.records.push(record);
            if flush || buf.records.len() >= THREAD_BUFFER_FLUSH {
                self.drain(&mut buf.records);
            }
        });
    }

    /// Drains the current thread's staging buffer into the recorder.
    /// Worker threads call this when a traced job ends so their spans
    /// are visible even though the root span lives on another thread.
    pub fn flush_thread(&self) {
        STAGED.with(|staged| {
            let mut buf = staged.borrow_mut();
            if buf.records.is_empty() {
                return;
            }
            if let Some(owner) = buf.owner.clone() {
                owner.drain(&mut buf.records);
            }
        });
    }

    fn drain(&self, records: &mut Vec<SpanRecord>) {
        if records.is_empty() {
            return;
        }
        let mut recorder = self.0.recorder.lock();
        self.0
            .recorded
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        for record in records.drain(..) {
            recorder.push_back(record);
        }
        let over = recorder.len().saturating_sub(self.0.capacity);
        if over > 0 {
            recorder.drain(..over);
            self.0.dropped.fetch_add(over as u64, Ordering::Relaxed);
        }
    }

    /// Exports recorder health for `stats`: the sampling config,
    /// records kept now, records ever recorded, and records evicted by
    /// the bound.
    pub(crate) fn export(&self, s: &mut Sink) {
        self.flush_thread();
        let buffered = self.0.recorder.lock().len();
        s.info("sample_every", self.sample_every());
        s.info("slow_micros", self.0.slow_micros.load(Ordering::Relaxed));
        s.info("capacity", self.0.capacity);
        s.gauge(
            "buffered",
            "srank_trace_spans_buffered",
            "Spans held in the trace ring right now.",
            buffered,
        );
        s.counter(
            "recorded",
            "srank_trace_spans_recorded_total",
            "Spans ever recorded by the trace ring.",
            self.0.recorded.load(Ordering::Relaxed),
        );
        s.counter(
            "dropped",
            "srank_trace_spans_dropped_total",
            "Spans evicted by the trace ring's capacity bound.",
            self.0.dropped.load(Ordering::Relaxed),
        );
    }

    /// Queries recent traces as span trees, most recent root first.
    ///
    /// Filters: `filter_op` keeps traces whose root op matches;
    /// `min_micros` keeps traces whose root lasted at least that long;
    /// `session` keeps traces touching that session id. `limit` caps
    /// the returned trace count. Only traces whose root span has
    /// already completed are returned.
    pub fn query(
        &self,
        filter_op: Option<Op>,
        min_micros: u64,
        session: Option<u64>,
        limit: usize,
    ) -> Value {
        self.flush_thread();
        let records: Vec<SpanRecord> = {
            let recorder = self.0.recorder.lock();
            recorder.iter().cloned().collect()
        };
        let mut traces = assemble_traces(&records);
        traces.retain(|t| {
            let root = &records[t.root];
            if root.dur_us < min_micros {
                return false;
            }
            if let Some(want) = filter_op {
                if root.op != Some(want) {
                    return false;
                }
            }
            if let Some(want) = session {
                if !t.members.iter().any(|&i| records[i].session == Some(want)) {
                    return false;
                }
            }
            true
        });
        // Most recently *finished* root first.
        traces.sort_by_key(|t| {
            let root = &records[t.root];
            std::cmp::Reverse(root.start_us + root.dur_us)
        });
        traces.truncate(limit);
        let rendered: Vec<Value> = traces.iter().map(|t| render_trace(&records, t)).collect();
        Object::default()
            .field("traces", Value::Array(rendered))
            .field("recorded", self.0.recorded.load(Ordering::Relaxed))
            .field("dropped", self.0.dropped.load(Ordering::Relaxed))
            .build()
    }

    /// Called by a completing root span: flush, then emit the slow-log
    /// line when the root outlasted the threshold.
    fn finish_root(&self, trace: u64, op: Option<Op>, dur_us: u64) {
        self.flush_thread();
        let slow = self.0.slow_micros.load(Ordering::Relaxed);
        if slow == 0 || dur_us < slow {
            return;
        }
        let records: Vec<SpanRecord> = {
            let recorder = self.0.recorder.lock();
            recorder
                .iter()
                .filter(|r| r.trace == trace)
                .cloned()
                .collect()
        };
        let traces = assemble_traces(&records);
        let tree = traces
            .iter()
            .find(|t| records[t.root].trace == trace)
            .map(|t| render_trace(&records, t))
            .unwrap_or(Value::Null);
        log::warn_fields(
            "srank_trace",
            "slow request",
            &[
                ("trace", Value::Number(trace as f64)),
                ("op", Value::String(op.map_or("?", Op::name).to_string())),
                ("micros", Value::Number(dur_us as f64)),
                ("tree", tree),
            ],
        );
    }
}

/// An assembled trace: indexes into the record slice.
struct TraceGroup {
    root: usize,
    members: Vec<usize>,
}

/// Groups records into traces; only traces whose root (parent == 0)
/// is present are returned.
fn assemble_traces(records: &[SpanRecord]) -> Vec<TraceGroup> {
    let mut groups: Vec<(u64, TraceGroup)> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        match groups.iter_mut().find(|(t, _)| *t == r.trace) {
            Some((_, g)) => g.members.push(i),
            None => {
                groups.push((
                    r.trace,
                    TraceGroup {
                        root: usize::MAX,
                        members: vec![i],
                    },
                ));
            }
        }
    }
    let mut out = Vec::new();
    for (_, mut g) in groups {
        if let Some(&root) = g.members.iter().find(|&&i| records[i].parent == 0) {
            g.root = root;
            out.push(g);
        }
    }
    out
}

/// Renders one trace group as its JSON span tree.
fn render_trace(records: &[SpanRecord], group: &TraceGroup) -> Value {
    let root = &records[group.root];
    // Sort members by start for stable child ordering.
    let mut order: Vec<usize> = group.members.clone();
    order.sort_by_key(|&i| (records[i].start_us, records[i].span));
    // children[i] lists member indexes whose parent is member i's span.
    let mut top: Vec<usize> = Vec::new();
    let mut children: Vec<(u64, Vec<usize>)> = order
        .iter()
        .map(|&i| (records[i].span, Vec::new()))
        .collect();
    for &i in &order {
        let parent = records[i].parent;
        if parent == 0 {
            top.push(i);
            continue;
        }
        match children.iter_mut().find(|(span, _)| *span == parent) {
            Some((_, kids)) => kids.push(i),
            // Parent record evicted: surface the span at top level
            // rather than dropping it.
            None => top.push(i),
        }
    }
    fn render_span(records: &[SpanRecord], children: &[(u64, Vec<usize>)], i: usize) -> Value {
        let r = &records[i];
        let mut o = Object::default()
            .field("span", r.span)
            .field("phase", r.phase.span_name())
            .field("start_micros", r.start_us)
            .field("micros", r.dur_us);
        if let Some(op) = r.op {
            o = o.field("op", op.name());
        }
        if let Some(detail) = &r.detail {
            o = o.field("detail", detail.as_ref());
        }
        if let Some(session) = r.session {
            o = o.field("session", session);
        }
        if let Some(samples) = r.samples {
            o = o.field("samples", samples);
        }
        let kids = children
            .iter()
            .find(|(span, _)| *span == r.span)
            .map(|(_, kids)| {
                kids.iter()
                    .map(|&k| render_span(records, children, k))
                    .collect::<Vec<Value>>()
            })
            .unwrap_or_default();
        if !kids.is_empty() {
            o = o.field("children", Value::Array(kids));
        }
        o.build()
    }
    let spans: Vec<Value> = top
        .iter()
        .map(|&i| render_span(records, &children, i))
        .collect();
    Object::default()
        .field("trace", root.trace)
        .field("op", root.op.map_or("?", Op::name))
        .field("micros", root.dur_us)
        .field("start_micros", root.start_us)
        .field("spans", Value::Array(spans))
        .build()
}

/// An open span: its record so far (timing filled in on close).
struct SpanInner {
    tracer: Tracer,
    record: SpanRecord,
    start: Instant,
    flush: bool,
}

/// An in-flight span. Completes (and records itself) on drop. Inert
/// when created under a disabled context — every setter is then a
/// single branch.
pub struct Span {
    inner: Option<Box<SpanInner>>,
}

impl Span {
    /// An inert span (for paths that need a placeholder).
    pub fn disabled() -> Self {
        Span { inner: None }
    }

    /// Whether this span records anything.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// The context for children of this span ([`TraceCtx::DISABLED`]
    /// when the span is inert, so the whole subtree stays off).
    #[inline]
    pub fn ctx(&self) -> TraceCtx {
        match &self.inner {
            Some(inner) => TraceCtx {
                trace: inner.record.trace,
                parent: inner.record.span,
            },
            None => TraceCtx::DISABLED,
        }
    }

    /// Tags the span with its operation.
    pub fn set_op(&mut self, op: Op) {
        if let Some(inner) = &mut self.inner {
            inner.record.op = Some(op);
        }
    }

    /// Tags the span with free-form detail.
    pub fn set_detail(&mut self, detail: &str) {
        if let Some(inner) = &mut self.inner {
            inner.record.detail = Some(detail.into());
        }
    }

    /// Tags the span with a session id.
    pub fn set_session(&mut self, session: u64) {
        if let Some(inner) = &mut self.inner {
            inner.record.session = Some(session);
        }
    }

    /// Tags the span with a kernel sample count.
    pub fn set_samples(&mut self, samples: u64) {
        if let Some(inner) = &mut self.inner {
            inner.record.samples = Some(samples);
        }
    }
}

impl Span {
    /// Completes the span at `end` (a no-op on an inert span).
    pub(crate) fn close_at(&mut self, end: Instant) {
        if let Some(inner) = self.inner.take() {
            (*inner).record(end);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            (*inner).record(Instant::now());
        }
    }
}

impl SpanInner {
    /// Stages the completed span, ending at `end`; a root also flushes
    /// and feeds the slow log.
    fn record(mut self, end: Instant) {
        let r = &mut self.record;
        r.start_us = self.tracer.micros_since_epoch(self.start);
        r.dur_us = end.saturating_duration_since(self.start).as_micros() as u64;
        let (trace, op, dur_us) = (r.trace, r.op, r.dur_us);
        let root = r.parent == 0 && self.flush;
        self.tracer.stage(self.record, self.flush);
        if root {
            self.tracer.finish_root(trace, op, dur_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans_of(v: &Value, key: &str) -> Vec<Value> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| match v {
                    Value::Array(items) => items.clone(),
                    _ => Vec::new(),
                })
                .unwrap_or_default(),
            _ => Vec::new(),
        }
    }

    fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
        match v {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let root = tracer.root_span();
        assert!(!root.is_recording());
        let child = tracer.span(root.ctx(), Phase::Kernel);
        assert!(!child.is_recording());
        drop(child);
        drop(root);
        let out = tracer.query(None, 0, None, 8);
        assert_eq!(field(&out, "recorded").and_then(Value::as_f64), Some(0.0));
    }

    #[test]
    fn root_and_children_assemble_into_one_tree() {
        let tracer = Tracer::new(1, 128, 0);
        let mut root = tracer.root_span();
        root.set_op(Op::Verify);
        {
            let mut kernel = tracer.span(root.ctx(), Phase::Kernel);
            kernel.set_samples(100);
            let _grandchild = tracer.span(kernel.ctx(), Phase::CacheProbe);
        }
        drop(root);
        let out = tracer.query(Some(Op::Verify), 0, None, 8);
        let traces = spans_of(&out, "traces");
        assert_eq!(traces.len(), 1);
        let spans = spans_of(&traces[0], "spans");
        assert_eq!(spans.len(), 1, "one root span, children nested");
        let kids = spans_of(&spans[0], "children");
        assert_eq!(kids.len(), 1);
        assert_eq!(
            field(&kids[0], "phase").and_then(Value::as_str),
            Some("kernel")
        );
        assert_eq!(
            field(&kids[0], "samples").and_then(Value::as_f64),
            Some(100.0)
        );
        let grandkids = spans_of(&kids[0], "children");
        assert_eq!(grandkids.len(), 1);
    }

    #[test]
    fn sampling_traces_one_in_n() {
        let tracer = Tracer::new(3, 128, 0);
        let sampled: Vec<bool> = (0..9).map(|_| tracer.begin_trace().is_enabled()).collect();
        assert_eq!(sampled.iter().filter(|&&s| s).count(), 3);
        assert!(sampled[0]);
    }

    #[test]
    fn recorder_bound_evicts_oldest() {
        let tracer = Tracer::new(1, 4, 0);
        for _ in 0..8 {
            let mut root = tracer.root_span();
            root.set_op(Op::Ping);
        }
        let out = tracer.query(None, 0, None, 64);
        let traces = spans_of(&out, "traces");
        assert_eq!(traces.len(), 4);
        assert!(field(&out, "dropped").and_then(Value::as_f64).unwrap() >= 4.0);
    }

    #[test]
    fn cross_thread_spans_link_to_parent() {
        let tracer = Tracer::new(1, 128, 0);
        let root = tracer.root_span();
        let ctx = root.ctx();
        let worker_tracer = tracer.clone();
        std::thread::spawn(move || {
            let _kernel = worker_tracer.span(ctx, Phase::Kernel);
            drop(_kernel);
            worker_tracer.flush_thread();
        })
        .join()
        .unwrap();
        drop(root);
        let out = tracer.query(None, 0, None, 8);
        let traces = spans_of(&out, "traces");
        assert_eq!(traces.len(), 1);
        let spans = spans_of(&traces[0], "spans");
        let kids = spans_of(&spans[0], "children");
        assert_eq!(kids.len(), 1);
        assert_eq!(
            field(&kids[0], "phase").and_then(Value::as_str),
            Some("kernel")
        );
    }

    #[test]
    fn ambient_ctx_restores_on_exit() {
        assert_eq!(ambient(), TraceCtx::DISABLED);
        let ctx = TraceCtx {
            trace: 7,
            parent: 3,
        };
        with_ctx(ctx, || {
            assert_eq!(ambient(), ctx);
            with_ctx(TraceCtx::DISABLED, || {
                assert_eq!(ambient(), TraceCtx::DISABLED);
            });
            assert_eq!(ambient(), ctx);
        });
        assert_eq!(ambient(), TraceCtx::DISABLED);
    }

    #[test]
    fn session_filter_matches_tagged_spans() {
        let tracer = Tracer::new(1, 128, 0);
        for session in [17u64, 35u64] {
            let mut root = tracer.root_span();
            root.set_op(Op::SessionGetNext);
            let mut kernel = tracer.span(root.ctx(), Phase::Kernel);
            kernel.set_session(session);
        }
        let out = tracer.query(None, 0, Some(17), 8);
        let traces = spans_of(&out, "traces");
        assert_eq!(traces.len(), 1);
    }
}
