//! Live observability: windowed telemetry, per-client resource
//! accounting, worst-case exemplars, and a stall watchdog.
//!
//! Everything in this module answers a question the cumulative
//! counters in [`crate::metrics`] cannot: *what is happening right
//! now, and who is causing it?*
//!
//! * [`WindowRing`] — a ring of per-second telemetry slots. Each op
//!   and phase latency sample (recorded where the request is counted
//!   and by [`crate::metrics::PhaseGuard`]) is also folded into the
//!   current second's slot, so `stats` can report rate, error rate,
//!   shed rate and p50/p90/p99 over the last 10 s / 60 s / 300 s
//!   instead of since boot. Recording is a
//!   handful of relaxed atomic adds — no locks on the hot path — and
//!   each slot keeps the trace id of its worst sample per op as an
//!   *exemplar*, so a windowed p99 spike links straight to a `trace`
//!   span tree.
//! * [`ClientTable`] — a bounded (LRU-capped) table charging kernel
//!   CPU time, queue wait, bytes written, cache hits/misses, sheds and
//!   deadline expiries to the client tag of the request's
//!   [`RequestCtx`] — a batch sub-request's own tag, else its batch's
//!   (anonymous bucket for untagged traffic). A request looks its row up
//!   once, at its first charge, keeps it in its context and charges it
//!   with relaxed atomic adds; a row's recency is the last request that
//!   looked it up.
//!   Read back by the `top` wire op; this is the measurement substrate
//!   for future per-client budgets.
//! * [`Watchdog`] — supervisor state: per-worker busy stamps, journal
//!   heartbeats and metrics-scrape heartbeats, scanned once a second
//!   by a supervisor thread that emits structured warnings, flips
//!   `/healthz` to degraded, and feeds the `debug.dump` op.
//!
//! Windowed counts account for every record. The first recorder to
//! reach a slot in a new second claims it by swapping its epoch to a
//! `RECYCLING` sentinel, zeroes it, and only then publishes the new
//! epoch, so no record can land in a slot that is about to be wiped.
//! A recorder that meets the sentinel (the slot is mid-reset on another
//! thread) drops that one sample from the window and counts the drop in
//! [`WindowRing::skipped_records`]; the cumulative series always keeps
//! it. So for a window's seconds, windowed count + skipped = recorded,
//! and a windowed count never exceeds its cumulative twin. Readers skip
//! a slot whose epoch is not the second they sum, so they never see a
//! half-zeroed slot. The one residual race needs a recorder to stall
//! between its epoch check and its add for the ring's whole length
//! (`SLOTS` seconds), while the slot is recycled for a later second.

use crate::cache::LruCache;
use crate::ctx::RequestCtx;
use crate::lockorder::{rank, OrderedMutex};
use crate::proto::{not_one_of, Object, Op, ServiceResult};
use serde_json::Value;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::metrics::{
    bucket_index, quantile_upper_bound, Kind, Metric, Phase, PhaseSlot, Sink, LATENCY_BUCKETS,
};

/// The reporting horizons, in seconds, of the `window` stats block.
pub const WINDOWS: &[u64] = &[10, 60, 300];

/// Ring capacity in one-second slots — a little above the largest
/// window so the slot being recycled for the in-progress second never
/// aliases a slot still inside the 300 s horizon.
const SLOTS: usize = 304;

/// Slot epoch while one recorder zeroes the slot for a new second.
const RECYCLING: u64 = u64::MAX;

/// One second of telemetry. `epoch` holds `second + 1` (0 = never
/// used) so slot zero at boot is distinguishable from an empty slot,
/// or [`RECYCLING`] while the slot is being zeroed.
struct Slot {
    epoch: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    sheds: AtomicU64,
    /// `Op::ALL.len() × LATENCY_BUCKETS` log2 bucket counts, row-major.
    op_buckets: Vec<AtomicU64>,
    /// `Phase::STATS_NAMES.len() × LATENCY_BUCKETS` log2 bucket counts,
    /// row-major by histogram slot.
    phase_buckets: Vec<AtomicU64>,
    /// Worst sample seen this second, per op (micros).
    op_worst: Vec<AtomicU64>,
    /// Trace id of the worst sample, per op (0 = untraced).
    op_exemplar: Vec<AtomicU64>,
}

impl Slot {
    fn new() -> Self {
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        Slot {
            epoch: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            op_buckets: zeros(Op::ALL.len() * LATENCY_BUCKETS),
            phase_buckets: zeros(Phase::STATS_NAMES.len() * LATENCY_BUCKETS),
            op_worst: zeros(Op::ALL.len()),
            op_exemplar: zeros(Op::ALL.len()),
        }
    }

    fn reset(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.errors.store(0, Ordering::Relaxed);
        self.sheds.store(0, Ordering::Relaxed);
        for c in &self.op_buckets {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.phase_buckets {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.op_worst {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.op_exemplar {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// A lock-cheap ring of per-second telemetry slots (see module docs).
///
/// The `record_*` methods but `record_phase` have `*_at(sec, …)` twins
/// taking an explicit second — the injected-clock seam the deterministic
/// rotation tests drive; production callers use the wall-clock wrappers.
pub struct WindowRing {
    started: Instant,
    slots: Vec<Slot>,
    /// Records dropped because their slot was mid-reset.
    skipped: AtomicU64,
}

impl Default for WindowRing {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for WindowRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowRing")
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl WindowRing {
    pub fn new() -> Self {
        WindowRing {
            started: Instant::now(),
            slots: (0..SLOTS).map(|_| Slot::new()).collect(),
            skipped: AtomicU64::new(0),
        }
    }

    /// Records dropped from the window because another thread was
    /// zeroing their slot for a new second (see module docs).
    pub fn skipped_records(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    /// Seconds since the ring was created — the ring's wall clock.
    #[inline]
    pub fn now_sec(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The live slot for `sec`, recycling (and zeroing) the ring
    /// position when the second has advanced past its previous tenant.
    /// `None` — counted in `skipped` — when another recorder is zeroing
    /// the slot right now. The steady state is one `Acquire` load.
    fn slot_for(&self, sec: u64) -> Option<&Slot> {
        let slot = &self.slots[(sec as usize) % SLOTS];
        let want = sec + 1;
        let seen = slot.epoch.load(Ordering::Acquire);
        if seen == want {
            return Some(slot);
        }
        if seen != RECYCLING
            && slot
                .epoch
                .compare_exchange(seen, RECYCLING, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            // Release pairs with the Acquire epoch loads here and in
            // `aggregate`: whoever sees `want` sees the zeroed slot.
            slot.reset();
            slot.epoch.store(want, Ordering::Release);
            return Some(slot);
        }
        // Another recorder claimed the slot first; use it only if that
        // recorder has already published the zeroed slot for `sec`.
        if slot.epoch.load(Ordering::Acquire) == want {
            return Some(slot);
        }
        self.skipped.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Folds one op-latency sample (already recorded cumulatively)
    /// into the current second. `trace` is the sample's trace id (0 =
    /// untraced) — kept as the slot's exemplar if this is its worst
    /// sample so far. The sample counts as one windowed request.
    pub fn record_op(&self, op: Op, micros: u64, trace: u64) {
        self.record_op_at(self.now_sec(), op, micros, trace);
    }

    pub fn record_op_at(&self, sec: u64, op: Op, micros: u64, trace: u64) {
        let Some(slot) = self.slot_for(sec) else {
            return;
        };
        let op = op as usize;
        slot.requests.fetch_add(1, Ordering::Relaxed);
        slot.op_buckets[op * LATENCY_BUCKETS + bucket_index(micros)]
            .fetch_add(1, Ordering::Relaxed);
        let prev = slot.op_worst[op].fetch_max(micros, Ordering::Relaxed);
        if micros >= prev && trace != 0 {
            slot.op_exemplar[op].store(trace, Ordering::Relaxed);
        }
    }

    /// Counts one request that records no op sample (its op did not
    /// resolve, or no handler ran) in the current second.
    pub fn record_request(&self) {
        self.record_request_at(self.now_sec());
    }

    pub fn record_request_at(&self, sec: u64) {
        if let Some(slot) = self.slot_for(sec) {
            slot.requests.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Folds one phase-latency sample into the current second (only a
    /// [`PhaseGuard`](crate::metrics::PhaseGuard) holds a `PhaseSlot`).
    pub fn record_phase(&self, phase: PhaseSlot, micros: u64) {
        let Some(slot) = self.slot_for(self.now_sec()) else {
            return;
        };
        slot.phase_buckets[phase.index() * LATENCY_BUCKETS + bucket_index(micros)]
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one failed request in the current second.
    pub fn record_error(&self) {
        self.record_error_at(self.now_sec());
    }

    pub fn record_error_at(&self, sec: u64) {
        if let Some(slot) = self.slot_for(sec) {
            slot.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one shed (admission refusal) in the current second.
    pub fn record_shed(&self) {
        self.record_shed_at(self.now_sec());
    }

    pub fn record_shed_at(&self, sec: u64) {
        if let Some(slot) = self.slot_for(sec) {
            slot.sheds.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sums the live slots inside `(now - window, now]`.
    fn aggregate(&self, now: u64, window: u64) -> WindowAgg {
        let mut agg = WindowAgg::new();
        let lo = now.saturating_sub(window - 1);
        for sec in lo..=now {
            let slot = &self.slots[(sec as usize) % SLOTS];
            if slot.epoch.load(Ordering::Acquire) != sec + 1 {
                continue;
            }
            agg.requests += slot.requests.load(Ordering::Relaxed);
            agg.errors += slot.errors.load(Ordering::Relaxed);
            agg.sheds += slot.sheds.load(Ordering::Relaxed);
            for (i, c) in slot.op_buckets.iter().enumerate() {
                agg.op_buckets[i] += c.load(Ordering::Relaxed);
            }
            for (i, c) in slot.phase_buckets.iter().enumerate() {
                agg.phase_buckets[i] += c.load(Ordering::Relaxed);
            }
            for op in 0..Op::ALL.len() {
                let worst = slot.op_worst[op].load(Ordering::Relaxed);
                if worst > agg.op_worst[op].0 {
                    agg.op_worst[op] = (worst, slot.op_exemplar[op].load(Ordering::Relaxed));
                }
            }
        }
        agg
    }

    /// The aggregates over each of [`WINDOWS`] as of second `now`.
    fn aggregates(&self, now: u64) -> Vec<WindowAgg> {
        WINDOWS.iter().map(|&w| self.aggregate(now, w)).collect()
    }

    /// The `window` stats block as of second `now` (injected-clock
    /// twin of [`export`](Self::export)).
    pub fn to_value_at(&self, now: u64) -> Value {
        window_value(&self.aggregates(now))
    }

    /// Exports the `window` stats block and the `srank_window_*` gauge
    /// families (labelled by `window` and, where relevant,
    /// `op`/`phase`/`trace`), all from one set of aggregates at the
    /// ring's current second.
    pub(crate) fn export(&self, s: &mut Sink) {
        let aggs = self.aggregates(self.now_sec());
        s.info("window", window_value(&aggs));
        let windows = || WINDOWS.iter().zip(&aggs);
        let rates = [
            Metric::new(
                Kind::WindowedGauge,
                "window.rate",
                "srank_window_rate",
                "Requests per second over the window.",
            ),
            Metric::new(
                Kind::WindowedGauge,
                "window.error_rate",
                "srank_window_error_rate",
                "Failed requests per second over the window.",
            ),
            Metric::new(
                Kind::WindowedGauge,
                "window.shed_rate",
                "srank_window_shed_rate",
                "Shed requests per second over the window.",
            ),
        ];
        for (i, metric) in rates.into_iter().enumerate() {
            s.family(metric, |out| {
                for (w, agg) in windows() {
                    let count = [agg.requests, agg.errors, agg.sheds][i];
                    out.push("", &format!("window=\"{w}s\""), count as f64 / *w as f64);
                }
            });
        }
        // (quantile, per op rather than per phase, family)
        let quantiles = [
            (
                0.50,
                true,
                Metric::new(
                    Kind::WindowedGauge,
                    "window.ops.p50",
                    "srank_window_op_p50_micros",
                    "Windowed per-op latency p50 upper bound.",
                ),
            ),
            (
                0.90,
                true,
                Metric::new(
                    Kind::WindowedGauge,
                    "window.ops.p90",
                    "srank_window_op_p90_micros",
                    "Windowed per-op latency p90 upper bound.",
                ),
            ),
            (
                0.99,
                true,
                Metric::new(
                    Kind::WindowedGauge,
                    "window.ops.p99",
                    "srank_window_op_p99_micros",
                    "Windowed per-op latency p99 upper bound.",
                ),
            ),
            (
                0.50,
                false,
                Metric::new(
                    Kind::WindowedGauge,
                    "window.phases.p50",
                    "srank_window_phase_p50_micros",
                    "Windowed per-phase latency p50 upper bound.",
                ),
            ),
            (
                0.99,
                false,
                Metric::new(
                    Kind::WindowedGauge,
                    "window.phases.p99",
                    "srank_window_phase_p99_micros",
                    "Windowed per-phase latency p99 upper bound.",
                ),
            ),
        ];
        for (q, per_op, metric) in quantiles {
            s.family(metric, |out| {
                for (w, agg) in windows() {
                    let (label, buckets) = if per_op {
                        ("op", &agg.op_buckets)
                    } else {
                        ("phase", &agg.phase_buckets)
                    };
                    for (i, row) in buckets.chunks(LATENCY_BUCKETS).enumerate() {
                        let name = match per_op {
                            true => Op::ALL[i].name(),
                            false => Phase::STATS_NAMES[i],
                        };
                        if let Some(v) = quantile_upper_bound(row, q) {
                            out.push("", &format!("window=\"{w}s\",{label}=\"{name}\""), v);
                        }
                    }
                }
            });
        }
        let exemplar = Metric::new(
            Kind::WindowedGauge,
            "window.ops.worst_micros",
            "srank_window_exemplar_micros",
            "Worst windowed sample per op; the trace label resolves via the trace op.",
        );
        s.family(exemplar, |out| {
            for (w, agg) in windows() {
                for (op, &(worst, trace)) in Op::ALL.iter().zip(&agg.op_worst) {
                    if trace != 0 {
                        let op = op.name();
                        let labels = format!("window=\"{w}s\",op=\"{op}\",trace=\"{trace}\"");
                        out.push("", &labels, worst);
                    }
                }
            }
        });
    }
}

/// The `window` stats block from the per-window aggregates (in
/// [`WINDOWS`] order). Shape: at-a-glance summary fields over the
/// shortest window (`rate`/`error_rate`/`shed_rate`, plus `ops`/`phases`
/// quantiles merged across all ops), then one block per window
/// (`"10s"`, `"60s"`, `"300s"`) with per-op and per-phase breakdowns.
fn window_value(aggs: &[WindowAgg]) -> Value {
    const P50_P90_P99: &[(&str, f64)] = &[("p50", 0.50), ("p90", 0.90), ("p99", 0.99)];
    let mut out = Object::new();
    if let Some(head) = aggs.first() {
        let span = WINDOWS[0] as f64;
        let (worst, trace) = head
            .op_worst
            .iter()
            .copied()
            .max_by_key(|&(micros, _)| micros)
            .unwrap_or((0, 0));
        let ops = quantiles(&merged(&head.op_buckets), P50_P90_P99);
        let phases = quantiles(
            &merged(&head.phase_buckets),
            &[("p50", 0.50), ("p99", 0.99)],
        );
        out = out
            .field("rate", head.requests as f64 / span)
            .field("error_rate", head.errors as f64 / span)
            .field("shed_rate", head.sheds as f64 / span)
            .field("ops", with_worst(ops, worst, trace))
            .field("phases", phases.build());
    }
    for (&window, agg) in WINDOWS.iter().zip(aggs) {
        let span = window as f64;
        let mut ops = Object::new();
        let rows = Op::ALL.iter().zip(agg.op_buckets.chunks(LATENCY_BUCKETS));
        for ((op, row), &(worst, trace)) in rows.zip(&agg.op_worst) {
            if row.iter().any(|&c| c > 0) {
                let entry = with_worst(quantiles(row, P50_P90_P99), worst, trace);
                ops = ops.field(op.name(), entry);
            }
        }
        let mut phases = Object::new();
        for (name, row) in Phase::STATS_NAMES
            .iter()
            .zip(agg.phase_buckets.chunks(LATENCY_BUCKETS))
        {
            if row.iter().any(|&c| c > 0) {
                phases = phases.field(name, quantiles(row, P50_P90_P99).build());
            }
        }
        let block = Object::new()
            .field("requests", agg.requests)
            .field("errors", agg.errors)
            .field("sheds", agg.sheds)
            .field("rate", agg.requests as f64 / span)
            .field("error_rate", agg.errors as f64 / span)
            .field("shed_rate", agg.sheds as f64 / span)
            .field("ops", ops.build())
            .field("phases", phases.build());
        out = out.field(&format!("{window}s"), block.build());
    }
    out.build()
}

/// `{"count", <quantile upper bounds>…}` over one bucket row.
fn quantiles(row: &[u64], qs: &[(&str, f64)]) -> Object {
    let mut out = Object::new().field("count", row.iter().sum::<u64>());
    for &(key, q) in qs {
        out = out.field(key, quantile_upper_bound(row, q).unwrap_or(0));
    }
    out
}

/// Appends the worst sample, and its trace when it was traced.
fn with_worst(entry: Object, worst: u64, trace: u64) -> Value {
    let entry = entry.field("worst_micros", worst);
    if trace == 0 {
        entry.build()
    } else {
        entry.field("exemplar_trace", trace).build()
    }
}

/// Sums row-major bucket rows into one row.
fn merged(buckets: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; LATENCY_BUCKETS];
    for row in buckets.chunks(LATENCY_BUCKETS) {
        for (m, b) in out.iter_mut().zip(row) {
            *m += b;
        }
    }
    out
}

/// Merged view of the slots inside one window.
struct WindowAgg {
    requests: u64,
    errors: u64,
    sheds: u64,
    op_buckets: Vec<u64>,
    phase_buckets: Vec<u64>,
    /// Per op: (worst micros, trace id of that sample).
    op_worst: Vec<(u64, u64)>,
}

impl WindowAgg {
    fn new() -> Self {
        WindowAgg {
            requests: 0,
            errors: 0,
            sheds: 0,
            op_buckets: vec![0; Op::ALL.len() * LATENCY_BUCKETS],
            phase_buckets: vec![0; Phase::STATS_NAMES.len() * LATENCY_BUCKETS],
            op_worst: vec![(0, 0); Op::ALL.len()],
        }
    }
}

// ---------------------------------------------------------------------------
// Per-client resource accounting
// ---------------------------------------------------------------------------

/// Default cardinality bound of the per-client table.
pub const DEFAULT_CLIENT_TABLE_CAP: usize = 64;

/// The table key for requests that carry no `"client"` tag.
pub const ANONYMOUS_CLIENT: &str = "(anonymous)";

/// One `top` column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Usage {
    Requests,
    Errors,
    KernelCpuMicros,
    QueueWaitMicros,
    BytesWritten,
    CacheHits,
    CacheMisses,
    Sheds,
    DeadlineExpired,
}

impl Usage {
    /// The `top` columns with their names, in row order: the one list
    /// behind both the `sort_by` key and the row rendering.
    pub(crate) const ALL: [(Usage, &'static str); 9] = [
        (Usage::Requests, "requests"),
        (Usage::Errors, "errors"),
        (Usage::KernelCpuMicros, "kernel_cpu_micros"),
        (Usage::QueueWaitMicros, "queue_wait_micros"),
        (Usage::BytesWritten, "bytes_written"),
        (Usage::CacheHits, "cache_hits"),
        (Usage::CacheMisses, "cache_misses"),
        (Usage::Sheds, "sheds"),
        (Usage::DeadlineExpired, "deadline_expired"),
    ];
}

/// Resources one client tag has consumed since boot (or since its row
/// was LRU-evicted and re-created): one counter per [`Usage`] column,
/// charged without the table's lock.
#[derive(Debug, Default)]
pub struct ClientUsage([AtomicU64; Usage::ALL.len()]);

impl ClientUsage {
    /// Adds `n` to `column`.
    pub(crate) fn add(&self, column: Usage, n: u64) {
        self.0[column as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The current value of `column`.
    pub(crate) fn get(&self, column: Usage) -> u64 {
        self.0[column as usize].load(Ordering::Relaxed)
    }
}

/// Where one request keeps its accounting row: resolved from its tag at
/// the request's first charge and shared by every clone of its context,
/// so a request looks the table up once. The default holds no slot.
#[derive(Clone, Debug, Default)]
pub struct UsageSlot(Option<Arc<OnceLock<Arc<ClientUsage>>>>);

impl UsageSlot {
    /// No slot: every charge looks its row up.
    pub(crate) const NONE: UsageSlot = UsageSlot(None);

    /// An empty slot for one request.
    pub(crate) fn new() -> Self {
        UsageSlot(Some(Arc::default()))
    }
}

/// A bounded per-client usage table (see module docs). The LRU cap
/// bounds cardinality against tag-spraying clients; the anonymous
/// bucket aggregates untagged traffic and is pinned by regular use
/// like any other row.
pub struct ClientTable {
    rows: OrderedMutex<rank::ClientTable, LruCache<Arc<str>, Arc<ClientUsage>>>,
    evicted: AtomicU64,
    capacity: usize,
}

impl std::fmt::Debug for ClientTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientTable")
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl ClientTable {
    /// A table bounded at `capacity` rows. `0` disables accounting
    /// entirely: every charge becomes a single branch (the bench
    /// baseline and the operator escape hatch).
    pub fn new(capacity: usize) -> Self {
        ClientTable {
            rows: OrderedMutex::new(LruCache::new(capacity.max(1))),
            evicted: AtomicU64::new(0),
            capacity,
        }
    }

    /// Whether charges are recorded at all (`capacity > 0`).
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The row for `tag` (the anonymous bucket when untagged), marked
    /// most recently used, created — and the coldest row LRU-evicted —
    /// as needed; `None` when accounting is off.
    pub(crate) fn row(&self, tag: Option<&str>) -> Option<Arc<ClientUsage>> {
        if self.capacity == 0 {
            return None;
        }
        let tag = tag.unwrap_or(ANONYMOUS_CLIENT);
        let mut rows = self.rows.lock();
        if let Some(row) = rows.get(tag) {
            return Some(Arc::clone(row));
        }
        let row = Arc::new(ClientUsage::default());
        let before = rows.len();
        rows.insert(Arc::from(tag), Arc::clone(&row));
        if rows.len() == before && before == self.capacity {
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        Some(row)
    }

    /// Applies `f` to the row of the current [`RequestCtx`]'s tag.
    pub fn charge(&self, f: impl FnOnce(&ClientUsage)) {
        if self.capacity == 0 {
            return;
        }
        RequestCtx::with_usage(|slot, tag| self.charge_in(slot, tag, f));
    }

    /// Applies `f` to `tag`'s row, kept in `slot`: the first charge of a
    /// request looks the row up (which is when a new row is created and
    /// the coldest evicted), later ones read it from the slot. Without a
    /// slot every charge looks the row up.
    pub(crate) fn charge_in(
        &self,
        slot: &UsageSlot,
        tag: Option<&str>,
        f: impl FnOnce(&ClientUsage),
    ) {
        match &slot.0 {
            Some(cell) => match cell.get() {
                Some(row) => f(row),
                None => {
                    if let Some(row) = self.row(tag) {
                        f(cell.get_or_init(|| row));
                    }
                }
            },
            None => {
                if let Some(row) = self.row(tag) {
                    f(&row);
                }
            }
        }
    }

    /// Rows currently tracked.
    pub fn len(&self) -> usize {
        self.rows.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows evicted by the cardinality bound since boot.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// The `top` op's result: rows sorted by `sort_by` (descending),
    /// truncated to `limit`. `sort_by` must name one of the [`Usage`]
    /// columns.
    pub fn top_value(&self, sort_by: &str, limit: usize) -> ServiceResult<Value> {
        let names = Usage::ALL.map(|(_, name)| name);
        let key = names
            .iter()
            .position(|name| *name == sort_by)
            .ok_or_else(|| not_one_of("sort_by", sort_by, &names))?;
        // Each row is read once, so it sorts and renders one set of values.
        let mut rows: Vec<(Arc<str>, [u64; Usage::ALL.len()])> = {
            let table = self.rows.lock();
            table
                .iter_lru()
                .map(|(tag, u)| (tag.clone(), Usage::ALL.map(|(column, _)| u.get(column))))
                .collect()
        };
        rows.sort_by(|a, b| b.1[key].cmp(&a.1[key]).then(a.0.cmp(&b.0)));
        rows.truncate(limit);
        let clients: Vec<Value> = rows
            .iter()
            .map(|(tag, values)| {
                let row = Object::new().field("client", tag.as_ref());
                names
                    .iter()
                    .zip(values)
                    .fold(row, |row, (name, &value)| row.field(name, value))
                    .build()
            })
            .collect();
        Ok(Object::new()
            .field("sorted_by", sort_by)
            .field("tracked", self.len())
            .field("capacity", self.capacity)
            .field("evicted", self.evicted())
            .field("clients", Value::Array(clients))
            .build())
    }

    /// Exports the `clients` block: the table's cardinality.
    pub(crate) fn export(&self, s: &mut Sink) {
        s.gauge(
            "tracked",
            "srank_clients_tracked",
            "Client tags currently tracked by the accounting table.",
            self.len(),
        );
        s.info("capacity", self.capacity);
        s.counter(
            "evicted",
            "srank_clients_evicted_total",
            "Client rows evicted by the cardinality bound.",
            self.evicted(),
        );
    }
}

/// CPU time consumed by the calling thread, in microseconds, read from
/// `CLOCK_THREAD_CPUTIME_ID` (libc's `clock_gettime`, already linked by
/// std; no crate needed). The kernel answers that clock to the
/// nanosecond, where the running thread's `/proc/thread-self/schedstat`
/// only moves at scheduler ticks and charges most sub-millisecond kernels
/// nothing. Returns `None` off 64-bit Linux or when the call fails;
/// callers fall back to wall-clock attribution. Read once at kernel entry and once at
/// exit — not per sample chunk — to keep the accounting overhead inside
/// the obs layer's ≲2% budget.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_micros() -> Option<u64> {
    use std::os::raw::c_int;
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the call's duration.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return None;
    }
    let secs = u64::try_from(ts.tv_sec).ok()?;
    let nanos = u64::try_from(ts.tv_nsec).ok()?;
    Some(secs * 1_000_000 + nanos / 1_000)
}

/// Elsewhere no thread CPU clock is read: callers charge wall clock
/// instead.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_micros() -> Option<u64> {
    None
}

/// A running kernel-CPU measurement: captures thread CPU time at
/// construction and charges the delta (wall-clock fallback) on
/// [`finish`](Self::finish).
pub struct CpuTimer {
    cpu_start: Option<u64>,
    wall_start: Instant,
}

impl CpuTimer {
    pub fn start() -> Self {
        CpuTimer {
            cpu_start: thread_cpu_micros(),
            wall_start: Instant::now(),
        }
    }

    /// Microseconds of thread CPU consumed since `start` (wall-clock
    /// fallback when the thread CPU clock is unavailable).
    pub fn finish(self) -> u64 {
        match (self.cpu_start, thread_cpu_micros()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => self.wall_start.elapsed().as_micros() as u64,
        }
    }
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

/// Maximum worker slots the watchdog tracks busy stamps for.
pub const MAX_WATCHED_WORKERS: usize = 64;

/// Shared watchdog state: heartbeat stamps written by the pool, store
/// and metrics endpoint; scanned by the supervisor thread.
pub struct Watchdog {
    started: Instant,
    /// Per-worker: millisecond stamp when the current job started
    /// (0 = idle). Written by the pool's worker loop.
    busy_since_ms: Vec<AtomicU64>,
    /// Millisecond stamp of the last journal write *attempt*.
    journal_attempt_ms: AtomicU64,
    /// Millisecond stamp of the last journal write *success*.
    journal_ok_ms: AtomicU64,
    /// Millisecond stamp when the most recent metrics render started.
    scrape_start_ms: AtomicU64,
    /// Millisecond stamp when the most recent metrics render finished.
    scrape_end_ms: AtomicU64,
    /// Whether the watchdog currently considers the service degraded.
    degraded: AtomicBool,
    /// Stalled workers found by the last scan.
    stalled_workers: AtomicU64,
    /// Scans performed since boot.
    scans: AtomicU64,
    /// Structured warnings emitted since boot.
    warnings: AtomicU64,
    /// Supervisor shutdown flag (set on engine drop).
    shutdown: AtomicBool,
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog")
            .field("degraded", &self.is_degraded())
            .finish()
    }
}

impl Default for Watchdog {
    fn default() -> Self {
        Self::new()
    }
}

impl Watchdog {
    pub fn new() -> Self {
        Watchdog {
            started: Instant::now(),
            busy_since_ms: (0..MAX_WATCHED_WORKERS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            journal_attempt_ms: AtomicU64::new(0),
            journal_ok_ms: AtomicU64::new(0),
            scrape_start_ms: AtomicU64::new(0),
            scrape_end_ms: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            stalled_workers: AtomicU64::new(0),
            scans: AtomicU64::new(0),
            warnings: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Milliseconds since watchdog creation, offset by 1 so a live
    /// stamp is never 0 (0 means "idle"/"never").
    #[inline]
    pub fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64 + 1
    }

    /// Pool worker `slot` started executing a job.
    #[inline]
    pub fn worker_busy(&self, slot: usize) {
        if let Some(s) = self.busy_since_ms.get(slot) {
            s.store(self.now_ms(), Ordering::Relaxed);
        }
    }

    /// Pool worker `slot` finished its job.
    #[inline]
    pub fn worker_idle(&self, slot: usize) {
        if let Some(s) = self.busy_since_ms.get(slot) {
            s.store(0, Ordering::Relaxed);
        }
    }

    /// How long each currently-busy worker has been executing, in
    /// milliseconds, as `(slot, busy_ms)` pairs.
    pub fn busy_workers(&self) -> Vec<(usize, u64)> {
        let now = self.now_ms();
        self.busy_since_ms
            .iter()
            .enumerate()
            .filter_map(|(slot, s)| {
                let since = s.load(Ordering::Relaxed);
                (since != 0).then(|| (slot, now.saturating_sub(since)))
            })
            .collect()
    }

    /// A journal write is being attempted.
    pub fn journal_attempt(&self) {
        self.journal_attempt_ms
            .store(self.now_ms(), Ordering::Relaxed);
    }

    /// A journal write completed successfully.
    pub fn journal_ok(&self) {
        self.journal_ok_ms.store(self.now_ms(), Ordering::Relaxed);
    }

    /// A metrics render (scrape or `/healthz`) is starting.
    pub fn scrape_start(&self) {
        self.scrape_start_ms.store(self.now_ms(), Ordering::Relaxed);
    }

    /// A metrics render finished.
    pub fn scrape_end(&self) {
        self.scrape_end_ms.store(self.now_ms(), Ordering::Relaxed);
    }

    /// Whether the last scan found the service degraded (stalled
    /// worker, wedged journal, or starved metrics endpoint).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// One supervisor scan: returns the current findings and updates
    /// the degraded flag and gauges. `stall_ms` is the stalled-worker
    /// threshold; the journal and scrape thresholds derive from it.
    pub fn scan(&self, stall_ms: u64) -> Vec<WatchdogFinding> {
        self.scans.fetch_add(1, Ordering::Relaxed);
        let now = self.now_ms();
        let mut findings = Vec::new();
        let mut stalled = 0u64;
        for (slot, busy_ms) in self.busy_workers() {
            if busy_ms >= stall_ms {
                stalled += 1;
                findings.push(WatchdogFinding {
                    kind: "stalled_worker",
                    detail: format!("worker {slot} executing for {busy_ms} ms"),
                });
            }
        }
        self.stalled_workers.store(stalled, Ordering::Relaxed);
        let attempt = self.journal_attempt_ms.load(Ordering::Relaxed);
        let ok = self.journal_ok_ms.load(Ordering::Relaxed);
        if attempt != 0 && attempt > ok && now.saturating_sub(attempt) >= stall_ms {
            findings.push(WatchdogFinding {
                kind: "wedged_journal",
                detail: format!(
                    "journal write pending for {} ms",
                    now.saturating_sub(attempt)
                ),
            });
        }
        let scrape_start = self.scrape_start_ms.load(Ordering::Relaxed);
        let scrape_end = self.scrape_end_ms.load(Ordering::Relaxed);
        if scrape_start != 0
            && scrape_start > scrape_end
            && now.saturating_sub(scrape_start) >= stall_ms
        {
            findings.push(WatchdogFinding {
                kind: "metrics_starvation",
                detail: format!(
                    "metrics render running for {} ms",
                    now.saturating_sub(scrape_start)
                ),
            });
        }
        if !findings.is_empty() {
            self.warnings
                .fetch_add(findings.len() as u64, Ordering::Relaxed);
        }
        self.degraded.store(!findings.is_empty(), Ordering::Relaxed);
        findings
    }

    /// Exports the `watchdog` block of `stats`/`health`/`debug.dump`.
    pub(crate) fn export(&self, s: &mut Sink) {
        s.gauge(
            "degraded",
            "srank_watchdog_degraded",
            "1 when the watchdog considers the service degraded.",
            self.is_degraded(),
        );
        s.gauge(
            "stalled_workers",
            "srank_watchdog_stalled_workers",
            "Workers stalled past the threshold at the last scan.",
            self.stalled_workers.load(Ordering::Relaxed),
        );
        s.counter(
            "scans",
            "srank_watchdog_scans_total",
            "Watchdog scans since boot.",
            self.scans.load(Ordering::Relaxed),
        );
        s.counter(
            "warnings",
            "srank_watchdog_warnings_total",
            "Watchdog warnings emitted since boot.",
            self.warnings.load(Ordering::Relaxed),
        );
        let busy: Vec<Value> = self
            .busy_workers()
            .iter()
            .map(|&(slot, ms)| {
                Object::new()
                    .field("worker", slot)
                    .field("busy_ms", ms)
                    .build()
            })
            .collect();
        s.info("busy_workers", busy);
    }
}

/// One watchdog finding, as scanned.
pub struct WatchdogFinding {
    /// Finding class: `stalled_worker`, `wedged_journal` or
    /// `metrics_starvation`.
    pub kind: &'static str,
    /// Human-readable specifics (worker slot, stall age).
    pub detail: String,
}

// ---------------------------------------------------------------------------
// The obs bundle
// ---------------------------------------------------------------------------

/// The engine's observability bundle: one windowed ring, one client
/// table, one watchdog. Each piece is its own `Arc` so the latency
/// histograms, the worker pool, the metrics transport and the
/// supervisor thread can hold exactly the handle they need.
#[derive(Clone, Debug)]
pub struct Obs {
    pub window: Arc<WindowRing>,
    pub clients: Arc<ClientTable>,
    pub watchdog: Arc<Watchdog>,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    pub fn new() -> Self {
        Self::with_client_capacity(DEFAULT_CLIENT_TABLE_CAP)
    }

    pub fn with_client_capacity(client_capacity: usize) -> Self {
        Obs {
            window: Arc::new(WindowRing::new()),
            clients: Arc::new(ClientTable::new(client_capacity)),
            watchdog: Arc::new(Watchdog::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
        match v {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn window_block<'a>(v: &'a Value, window: &str) -> &'a Value {
        field(v, window).expect("window block")
    }

    #[test]
    fn windowed_counts_appear_in_matching_horizons() {
        let ring = WindowRing::new();
        let verify = Op::Verify;
        // Three samples at second 1000, one at second 1050.
        for _ in 0..3 {
            ring.record_op_at(1000, verify, 100, 0);
        }
        ring.record_op_at(1050, verify, 100, 0);
        let v = ring.to_value_at(1050);
        let in_10s = window_block(&v, "10s");
        assert_eq!(
            field(in_10s, "requests").and_then(Value::as_u64),
            Some(1),
            "only the second-1050 sample is inside the 10s horizon"
        );
        let in_60s = window_block(&v, "60s");
        assert_eq!(field(in_60s, "requests").and_then(Value::as_u64), Some(4));
        let in_300s = window_block(&v, "300s");
        assert_eq!(field(in_300s, "requests").and_then(Value::as_u64), Some(4));
    }

    #[test]
    fn ring_rotation_recycles_slots_deterministically() {
        let ring = WindowRing::new();
        let ping = Op::Ping;
        ring.record_op_at(7, ping, 10, 0);
        // Second 7 + SLOTS lands on the same ring slot; recording there
        // must evict the old second's data, not add to it.
        ring.record_op_at(7 + SLOTS as u64, ping, 10, 0);
        ring.record_op_at(7 + SLOTS as u64, ping, 10, 0);
        let v = ring.to_value_at(7 + SLOTS as u64);
        let in_10s = window_block(&v, "10s");
        assert_eq!(field(in_10s, "requests").and_then(Value::as_u64), Some(2));
        // The old second's view is gone: its slot now belongs to the
        // new second, so a window over the old time range is empty.
        let old = ring.to_value_at(7);
        let old_10s = window_block(&old, "10s");
        assert_eq!(field(old_10s, "requests").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn window_percentiles_use_log2_upper_bounds() {
        let ring = WindowRing::new();
        let verify = Op::Verify;
        for _ in 0..90 {
            ring.record_op_at(5, verify, 3, 0); // bucket [2, 4)
        }
        for _ in 0..10 {
            ring.record_op_at(5, verify, 1000, 0); // bucket [512, 1024)
        }
        let v = ring.to_value_at(5);
        let ops = field(window_block(&v, "10s"), "ops").unwrap();
        let verify_block = field(ops, "verify").unwrap();
        assert_eq!(field(verify_block, "p50").and_then(Value::as_u64), Some(4));
        assert_eq!(field(verify_block, "p90").and_then(Value::as_u64), Some(4));
        assert_eq!(
            field(verify_block, "p99").and_then(Value::as_u64),
            Some(1024)
        );
    }

    #[test]
    fn exemplar_tracks_worst_sample_trace() {
        let ring = WindowRing::new();
        let verify = Op::Verify;
        ring.record_op_at(9, verify, 50, 11);
        ring.record_op_at(9, verify, 5000, 42); // the worst sample
        ring.record_op_at(9, verify, 100, 13);
        let v = ring.to_value_at(9);
        let ops = field(window_block(&v, "10s"), "ops").unwrap();
        let verify_block = field(ops, "verify").unwrap();
        assert_eq!(
            field(verify_block, "worst_micros").and_then(Value::as_u64),
            Some(5000)
        );
        assert_eq!(
            field(verify_block, "exemplar_trace").and_then(Value::as_u64),
            Some(42)
        );
    }

    #[test]
    fn errors_and_sheds_fold_into_rates() {
        let ring = WindowRing::new();
        ring.record_op_at(20, Op::Ping, 10, 0);
        ring.record_error_at(20);
        ring.record_shed_at(20);
        ring.record_shed_at(20);
        let v = ring.to_value_at(20);
        let b = window_block(&v, "10s");
        assert_eq!(field(b, "errors").and_then(Value::as_u64), Some(1));
        assert_eq!(field(b, "sheds").and_then(Value::as_u64), Some(2));
        let rate = field(b, "shed_rate").and_then(Value::as_f64).unwrap();
        assert!((rate - 0.2).abs() < 1e-9, "2 sheds over 10s");
    }

    #[test]
    fn client_table_caps_cardinality_with_lru_eviction() {
        let table = ClientTable::new(2);
        let charge = |tag| table.row(Some(tag)).unwrap().add(Usage::Requests, 1);
        charge("a");
        charge("b");
        charge("a"); // refresh a
        charge("c"); // evicts b
        assert_eq!(table.len(), 2);
        assert_eq!(table.evicted(), 1);
        let v = table.top_value("requests", 10).unwrap();
        let clients = field(&v, "clients").and_then(Value::as_array).unwrap();
        let tags: Vec<&str> = clients
            .iter()
            .map(|c| field(c, "client").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(tags, vec!["a", "c"], "b was least recently used");
        assert_eq!(
            field(&clients[0], "requests").and_then(Value::as_u64),
            Some(2)
        );
    }

    #[test]
    fn ambient_client_restores_on_exit() {
        let client = || RequestCtx::current().client;
        let tagged = |client: Option<Arc<str>>| RequestCtx {
            client,
            ..RequestCtx::current()
        };
        assert!(client().is_none());
        tagged(Some(Arc::from("tenant-1"))).enter(|| {
            assert_eq!(client().as_deref(), Some("tenant-1"));
            tagged(None).enter(|| assert!(client().is_none()));
            assert_eq!(client().as_deref(), Some("tenant-1"));
        });
        assert!(client().is_none());
    }

    #[test]
    fn anonymous_traffic_lands_in_the_anonymous_bucket() {
        let table = ClientTable::new(4);
        table.charge(|u| u.add(Usage::Requests, 1)); // no current tag
        let v = table.top_value("requests", 10).unwrap();
        let clients = field(&v, "clients").and_then(Value::as_array).unwrap();
        assert_eq!(
            field(&clients[0], "client").and_then(Value::as_str),
            Some(ANONYMOUS_CLIENT)
        );
    }

    #[test]
    fn watchdog_flags_stalled_worker_and_recovers() {
        let dog = Watchdog::new();
        assert!(dog.scan(10_000).is_empty());
        assert!(!dog.is_degraded());
        // Stamp worker 3 busy, then scan with a zero threshold so any
        // busy worker counts as stalled.
        dog.worker_busy(3);
        let findings = dog.scan(0);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, "stalled_worker");
        assert!(dog.is_degraded());
        dog.worker_idle(3);
        assert!(dog.scan(0).is_empty());
        assert!(!dog.is_degraded());
    }

    #[test]
    fn watchdog_flags_wedged_journal() {
        let dog = Watchdog::new();
        dog.journal_attempt();
        // Success never arrives; with a zero threshold the pending
        // attempt reads as wedged.
        let findings = dog.scan(0);
        assert!(findings.iter().any(|f| f.kind == "wedged_journal"));
        dog.journal_ok();
        assert!(dog.scan(0).is_empty());
    }

    #[test]
    fn watchdog_flags_starved_metrics_render() {
        let dog = Watchdog::new();
        dog.scrape_start();
        let findings = dog.scan(0);
        assert!(findings.iter().any(|f| f.kind == "metrics_starvation"));
        dog.scrape_end();
        assert!(dog.scan(0).is_empty());
    }

    #[test]
    fn short_kernels_are_charged_their_cpu() {
        // Fifty busy loops of about 100 µs each: far shorter than a
        // scheduler tick, so a tick-granular clock charges almost all of
        // them 0. A loop preempted for its whole window may still read
        // under a microsecond, so ask for most of them, not all.
        let charges: Vec<u64> = (0..50)
            .map(|_| {
                let timer = CpuTimer::start();
                let spin = Instant::now();
                let mut acc = 0u64;
                while spin.elapsed() < std::time::Duration::from_micros(100) {
                    acc = std::hint::black_box(acc.wrapping_add(1));
                }
                timer.finish()
            })
            .collect();
        let charged = charges.iter().filter(|&&c| c > 0).count();
        assert!(
            charged > 25,
            "{charged} of 50 short kernels charged: {charges:?}"
        );
        assert!(thread_cpu_micros().is_some(), "the thread CPU clock reads");
    }

    #[test]
    fn cpu_timer_reports_monotonic_charge() {
        let timer = CpuTimer::start();
        // Burn a little CPU so the clock delta is measurable.
        let mut acc = 0u64;
        for i in 0..200_000u64 {
            acc = acc.wrapping_add(i.wrapping_mul(2_654_435_761));
        }
        assert!(acc != 1, "keep the loop");
        let micros = timer.finish();
        assert!(micros < 60_000_000, "sane upper bound");
    }
}
