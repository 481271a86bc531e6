//! srank-guard: per-request deadlines, admission control, and load
//! shedding — the overload-protection layer threaded through the
//! request path.
//!
//! ## Deadlines
//!
//! Every request may carry a `deadline_ms` budget (the server default
//! comes from `serve --default-deadline-ms`). At dispatch the budget is
//! converted to an absolute [`Deadline`] carried by the request's
//! [`RequestCtx`] (see [`crate::ctx`]), which moves as one unit into
//! pool jobs and parked-waiter continuations, so the deadline follows
//! the request across threads. It is checked at the
//! cheap seams — pool dequeue, session-queue grant, kernel entry, and
//! between Monte-Carlo sampling chunks — so a dead-on-arrival request
//! is shed with a typed `deadline_exceeded` error before burning CPU,
//! and an expired one abandons its remaining sampling budget.
//!
//! ## Admission control
//!
//! When armed (`serve --shed-queue` / `--shed-wait-p99-ms`), the guard
//! sheds *expensive cold work* — kernel computes, session opens,
//! enumeration advances — while the server is past its load thresholds:
//! pool queue depth, and the park-to-grant p99 from the session
//! dispatch queue. Cheap ops (`ping`, `stats`, `health`, `trace`, cache
//! *hits*) are always admitted: overload degrades the service to its
//! cached working set instead of falling off a cliff. A shed request
//! gets a typed `overloaded` error carrying `retry_after_ms`, estimated
//! from the live queue state, so well-behaved clients (see
//! [`crate::client::RetryPolicy`]) back off by exactly the amount the
//! server asked for.
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

use crate::ctx::RequestCtx;
use crate::metrics::Sink;
use crate::proto::{Object, Op, ServiceError, ServiceResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Guard tunables (all off by default — zero behavior change until
/// armed).
#[derive(Clone, Debug, Default)]
pub struct GuardConfig {
    /// Default per-request deadline applied when a request carries no
    /// `deadline_ms` field (`serve --default-deadline-ms`). `0` = no
    /// default; requests without the field never expire.
    pub default_deadline_ms: u64,
    /// Admission control: shed expensive cold ops while more than this
    /// many jobs wait on the pool queue. `0` disables the signal.
    pub shed_pool_queue: usize,
    /// Admission control: shed expensive cold ops while the session
    /// queue's park-to-grant p99 exceeds this. `0` disables the signal.
    pub shed_session_wait_p99_ms: u64,
}

impl GuardConfig {
    /// Whether any admission-control signal is armed.
    pub fn admission_armed(&self) -> bool {
        self.shed_pool_queue > 0 || self.shed_session_wait_p99_ms > 0
    }
}

/// An absolute per-request expiry instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Self {
            at: Instant::now() + budget,
        }
    }

    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

/// Live load signals the admission decision reads (gathered by the
/// engine from the pool and session-queue metrics it already keeps).
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadSignals {
    /// Jobs currently waiting on the pool's work queue.
    pub pool_queue_depth: u64,
    /// Mean enqueue→dequeue pool wait over the jobs completed so far.
    pub avg_pool_wait_micros: u64,
    /// Park-to-grant p99 of the session dispatch queue (absent until a
    /// waiter has been granted).
    pub session_wait_p99_micros: Option<u64>,
}

/// Shed / deadline counters plus the armed config — one per engine.
#[derive(Debug)]
pub struct Guard {
    config: GuardConfig,
    /// Requests shed by admission control, total and per signal.
    pub shed_total: AtomicU64,
    shed_pool_queue: AtomicU64,
    shed_session_wait: AtomicU64,
    /// Requests answered `deadline_exceeded`, total and per stage.
    pub deadline_expired_total: AtomicU64,
    expired_at_dequeue: AtomicU64,
    expired_at_grant: AtomicU64,
    expired_in_kernel: AtomicU64,
    /// Monotonic ms-since-construction of the last shed (0 = never);
    /// `health` calls the server "overloaded" while this is recent.
    last_shed_ms: AtomicU64,
    started: Instant,
}

/// How recently a shed must have happened for `health` to report
/// `overloaded`.
const OVERLOADED_WINDOW: Duration = Duration::from_secs(5);

/// Bounds on the `retry_after_ms` hint: never so small clients hammer,
/// never so large they give up on a transient spike.
const RETRY_AFTER_MIN_MS: u64 = 25;
const RETRY_AFTER_MAX_MS: u64 = 5_000;

impl Guard {
    pub fn new(config: GuardConfig) -> Self {
        Self {
            config,
            shed_total: AtomicU64::new(0),
            shed_pool_queue: AtomicU64::new(0),
            shed_session_wait: AtomicU64::new(0),
            deadline_expired_total: AtomicU64::new(0),
            expired_at_dequeue: AtomicU64::new(0),
            expired_at_grant: AtomicU64::new(0),
            expired_in_kernel: AtomicU64::new(0),
            last_shed_ms: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    pub fn config(&self) -> &GuardConfig {
        &self.config
    }

    /// The deadline for a request carrying `deadline_ms` (falling back
    /// to the configured default). Must be called at request arrival —
    /// the budget is relative to "now".
    pub fn deadline_from(&self, deadline_ms: Option<u64>) -> ServiceResult<Option<Deadline>> {
        let budget = match deadline_ms {
            Some(0) => {
                return Err(ServiceError::bad_request(
                    "'deadline_ms' must be at least 1 (omit it for no deadline)",
                ))
            }
            Some(ms) => ms,
            None if self.config.default_deadline_ms > 0 => self.config.default_deadline_ms,
            None => return Ok(None),
        };
        Ok(Some(Deadline::after(Duration::from_millis(budget))))
    }

    /// Checks the current request's deadline at a named stage, counting
    /// and answering `deadline_exceeded` when it has passed.
    pub fn check_deadline(&self, stage: DeadlineStage) -> ServiceResult<()> {
        let Some(deadline) = RequestCtx::current().deadline else {
            return Ok(());
        };
        if !deadline.expired() {
            return Ok(());
        }
        self.deadline_expired_total.fetch_add(1, Ordering::Relaxed);
        match stage {
            DeadlineStage::Dequeue => &self.expired_at_dequeue,
            DeadlineStage::Grant => &self.expired_at_grant,
            DeadlineStage::Kernel => &self.expired_in_kernel,
        }
        .fetch_add(1, Ordering::Relaxed);
        Err(ServiceError::deadline_exceeded(format!(
            "deadline expired {} (work abandoned before completion)",
            stage.describe()
        )))
    }

    /// The admission decision for one expensive cold op: `Ok` to
    /// execute, `Err(overloaded)` to shed. Cheap ops and cache hits
    /// never reach this.
    pub fn admit_cold(&self, op: Op, signals: LoadSignals) -> ServiceResult<()> {
        if !self.config.admission_armed() {
            return Ok(());
        }
        let over_queue = self.config.shed_pool_queue > 0
            && signals.pool_queue_depth > self.config.shed_pool_queue as u64;
        let over_wait = self.config.shed_session_wait_p99_ms > 0
            && signals
                .session_wait_p99_micros
                .is_some_and(|p99| p99 / 1_000 > self.config.shed_session_wait_p99_ms);
        if !over_queue && !over_wait {
            return Ok(());
        }
        self.shed_total.fetch_add(1, Ordering::Relaxed);
        if over_queue {
            self.shed_pool_queue.fetch_add(1, Ordering::Relaxed);
        }
        if over_wait {
            self.shed_session_wait.fetch_add(1, Ordering::Relaxed);
        }
        self.last_shed_ms.store(
            self.started.elapsed().as_millis().max(1) as u64,
            Ordering::Relaxed,
        );
        let retry_after = self.retry_after_ms(signals);
        Err(ServiceError::overloaded(
            format!(
                "shedding cold '{}': {} (pool queue {} > {}, session wait p99 {}ms > {}ms)",
                op.name(),
                if over_queue && over_wait {
                    "pool queue and session wait over threshold"
                } else if over_queue {
                    "pool queue over threshold"
                } else {
                    "session wait p99 over threshold"
                },
                signals.pool_queue_depth,
                self.config.shed_pool_queue,
                signals.session_wait_p99_micros.unwrap_or(0) / 1_000,
                self.config.shed_session_wait_p99_ms,
            ),
            retry_after,
        ))
    }

    /// Backoff hint from the live queue state: roughly how long the
    /// backlog ahead of a retry would take to drain, clamped to
    /// `[25ms, 5s]`.
    fn retry_after_ms(&self, signals: LoadSignals) -> u64 {
        // Mean pool wait is the best drain-rate proxy the engine already
        // keeps; before any job has completed, assume 5ms per queued job.
        let per_job_ms = (signals.avg_pool_wait_micros / 1_000).max(5);
        let backlog = signals
            .pool_queue_depth
            .saturating_sub(self.config.shed_pool_queue as u64)
            .max(1);
        let wait_floor_ms = signals.session_wait_p99_micros.unwrap_or(0) / 1_000;
        (backlog.saturating_mul(per_job_ms))
            .max(wait_floor_ms)
            .clamp(RETRY_AFTER_MIN_MS, RETRY_AFTER_MAX_MS)
    }

    /// Whether a shed happened within the last few seconds (the
    /// "overloaded" health state).
    pub fn recently_shed(&self) -> bool {
        let last = self.last_shed_ms.load(Ordering::Relaxed);
        last > 0
            && self
                .started
                .elapsed()
                .saturating_sub(Duration::from_millis(last))
                < OVERLOADED_WINDOW
    }

    /// Exports the `stats.guard` / `health.shed` block.
    pub(crate) fn export(&self, s: &mut Sink) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        s.info(
            "admission",
            Object::new()
                .field("armed", self.config.admission_armed())
                .field("shed_pool_queue_threshold", self.config.shed_pool_queue)
                .field(
                    "shed_session_wait_p99_ms",
                    self.config.shed_session_wait_p99_ms,
                )
                .build(),
        );
        s.info("default_deadline_ms", self.config.default_deadline_ms);
        s.counter(
            "shed_total",
            "srank_guard_shed_total",
            "Requests shed by admission control.",
            load(&self.shed_total),
        );
        s.counter(
            "shed_by_pool_queue",
            "srank_guard_shed_by_pool_queue_total",
            "Sheds attributed to pool-queue depth over threshold.",
            load(&self.shed_pool_queue),
        );
        s.counter(
            "shed_by_session_wait",
            "srank_guard_shed_by_session_wait_total",
            "Sheds attributed to session-wait p99 over threshold.",
            load(&self.shed_session_wait),
        );
        s.counter(
            "deadline_expired_total",
            "srank_guard_deadline_expired_total",
            "Requests answered deadline_exceeded.",
            load(&self.deadline_expired_total),
        );
        s.counter(
            "deadline_expired_at_dequeue",
            "srank_guard_deadline_expired_at_dequeue_total",
            "Deadlines that expired while queued for a worker.",
            load(&self.expired_at_dequeue),
        );
        s.counter(
            "deadline_expired_at_grant",
            "srank_guard_deadline_expired_at_grant_total",
            "Deadlines that expired while parked on a busy session.",
            load(&self.expired_at_grant),
        );
        s.counter(
            "deadline_expired_in_kernel",
            "srank_guard_deadline_expired_in_kernel_total",
            "Deadlines that expired at the kernel admission check.",
            load(&self.expired_in_kernel),
        );
    }
}

/// Monte-Carlo budget at or below which a cold `verify`/`overview`
/// sub-request is cheaper to run on the submitter thread than to
/// round-trip through the pool (queue hop + wakeup + response push cost
/// more than a couple thousand oracle evaluations).
pub const INLINE_MAX_SAMPLES: usize = 2_048;

/// Row-count bound for inlining *exact* kernels (2-D interval, 3-D
/// polygon clip): both are linear in the rows after `Dataset::rank`, so
/// beyond this the work stops being "tiny" and belongs on the pool.
pub const INLINE_MAX_EXACT_ROWS: usize = 512;

/// Cost signals for classifying one cacheable batch sub-request
/// (`verify`/`overview`), gathered by the engine from the registry and
/// the sample-batch cache. Ops without meaningful signals (`ping`,
/// `registry.list`, anything malformed) classify on the op name alone.
#[derive(Clone, Copy, Debug, Default)]
pub struct InlineSignals {
    /// The request would run a closed-form kernel (2-D interval sweep,
    /// or the 3-D full-orthant polygon clip) rather than Monte-Carlo
    /// sampling.
    pub exact_kernel: bool,
    /// Dataset row count.
    pub rows: usize,
    /// Effective Monte-Carlo sample budget (the request's `samples`
    /// after defaulting/capping; ignored for exact kernels).
    pub samples: usize,
    /// The Monte-Carlo sample batch the request needs is already in the
    /// shared sample cache — no sampling cost, only scoring.
    pub sample_batch_warm: bool,
}

/// Where a batch sub-request executes: inline on the submitter thread,
/// or through the worker pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubCost {
    /// Provably tiny: run on the submitter/transport thread — the pool
    /// round-trip (queue wait + per-job bookkeeping) costs more than
    /// the work itself.
    Inline,
    /// Everything else: real kernel work, session ops, or anything the
    /// classifier cannot prove cheap (including malformed requests,
    /// whose error reporting the pool path owns).
    Pool,
}

/// The batch dispatcher's cost classifier. Which ops run inline, and
/// when, is tabled in the README's batch-dispatch section.
///
/// τ-tolerant verification never reaches this with signals (it lists
/// up to n²/2 exchanging pairs — not tiny), and session ops /
/// nested batches are structurally pool-only. The inline path still
/// runs every guard seam: the request deadline is checked before
/// execution and cold cacheable work passes through admission control.
pub fn classify_sub(op: Op, signals: Option<&InlineSignals>) -> SubCost {
    match op {
        Op::Ping | Op::RegistryList => SubCost::Inline,
        Op::Verify => match signals {
            Some(s) if s.exact_kernel && s.rows <= INLINE_MAX_EXACT_ROWS => SubCost::Inline,
            Some(s) if !s.exact_kernel && s.samples <= INLINE_MAX_SAMPLES => SubCost::Inline,
            _ => SubCost::Pool,
        },
        Op::Overview => match signals {
            Some(s) if s.sample_batch_warm && s.samples <= INLINE_MAX_SAMPLES => SubCost::Inline,
            _ => SubCost::Pool,
        },
        _ => SubCost::Pool,
    }
}

/// Where along the request path an expired deadline was caught.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlineStage {
    /// Pool-job pickup: the request died waiting on the work queue.
    Dequeue,
    /// Session-queue grant: the request died parked on a busy session.
    Grant,
    /// Kernel entry or between Monte-Carlo sampling chunks.
    Kernel,
}

impl DeadlineStage {
    fn describe(self) -> &'static str {
        match self {
            DeadlineStage::Dequeue => "while queued for a worker",
            DeadlineStage::Grant => "while parked on a busy session",
            DeadlineStage::Kernel => "before/while sampling in the kernel",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn classify_sub_inlines_only_provably_cheap_work() {
        // Cost-free ops inline unconditionally — no signals needed.
        assert_eq!(classify_sub(Op::Ping, None), SubCost::Inline);
        assert_eq!(classify_sub(Op::RegistryList, None), SubCost::Inline);
        // Anything the classifier has no cost model for rides the pool,
        // as does any op whose signals could not be resolved (unknown
        // dataset, malformed request, τ-tolerant verify).
        assert_eq!(classify_sub(Op::Verify, None), SubCost::Pool);
        assert_eq!(classify_sub(Op::Overview, None), SubCost::Pool);
        assert_eq!(classify_sub(Op::Stats, None), SubCost::Pool);

        // Exact-kernel verify: bounded by row count.
        let exact_small = InlineSignals {
            exact_kernel: true,
            rows: INLINE_MAX_EXACT_ROWS,
            ..Default::default()
        };
        assert_eq!(
            classify_sub(Op::Verify, Some(&exact_small)),
            SubCost::Inline
        );
        let exact_big = InlineSignals {
            rows: INLINE_MAX_EXACT_ROWS + 1,
            ..exact_small
        };
        assert_eq!(classify_sub(Op::Verify, Some(&exact_big)), SubCost::Pool);

        // Monte-Carlo verify: bounded by sample budget.
        let mc_small = InlineSignals {
            exact_kernel: false,
            samples: INLINE_MAX_SAMPLES,
            ..Default::default()
        };
        assert_eq!(classify_sub(Op::Verify, Some(&mc_small)), SubCost::Inline);
        let mc_big = InlineSignals {
            samples: INLINE_MAX_SAMPLES + 1,
            ..mc_small
        };
        assert_eq!(classify_sub(Op::Verify, Some(&mc_big)), SubCost::Pool);

        // Overview inlines only when the sample batch is already warm —
        // a cold overview pays the full sampling cost and must not
        // stall the submitter thread.
        let warm = InlineSignals {
            sample_batch_warm: true,
            samples: INLINE_MAX_SAMPLES,
            ..Default::default()
        };
        assert_eq!(classify_sub(Op::Overview, Some(&warm)), SubCost::Inline);
        let cold = InlineSignals {
            sample_batch_warm: false,
            ..warm
        };
        assert_eq!(classify_sub(Op::Overview, Some(&cold)), SubCost::Pool);
        let warm_big = InlineSignals {
            samples: INLINE_MAX_SAMPLES + 1,
            ..warm
        };
        assert_eq!(classify_sub(Op::Overview, Some(&warm_big)), SubCost::Pool);
    }

    #[test]
    fn ambient_deadline_scopes_and_restores() {
        let deadline = || RequestCtx::current().deadline;
        let within = |deadline: Deadline| RequestCtx {
            deadline: Some(deadline),
            ..RequestCtx::current()
        };
        assert!(deadline().is_none());
        let d = Deadline::after(Duration::from_secs(60));
        within(d).enter(|| {
            assert_eq!(deadline(), Some(d));
            let inner = Deadline::after(Duration::from_secs(1));
            within(inner).enter(|| {
                assert_eq!(deadline(), Some(inner));
            });
            assert_eq!(deadline(), Some(d), "nested scope restored");
        });
        assert!(deadline().is_none());
    }

    #[test]
    fn deadline_expiry_is_observable() {
        let d = Deadline::after(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
        assert!(!Deadline::after(Duration::from_secs(60)).expired());
    }

    #[test]
    fn check_deadline_counts_per_stage() {
        let guard = Guard::new(GuardConfig::default());
        // No current deadline: always fine.
        assert!(guard.check_deadline(DeadlineStage::Dequeue).is_ok());
        let expired = Deadline::after(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        let within = |deadline: Deadline| RequestCtx {
            deadline: Some(deadline),
            ..RequestCtx::default()
        };
        within(expired).enter(|| {
            let err = guard.check_deadline(DeadlineStage::Kernel).unwrap_err();
            assert_eq!(err.code, crate::proto::ErrorCode::DeadlineExceeded);
            assert!(guard.check_deadline(DeadlineStage::Dequeue).is_err());
        });
        within(Deadline::after(Duration::from_secs(60))).enter(|| {
            assert!(guard.check_deadline(DeadlineStage::Kernel).is_ok());
        });
        let stats = crate::metrics::json(|s| guard.export(s));
        assert_eq!(
            stats.get("deadline_expired_total").and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(
            stats
                .get("deadline_expired_in_kernel")
                .and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            stats
                .get("deadline_expired_at_dequeue")
                .and_then(Value::as_u64),
            Some(1)
        );
    }

    #[test]
    fn admission_disarmed_admits_everything() {
        let guard = Guard::new(GuardConfig::default());
        let swamped = LoadSignals {
            pool_queue_depth: 1_000_000,
            avg_pool_wait_micros: 1_000_000,
            session_wait_p99_micros: Some(1_000_000_000),
        };
        assert!(guard.admit_cold(Op::Verify, swamped).is_ok());
        assert!(!guard.recently_shed());
    }

    #[test]
    fn admission_sheds_over_threshold_with_retry_after() {
        let guard = Guard::new(GuardConfig {
            shed_pool_queue: 8,
            ..GuardConfig::default()
        });
        assert!(
            guard
                .admit_cold(
                    Op::Verify,
                    LoadSignals {
                        pool_queue_depth: 8,
                        ..LoadSignals::default()
                    }
                )
                .is_ok(),
            "at the threshold is still admitted"
        );
        let err = guard
            .admit_cold(
                Op::Verify,
                LoadSignals {
                    pool_queue_depth: 20,
                    avg_pool_wait_micros: 10_000,
                    session_wait_p99_micros: None,
                },
            )
            .unwrap_err();
        assert_eq!(err.code, crate::proto::ErrorCode::Overloaded);
        let retry = err.retry_after_ms.expect("overloaded carries retry_after");
        // 12 excess jobs × 10ms mean wait = 120ms.
        assert_eq!(retry, 120);
        assert!(guard.recently_shed());
        assert_eq!(guard.shed_total.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn admission_sheds_on_session_wait_signal() {
        let guard = Guard::new(GuardConfig {
            shed_session_wait_p99_ms: 50,
            ..GuardConfig::default()
        });
        let ok = LoadSignals {
            session_wait_p99_micros: Some(40_000),
            ..LoadSignals::default()
        };
        assert!(guard.admit_cold(Op::SessionGetNext, ok).is_ok());
        let over = LoadSignals {
            session_wait_p99_micros: Some(90_000),
            ..LoadSignals::default()
        };
        let err = guard.admit_cold(Op::SessionGetNext, over).unwrap_err();
        assert_eq!(err.code, crate::proto::ErrorCode::Overloaded);
        // The hint is floored by the observed p99 (90ms).
        assert_eq!(err.retry_after_ms, Some(90));
    }

    #[test]
    fn retry_after_is_clamped() {
        let guard = Guard::new(GuardConfig {
            shed_pool_queue: 1,
            ..GuardConfig::default()
        });
        let tiny = guard
            .admit_cold(
                Op::Verify,
                LoadSignals {
                    pool_queue_depth: 2,
                    avg_pool_wait_micros: 1,
                    session_wait_p99_micros: None,
                },
            )
            .unwrap_err();
        assert_eq!(tiny.retry_after_ms, Some(RETRY_AFTER_MIN_MS));
        let huge = guard
            .admit_cold(
                Op::Verify,
                LoadSignals {
                    pool_queue_depth: 1_000_000,
                    avg_pool_wait_micros: 60_000_000,
                    session_wait_p99_micros: None,
                },
            )
            .unwrap_err();
        assert_eq!(huge.retry_after_ms, Some(RETRY_AFTER_MAX_MS));
    }
}
