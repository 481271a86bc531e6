//! The persistent batch worker pool and its queues.
//!
//! PR 2's `batch` op spawned a scoped thread per worker *per batch*,
//! paying thread start-up on every request and making large batches
//! all-or-nothing. This module replaces that with one pool per engine:
//!
//! * [`WorkerPool`] — `width` threads created once at `Engine::new`,
//!   looping over an MPMC work queue of boxed jobs. Worker count is
//!   constant for the life of the engine (asserted by the regression
//!   tests via `stats.pool.threads_spawned`).
//! * [`BoundedQueue`] — the per-batch response channel. Workers push
//!   completed sub-responses; the submitting transport thread pops and
//!   writes them to the wire. The bound is what turns a slow client into
//!   backpressure: a full queue blocks the pushing worker (counted in
//!   `PoolMetrics::backpressure_waits`), which stops it from pulling new
//!   work, which bounds the whole pipeline's memory.
//!
//! Jobs are fully self-contained `FnOnce` closures (each owns its
//! `Arc<EngineCore>` clone), so the pool holds no back-reference to the
//! engine and dropping the engine tears the pool down cleanly: the work
//! queue closes, workers drain what is queued, then exit and are joined.
//!
//! The pool itself exposes only aggregate queue-wait time
//! (`PoolMetrics::queue_wait_micros`); *per-sub-request* queue wait is
//! attributed by the tracing layer instead — the submitter stamps an
//! `Instant` into each job closure and the job's first act is recording a
//! `pool_queue` span interval against its sub-request's trace context
//! (see `crate::trace`), so the pool needs no trace plumbing of its own.
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

use crate::lockorder::{rank, OrderedMutex};
use crate::metrics::PoolMetrics;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::Instant;

/// A unit of pool work. Must not block on the pool itself (nested `batch`
/// sub-requests are refused at dispatch for exactly this reason).
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// The dispatch group for jobs submitted outside any batch (single ops,
/// parked-session continuations). Kept as its own round-robin slot so
/// interactive singles cannot be convoyed behind a wide batch.
pub const SINGLES_GROUP: u64 = 0;

struct WorkQueueInner {
    /// Round-robin ring of `(group id, that group's FIFO)`. Group 0 is
    /// singles traffic; each batch dispatches under its own id. A group
    /// is present iff it has queued jobs (no empty queues are kept).
    groups: VecDeque<(u64, VecDeque<(Job, Instant)>)>,
    len: usize,
    closed: bool,
}

/// MPMC queue of jobs: any thread may submit, every worker pops.
///
/// Scheduling is FIFO *within* a group and round-robin *across* groups:
/// each pop takes the front group's oldest job and rotates that group to
/// the back of the ring. One wide batch therefore cannot convoy the pool
/// behind its own slow sub-requests — other batches and singles traffic
/// interleave with it at job granularity.
struct WorkQueue {
    inner: OrderedMutex<rank::PoolWorkQueue, WorkQueueInner>,
    available: Condvar,
}

impl WorkQueue {
    fn new() -> Self {
        Self {
            inner: OrderedMutex::new(WorkQueueInner {
                groups: VecDeque::new(),
                len: 0,
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueues a job under `group`; hands it back (instead of dropping
    /// it) when the queue is closed, so a shutdown-racing submitter can
    /// still run it.
    fn push(&self, group: u64, job: Job) -> Result<(), Job> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(job);
        }
        let entry = (job, Instant::now());
        if let Some((_, jobs)) = inner.groups.iter_mut().find(|(g, _)| *g == group) {
            jobs.push_back(entry);
        } else {
            inner.groups.push_back((group, VecDeque::from([entry])));
        }
        inner.len += 1;
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed *and*
    /// drained (shutdown still runs everything already accepted).
    fn pop(&self) -> Option<(Job, Instant)> {
        let mut inner = self.inner.lock();
        loop {
            if let Some((group, mut jobs)) = inner.groups.pop_front() {
                #[expect(
                    clippy::expect_used,
                    reason = "push never leaves an empty group in the ring"
                )]
                let entry = jobs.pop_front().expect("ring holds no empty groups");
                inner.len -= 1;
                if !jobs.is_empty() {
                    // Rotate: the served group goes to the back of the
                    // ring, so its next job waits its turn.
                    inner.groups.push_back((group, jobs));
                }
                return Some(entry);
            }
            if inner.closed {
                return None;
            }
            inner = inner.wait(&self.available);
        }
    }

    fn close(&self) {
        self.inner.lock().closed = true;
        self.available.notify_all();
    }
}

/// A cloneable submit-only handle onto a [`WorkerPool`]'s work queue.
///
/// This is what lets a *parked* session sub-request re-dispatch itself:
/// the waiter closure stored on the session queue owns a submitter (no
/// back-reference to the pool or the engine), and on handoff pushes its
/// continuation job like any other submission. Holding a submitter does
/// not keep workers alive — once the pool is dropped, `submit` hands the
/// job back instead of queueing it.
#[derive(Clone)]
pub struct PoolSubmitter {
    queue: Arc<WorkQueue>,
    metrics: Arc<PoolMetrics>,
}

impl PoolSubmitter {
    /// Enqueues a job under [`SINGLES_GROUP`]; on a closed queue (engine
    /// shutting down) the job is returned so the caller can run it
    /// inline or fail it — never silently dropped.
    pub fn submit(&self, job: Job) -> Result<(), Job> {
        self.submit_tagged(SINGLES_GROUP, job)
    }

    /// Enqueues a job under a dispatch `group` (one per batch). Jobs of
    /// the same group run FIFO; distinct groups round-robin.
    pub fn submit_tagged(&self, group: u64, job: Job) -> Result<(), Job> {
        // Depth is incremented *before* the push: a worker can pop (and
        // decrement) the instant the job is visible, so the other order
        // would transiently wrap the gauge below zero.
        self.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        let depth = self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics
            .max_queue_depth
            .fetch_max(depth, Ordering::Relaxed);
        match self.queue.push(group, job) {
            Ok(()) => Ok(()),
            Err(job) => {
                self.metrics.submitted.fetch_sub(1, Ordering::Relaxed);
                self.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                Err(job)
            }
        }
    }
}

/// A fixed-width persistent worker pool.
pub struct WorkerPool {
    submitter: PoolSubmitter,
    workers: Vec<JoinHandle<()>>,
    width: usize,
}

impl WorkerPool {
    /// Spawns `width` workers (at least 1) sharing `metrics`.
    pub fn new(width: usize, metrics: Arc<PoolMetrics>) -> Self {
        Self::with_watchdog(width, metrics, None)
    }

    /// [`new`](Self::new), with each worker stamping busy/idle
    /// transitions into `watchdog` so the supervisor can flag a job
    /// executing past the stall threshold.
    pub fn with_watchdog(
        width: usize,
        metrics: Arc<PoolMetrics>,
        watchdog: Option<Arc<crate::obs::Watchdog>>,
    ) -> Self {
        let width = width.max(1);
        let queue = Arc::new(WorkQueue::new());
        let workers = (0..width)
            .map(|slot| {
                let queue = Arc::clone(&queue);
                let metrics = Arc::clone(&metrics);
                let watchdog = watchdog.clone();
                metrics.threads_spawned.fetch_add(1, Ordering::Relaxed);
                std::thread::spawn(move || {
                    while let Some((job, enqueued)) = queue.pop() {
                        let waited = enqueued.elapsed().as_micros().min(u128::from(u64::MAX));
                        metrics
                            .queue_wait_micros
                            .fetch_add(waited as u64, Ordering::Relaxed);
                        metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                        metrics.executing.fetch_add(1, Ordering::Relaxed);
                        if let Some(w) = &watchdog {
                            w.worker_busy(slot);
                        }
                        // A panicking job must not shrink the pool — the
                        // submitter's accounting relies on a constant
                        // worker count. Jobs are also expected to catch
                        // their own panics so a response is still pushed;
                        // this is the second line of defense.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        if let Some(w) = &watchdog {
                            w.worker_idle(slot);
                        }
                        metrics.executing.fetch_sub(1, Ordering::Relaxed);
                        metrics.completed.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        Self {
            submitter: PoolSubmitter { queue, metrics },
            workers,
            width,
        }
    }

    /// Number of worker threads (fixed for the pool's lifetime).
    pub fn width(&self) -> usize {
        self.width
    }

    /// A cloneable submit-only handle (for re-dispatching parked work).
    pub fn submitter(&self) -> PoolSubmitter {
        self.submitter.clone()
    }

    /// Enqueues a job. Returns `false` only during shutdown.
    pub fn submit(&self, job: Job) -> bool {
        self.submitter.submit(job).is_ok()
    }

    /// Enqueues a job under a dispatch group (see
    /// [`PoolSubmitter::submit_tagged`]). Returns `false` only during
    /// shutdown.
    pub fn submit_tagged(&self, group: u64, job: Job) -> bool {
        self.submitter.submit_tagged(group, job).is_ok()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.submitter.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

struct BoundedQueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPSC channel for completed batch sub-responses.
///
/// `push` blocks while the queue is full (recording each blocking event
/// in the shared metrics — that block *is* the backpressure signal) and
/// silently drops the item once the queue is closed, so a submitter that
/// bails out early (client disconnect mid-stream) can never wedge a
/// worker forever: it closes the queue and the workers' remaining pushes
/// become no-ops.
pub struct BoundedQueue<T> {
    inner: OrderedMutex<rank::PoolResponseQueue, BoundedQueueInner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    cap: usize,
    metrics: Arc<PoolMetrics>,
}

impl<T> BoundedQueue<T> {
    pub fn new(cap: usize, metrics: Arc<PoolMetrics>) -> Self {
        Self {
            inner: OrderedMutex::new(BoundedQueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            cap: cap.max(1),
            metrics,
        }
    }

    /// Blocks until there is room (or the queue is closed, in which case
    /// the item is discarded).
    pub fn push(&self, item: T) {
        let mut inner = self.inner.lock();
        if inner.items.len() >= self.cap && !inner.closed {
            // One blocking *event* — counted once, not once per condvar
            // wakeup, so the metric reads as "times a worker had to wait"
            // rather than inflating with spurious/raced wakeups.
            self.metrics
                .backpressure_waits
                .fetch_add(1, Ordering::Relaxed);
        }
        while inner.items.len() >= self.cap && !inner.closed {
            inner = inner.wait(&self.not_full);
        }
        if inner.closed {
            return;
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
    }

    /// Takes the next item only if one is already queued — never blocks.
    /// The batch drain loop uses this to burst-deliver responses that
    /// piled up behind the one it just popped, flagging each "another
    /// follows immediately" so the transport can coalesce their flushes.
    pub fn try_pop(&self) -> Option<T> {
        let mut inner = self.inner.lock();
        let item = inner.items.pop_front()?;
        drop(inner);
        self.not_full.notify_one();
        Some(item)
    }

    /// Blocks for the next item; `None` once closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = inner.wait(&self.not_empty);
        }
    }

    /// Marks the queue closed: pending and future `push`es drop their
    /// items, blocked pushers wake immediately.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

/// Closes a [`BoundedQueue`] when dropped — the early-return guard for
/// batch submitters (a sink IO error must release any blocked workers).
pub struct CloseOnDrop<'a, T>(pub &'a BoundedQueue<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test scaffolding records cross-thread order in plain mutexes"
)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    #[test]
    fn pool_runs_every_submitted_job() {
        let metrics = Arc::new(PoolMetrics::default());
        let pool = WorkerPool::new(3, Arc::clone(&metrics));
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            assert!(pool.submit(Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            })));
        }
        drop(pool); // close + drain + join
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(metrics.threads_spawned.load(Ordering::Relaxed), 3);
        assert_eq!(metrics.submitted.load(Ordering::Relaxed), 100);
        assert_eq!(metrics.completed.load(Ordering::Relaxed), 100);
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);
        assert_eq!(metrics.executing.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn pool_survives_panicking_jobs() {
        let metrics = Arc::new(PoolMetrics::default());
        let pool = WorkerPool::new(1, Arc::clone(&metrics));
        let counter = Arc::new(AtomicUsize::new(0));
        assert!(pool.submit(Box::new(|| panic!("job exploded"))));
        let after = Arc::clone(&counter);
        assert!(pool.submit(Box::new(move || {
            after.fetch_add(1, Ordering::Relaxed);
        })));
        drop(pool);
        assert_eq!(
            counter.load(Ordering::Relaxed),
            1,
            "the single worker survived the panic and ran the next job"
        );
        assert_eq!(metrics.completed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn submitter_hands_jobs_back_after_shutdown() {
        let metrics = Arc::new(PoolMetrics::default());
        let pool = WorkerPool::new(1, Arc::clone(&metrics));
        let submitter = pool.submitter();
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let ran = Arc::clone(&ran);
            assert!(submitter
                .submit(Box::new(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                }))
                .is_ok());
        }
        drop(pool); // close + drain + join
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        let refused = submitter.submit(Box::new(|| {}));
        assert!(refused.is_err(), "closed queue hands the job back");
        // Accounting stays balanced for the refused submission.
        assert_eq!(metrics.submitted.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn work_queue_round_robins_across_groups() {
        let queue = WorkQueue::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let tag = |label: &'static str| {
            let order = Arc::clone(&order);
            Box::new(move || order.lock().unwrap().push(label)) as Job
        };
        // A wide batch (group 1) queued first, a second batch (group 2)
        // and a single behind it: dequeue order must interleave rather
        // than drain group 1 to completion.
        assert!(queue.push(1, tag("b1-0")).is_ok());
        assert!(queue.push(1, tag("b1-1")).is_ok());
        assert!(queue.push(1, tag("b1-2")).is_ok());
        assert!(queue.push(2, tag("b2-0")).is_ok());
        assert!(queue.push(SINGLES_GROUP, tag("single")).is_ok());
        queue.close();
        while let Some((job, _)) = queue.pop() {
            job();
        }
        assert_eq!(
            *order.lock().unwrap(),
            vec!["b1-0", "b2-0", "single", "b1-1", "b1-2"],
            "round-robin across groups, FIFO within each"
        );
    }

    #[test]
    fn tagged_submissions_share_pool_accounting() {
        let metrics = Arc::new(PoolMetrics::default());
        let pool = WorkerPool::new(2, Arc::clone(&metrics));
        let counter = Arc::new(AtomicUsize::new(0));
        for i in 0..20 {
            let counter = Arc::clone(&counter);
            assert!(pool.submit_tagged(
                i % 3,
                Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                })
            ));
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 20);
        assert_eq!(metrics.submitted.load(Ordering::Relaxed), 20);
        assert_eq!(metrics.completed.load(Ordering::Relaxed), 20);
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn try_pop_never_blocks() {
        let metrics = Arc::new(PoolMetrics::default());
        let queue: BoundedQueue<u32> = BoundedQueue::new(2, metrics);
        assert_eq!(queue.try_pop(), None, "empty queue answers immediately");
        queue.push(7);
        queue.push(8);
        assert_eq!(queue.try_pop(), Some(7));
        assert_eq!(queue.try_pop(), Some(8));
        assert_eq!(queue.try_pop(), None);
    }

    #[test]
    fn bounded_queue_blocks_pushers_and_counts_backpressure() {
        let metrics = Arc::new(PoolMetrics::default());
        let queue = Arc::new(BoundedQueue::new(1, Arc::clone(&metrics)));
        let pusher = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                for i in 0..10 {
                    queue.push(i);
                }
            })
        };
        let mut got = Vec::new();
        for _ in 0..10 {
            // A slow consumer: the pusher must block on the cap-1 queue.
            std::thread::sleep(std::time::Duration::from_millis(1));
            got.push(queue.pop().unwrap());
        }
        pusher.join().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert!(
            metrics.backpressure_waits.load(Ordering::Relaxed) > 0,
            "full queue must have blocked the pusher at least once"
        );
    }

    #[test]
    fn closing_the_queue_releases_blocked_pushers() {
        let metrics = Arc::new(PoolMetrics::default());
        let queue = Arc::new(BoundedQueue::new(1, metrics));
        queue.push(0);
        let pusher = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(1)) // blocks: queue full
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        queue.close();
        pusher.join().expect("close must unblock the pusher");
        // The pre-close item drains; the blocked push was discarded.
        assert_eq!(queue.pop(), Some(0));
        assert_eq!(queue.pop(), None, "closed queue drains to None");
    }
}
