//! The session manager: long-lived `GET-NEXT` enumerations.
//!
//! A session pins a dataset (by `Arc`) and owns a detached enumerator
//! state (`Sweep2DState` / `MdState` / `RandomizedState` from
//! `srank-core`). Each `session.get_next` request checks the session out
//! of the table, reattaches the state to the dataset, advances it, and
//! checks it back in — so the expensive construction (ray sweep, `×hps`
//! harvest, sample partition) happens once at `session.open` and every
//! later call is incremental, exactly the paper's Problem-3 interaction.
//!
//! Check-out is an RAII guard: dropping a [`CheckedOut`] — including via
//! an unwinding panic in the request handler — returns the session to
//! the table, so a crashed request can never leak a slot into a
//! permanently-busy state.
//!
//! ## The per-session dispatch queue
//!
//! A request that lands on a checked-out session is no longer refused
//! (`session_busy` dropped the work under exactly the concurrent
//! multi-user load the service targets). Instead every slot carries a
//! bounded FIFO of [`Waiter`]s:
//! [`check_out_or_queue`](SessionManager::check_out_or_queue) either
//! hands the caller the session immediately or parks a waiter on the
//! slot. When the current check-out returns, [`restore`](CheckedOut)
//! hands the session — still marked checked out — straight to the front
//! waiter, preserving arrival order, as a [`Grant`] stamped with the
//! park and grant instants. There is one park path: the engine's
//! `session.get_next` handler parks a waiter whose grant runs one
//! continuation, on the transport thread (which blocks on a one-slot
//! channel for the grant) or, for a batch sub-request, as a pool job
//! (its worker is freed for other sessions' work in the meantime).
//! `session_busy` survives only as the overflow answer: queue full
//! (`session_queue_full`), or queueing disabled (`queue_depth` 0).
//!
//! Idle sessions are evicted: every engine touch sweeps sessions whose
//! last use is older than the configured TTL. A session with queued
//! waiters is never evicted out from under its queue.
//!
//! ## Sharding
//!
//! The table is sharded **per dataset**: a session's dataset name hashes
//! to one of [`NUM_SHARDS`] shards, each behind its own mutex, and the
//! session id encodes its shard in the low [`SHARD_BITS`] bits so every
//! id-keyed operation (`check_out`, `close`, `restore`) locks exactly one
//! shard. Concurrent producers on *different* datasets therefore never
//! contend on a session lock; the only cross-shard operations are the
//! idle sweep and `stats`, which visit shards one at a time. The global
//! session cap is enforced with a lock-free counter.
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
use crate::proto::{ErrorCode, ServiceError, ServiceResult};
use rand::rngs::StdRng;
use srank_core::{MdState, RandomizedState, Sweep2DState};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default bound on waiters parked per session (see
/// [`SessionManager::with_queue_depth`]).
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// Shard-index width of a session id.
pub const SHARD_BITS: u32 = 4;
/// Number of per-dataset shards of the session table.
pub const NUM_SHARDS: usize = 1 << SHARD_BITS;

/// Deterministic FNV-1a over the dataset name, folded to a shard index —
/// every session of one dataset lives in one shard.
fn dataset_shard(dataset: &str) -> usize {
    (crate::store::layout::fnv1a(dataset.as_bytes()) % NUM_SHARDS as u64) as usize
}

/// The detached enumerator of one session.
pub enum SessionState {
    Sweep2D(Sweep2DState),
    Md(MdState),
    Randomized {
        /// Boxed: the interning table makes this state much larger than
        /// the other variants.
        state: Box<RandomizedState>,
        /// The session's private RNG stream, seeded at `session.open` —
        /// identical open parameters replay an identical session.
        rng: StdRng,
        /// Default per-call budget when the request omits one.
        budget: usize,
    },
}

impl SessionState {
    pub fn kind(&self) -> &'static str {
        match self {
            SessionState::Sweep2D(_) => "sweep2d",
            SessionState::Md(_) => "md",
            SessionState::Randomized { .. } => "randomized",
        }
    }

    /// Serializes the enumerator state (and, for randomized sessions, the
    /// exact RNG stream position and default budget) for durable storage.
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        use srank_sample::persist::{obj, u64_hex_value};
        match self {
            SessionState::Sweep2D(state) => obj([
                ("kind", Value::String("sweep2d".into())),
                ("state", state.to_value()),
            ]),
            SessionState::Md(state) => obj([
                ("kind", Value::String("md".into())),
                ("state", state.to_value()),
            ]),
            SessionState::Randomized { state, rng, budget } => obj([
                ("kind", Value::String("randomized".into())),
                ("state", state.to_value()),
                (
                    "rng",
                    Value::Array(rng.state().iter().map(|&w| u64_hex_value(w)).collect()),
                ),
                ("budget", Value::Number(*budget as f64)),
            ]),
        }
    }

    /// Rebuilds a state serialized by [`to_value`](Self::to_value).
    pub fn from_value(v: &serde_json::Value) -> srank_sample::persist::PersistResult<Self> {
        use srank_sample::persist::{
            array_field, field, str_field, u64_hex, usize_field, PersistError,
        };
        let state = field(v, "state")?;
        match str_field(v, "kind")? {
            "sweep2d" => Ok(SessionState::Sweep2D(Sweep2DState::from_value(state)?)),
            "md" => Ok(SessionState::Md(MdState::from_value(state)?)),
            "randomized" => {
                let words = array_field(v, "rng")?;
                if words.len() != 4 {
                    return Err(PersistError::new("rng state must be 4 words"));
                }
                let mut s = [0u64; 4];
                for (slot, w) in s.iter_mut().zip(words) {
                    *slot = u64_hex(w, "rng word")?;
                }
                Ok(SessionState::Randomized {
                    state: Box::new(RandomizedState::from_value(state)?),
                    rng: StdRng::from_state(s),
                    budget: usize_field(v, "budget")?,
                })
            }
            other => Err(PersistError::new(format!("unknown session kind '{other}'"))),
        }
    }

    /// Verifies a (possibly just-deserialized) state actually reattaches
    /// to `data` — the same shape checks `from_state` runs on every
    /// `get_next` — without advancing it. Both directions are O(1) moves.
    pub fn reattach_check(
        self,
        data: &srank_core::Dataset,
    ) -> Result<Self, srank_core::StableRankError> {
        use srank_core::{Enumerator2D, MdEnumerator, RandomizedEnumerator};
        Ok(match self {
            SessionState::Sweep2D(state) => {
                SessionState::Sweep2D(Enumerator2D::from_state(data, state)?.into_state())
            }
            SessionState::Md(state) => {
                SessionState::Md(MdEnumerator::from_state(data, state)?.into_state())
            }
            SessionState::Randomized { state, rng, budget } => SessionState::Randomized {
                state: Box::new(RandomizedEnumerator::from_state(data, *state)?.into_state()),
                rng,
                budget,
            },
        })
    }
}

/// One open session.
pub struct Session {
    pub id: u64,
    pub dataset: String,
    /// Registry generation the session was opened against; a reloaded
    /// dataset invalidates the session rather than silently mixing states.
    pub generation: u64,
    pub state: SessionState,
    pub created: Instant,
    pub last_used: Instant,
    /// Rankings returned so far.
    pub returned: usize,
    /// Stability of the most recent ranking (monotonically non-increasing
    /// within a session; serialized for observability).
    pub last_stability: Option<f64>,
    /// Monotonic state-change counter: 1 at open, +1 per `get_next`.
    pub advances: u64,
    /// The `advances` value at the last *durable* checkpoint. A session
    /// is dirty iff `advances > checkpointed`; the flag is cleared by
    /// recording the exported `advances` only **after** its file write
    /// succeeded ([`SessionManager::mark_checkpointed`]), so a failed
    /// write can never silently drop progress from the journal, and an
    /// advance racing the write keeps the session dirty.
    pub checkpointed: u64,
}

impl Session {
    /// Whether the state has advanced past the last durable checkpoint.
    pub fn dirty(&self) -> bool {
        self.advances > self.checkpointed
    }
    /// Serializes the full session record for durable storage.
    pub fn snapshot_value(&self) -> serde_json::Value {
        use serde_json::Value;
        use srank_sample::persist::obj;
        obj([
            ("id", Value::Number(self.id as f64)),
            ("dataset", Value::String(self.dataset.clone())),
            ("generation", Value::Number(self.generation as f64)),
            ("returned", Value::Number(self.returned as f64)),
            (
                "last_stability",
                match self.last_stability {
                    Some(s) => Value::Number(s),
                    None => Value::Null,
                },
            ),
            ("state", self.state.to_value()),
        ])
    }

    /// Rebuilds a session record serialized by
    /// [`snapshot_value`](Self::snapshot_value). Timestamps restart at
    /// load time (a resumed session is, by definition, in use now).
    pub fn from_snapshot_value(
        v: &serde_json::Value,
    ) -> srank_sample::persist::PersistResult<Self> {
        use srank_sample::persist::{field, str_field, u64_field, usize_field};
        let now = Instant::now();
        Ok(Self {
            id: u64_field(v, "id")?,
            dataset: str_field(v, "dataset")?.to_string(),
            generation: u64_field(v, "generation")?,
            state: SessionState::from_value(field(v, "state")?)?,
            created: now,
            last_used: now,
            returned: usize_field(v, "returned")?,
            last_stability: field(v, "last_stability")?.as_f64(),
            // A just-restored session matches its on-disk checkpoint.
            advances: 1,
            checkpointed: 1,
        })
    }
}

/// Exclusive ownership of a session for the duration of one request.
///
/// Dropping the guard checks the session back in (also on panic);
/// [`discard`](CheckedOut::discard) closes it instead.
pub struct CheckedOut<'a> {
    manager: &'a SessionManager,
    session: Option<Session>,
}

impl CheckedOut<'_> {
    #[expect(
        clippy::expect_used,
        reason = "the Option is only taken by drop or discard, which consume self"
    )]
    pub fn session(&mut self) -> &mut Session {
        self.session.as_mut().expect("present until drop/discard")
    }

    /// Closes the session instead of returning it to the table (used when
    /// a request discovers the session is stale or corrupted).
    pub fn discard(mut self) {
        if let Some(session) = self.session.take() {
            self.manager.checked_out.fetch_sub(1, Ordering::Relaxed);
            self.manager.close(session.id);
        }
    }
}

impl Drop for CheckedOut<'_> {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            self.manager.restore(session);
        }
    }
}

impl std::fmt::Debug for CheckedOut<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("CheckedOut");
        if let Some(session) = &self.session {
            s.field("id", &session.id)
                .field("dataset", &session.dataset)
                .field("kind", &session.state.kind());
        }
        s.finish()
    }
}

/// What a parked request is handed, exactly once: the session (FIFO
/// handoff) or the error that voided the wait (session closed / table
/// dropped / the requesting connection died while parked), with the
/// instants the wait began and ended — the one clock of both the
/// `stats.session_queue` wait and the request's `session_wait` phase.
pub struct Grant {
    pub session: ServiceResult<Session>,
    /// When the request parked.
    pub parked: Instant,
    /// When the wait ended: the grant, or the error's delivery.
    pub granted: Instant,
}

/// One parked request waiting for a checked-out session: the closure is
/// invoked exactly once, with its [`Grant`].
pub struct Waiter {
    enqueued: Instant,
    deliver: Option<Box<dyn FnOnce(Grant) + Send>>,
    /// Liveness of the requesting connection (shared with the transport):
    /// when set before the grant, the waiter is *dropped on grant* — the
    /// session is never advanced for a client that can no longer read the
    /// answer (counted in `stats.session_queue.cancelled`).
    cancelled: Option<Arc<std::sync::atomic::AtomicBool>>,
    /// Fairness identity (hash of the request's `"client"` tag; 0 =
    /// untagged). Grant selection may let a *different* tagged client
    /// overtake when the front waiter belongs to the client served last
    /// — see [`SessionManager::restore`].
    client: u64,
}

impl Waiter {
    /// A waiter for one request: `cancelled` is its connection's death
    /// flag (if raised by the time the session would be handed over, the
    /// grant is skipped) and `client` its fairness identity (0 keeps it
    /// anonymous — anonymous waiters always stay in pure arrival order).
    pub fn new(
        deliver: impl FnOnce(Grant) + Send + 'static,
        cancelled: Option<Arc<std::sync::atomic::AtomicBool>>,
        client: u64,
    ) -> Self {
        Self {
            enqueued: Instant::now(),
            deliver: Some(Box::new(deliver)),
            cancelled,
            client,
        }
    }

    fn is_cancelled(&self) -> bool {
        self.cancelled
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// Hands the session, or the error, over, stamped at `granted`.
    /// `deliver` is taken only here, so a waiter delivers at most once.
    fn deliver(&mut self, session: ServiceResult<Session>, granted: Instant) {
        if let Some(deliver) = self.deliver.take() {
            let parked = self.enqueued;
            deliver(Grant {
                session,
                parked,
                granted,
            });
        }
    }

    /// Fails the wait now with `error`.
    fn fail(&mut self, error: ServiceError) {
        self.deliver(Err(error), Instant::now());
    }
}

impl Drop for Waiter {
    fn drop(&mut self) {
        // Every code path delivers explicitly; this fallback exists so a
        // waiter can never be dropped silently — a parked transport
        // thread or batch slot would otherwise hang forever.
        if self.deliver.is_some() {
            self.fail(ServiceError::internal(
                "session slot dropped with queued work",
            ));
        }
    }
}

/// One session's serialized snapshot as exported for persistence:
/// identity, the `advances` watermark to acknowledge after a durable
/// write, and the record itself.
pub struct SessionExport {
    pub id: u64,
    pub dataset: String,
    pub advances: u64,
    pub record: serde_json::Value,
}

/// Outcome of [`SessionManager::check_out_or_queue`].
// The guard embeds the session inline (it is moved, not boxed, along the
// whole checkout path); this enum lives only transiently on a dispatch
// stack frame, so the size imbalance costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum CheckOut<'a> {
    /// The session was free: the caller owns it now.
    Ready(CheckedOut<'a>),
    /// The session is busy; the waiter is parked and will be granted the
    /// session in FIFO order.
    Queued,
}

/// One table entry: the session (or a marker while a request owns it)
/// plus the FIFO of waiters parked on it.
struct Slot {
    state: SlotState,
    queue: VecDeque<Waiter>,
    /// High-water mark of *this* session's waiter queue — which sessions
    /// the dispatch backlog actually concentrates on (surfaced per
    /// session by `stats`).
    queue_high_water: usize,
    /// Fairness identity of the waiter granted this session last (0 =
    /// anonymous / none yet) — the input to grant selection.
    last_client: u64,
}

enum SlotState {
    Available(Box<Session>),
    CheckedOut,
}

/// Snapshot of the dispatch-queue counters — the `stats` op's
/// `session_queue` block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueCounters {
    /// Per-session waiter bound (0 = queueing disabled).
    pub per_session_cap: usize,
    /// Waiters currently parked, across all sessions.
    pub depth: usize,
    /// High-water mark of `depth`.
    pub max_depth: u64,
    /// Requests ever parked.
    pub queued_total: u64,
    /// Parked requests granted their session.
    pub granted: u64,
    /// Parked requests dropped at grant time because their connection had
    /// died while they waited (the session is not advanced for them).
    pub cancelled: u64,
    /// Grants where a different client's waiter overtook the front of
    /// the queue because the front belonged to the client served last
    /// (per-client fairness; aged waiters are exempt from being skipped).
    pub fair_grants: u64,
    /// Cumulative park→grant wait.
    pub wait_micros: u64,
    /// Park→grant wait quantile upper bounds, from a log2-bucketed
    /// histogram (`None` until a grant has been recorded).
    pub wait_p50_micros: Option<u64>,
    /// 90th-percentile park→grant wait upper bound.
    pub wait_p90_micros: Option<u64>,
    /// 99th-percentile park→grant wait upper bound.
    pub wait_p99_micros: Option<u64>,
}

/// The shared session table. All methods take `&self`.
pub struct SessionManager {
    shards: Vec<OrderedMutex<rank::SessionShard, HashMap<u64, Slot>>>,
    next_seq: AtomicU64,
    /// Open sessions across all shards (including checked-out ones) —
    /// the lock-free capacity gate.
    count: AtomicUsize,
    /// Sessions currently checked out by a request thread or pool
    /// worker (a handed-off session counts as still checked out).
    checked_out: AtomicUsize,
    /// Cumulative busy *refusals*: queue overflow, queueing disabled, or
    /// a non-queueing [`check_out`](Self::check_out) on a busy session.
    /// Queued requests are NOT counted here (see `queued_total`).
    busy_conflicts: AtomicU64,
    /// Per-session waiter bound; 0 disables queueing entirely.
    queue_depth_cap: usize,
    queued_total: AtomicU64,
    queue_granted: AtomicU64,
    queue_cancelled: AtomicU64,
    queue_fair_grants: AtomicU64,
    queue_depth: AtomicUsize,
    queue_max_depth: AtomicU64,
    queue_wait_micros: AtomicU64,
    /// Distribution of park→grant waits (feeds the percentile fields of
    /// [`QueueCounters`]).
    queue_wait_hist: crate::metrics::LatencyHistogram,
    max_sessions: usize,
}

impl SessionManager {
    pub fn new(max_sessions: usize) -> Self {
        Self::with_queue_depth(max_sessions, DEFAULT_QUEUE_DEPTH)
    }

    /// `queue_depth` bounds the waiters parked per session; 0 disables
    /// queueing (every busy collision answers `session_busy`, the
    /// pre-queue behavior).
    pub fn with_queue_depth(max_sessions: usize, queue_depth: usize) -> Self {
        Self {
            shards: (0..NUM_SHARDS)
                .map(|_| OrderedMutex::new(HashMap::new()))
                .collect(),
            next_seq: AtomicU64::new(0),
            count: AtomicUsize::new(0),
            checked_out: AtomicUsize::new(0),
            busy_conflicts: AtomicU64::new(0),
            queue_depth_cap: queue_depth,
            queued_total: AtomicU64::new(0),
            queue_granted: AtomicU64::new(0),
            queue_cancelled: AtomicU64::new(0),
            queue_fair_grants: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            queue_max_depth: AtomicU64::new(0),
            queue_wait_micros: AtomicU64::new(0),
            queue_wait_hist: crate::metrics::LatencyHistogram::default(),
            max_sessions: max_sessions.max(1),
        }
    }

    /// The shard a session id routes to (encoded in its low bits).
    fn shard_of(&self, id: u64) -> &OrderedMutex<rank::SessionShard, HashMap<u64, Slot>> {
        #[expect(
            clippy::indexing_slicing,
            reason = "the mask keeps the index below NUM_SHARDS"
        )]
        &self.shards[(id & (NUM_SHARDS as u64 - 1)) as usize]
    }

    /// Opens a session and returns its id.
    pub fn open(
        &self,
        dataset: String,
        generation: u64,
        state: SessionState,
    ) -> ServiceResult<u64> {
        // Claim a capacity slot first, lock-free; release it on any later
        // failure path (there are none today, but close/evict must pair).
        if self
            .count
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
                (c < self.max_sessions).then_some(c + 1)
            })
            .is_err()
        {
            return Err(ServiceError::new(
                ErrorCode::SessionLimit,
                format!("session limit reached ({} open)", self.max_sessions),
            ));
        }
        let shard = dataset_shard(&dataset);
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let id = (seq << SHARD_BITS) | shard as u64;
        let now = Instant::now();
        #[expect(clippy::indexing_slicing, reason = "dataset_shard masks to NUM_SHARDS")]
        self.shards[shard].lock().insert(
            id,
            Slot {
                state: SlotState::Available(Box::new(Session {
                    id,
                    dataset,
                    generation,
                    state,
                    created: now,
                    last_used: now,
                    returned: 0,
                    last_stability: None,
                    advances: 1,
                    checkpointed: 0,
                })),
                queue: VecDeque::new(),
                queue_high_water: 0,
                last_client: 0,
            },
        );
        Ok(id)
    }

    /// Installs a session under its *original* id — the restore path of
    /// the persistence subsystem. An existing session under the id is
    /// replaced (a resumed checkpoint is the authoritative state); the id
    /// sequence is advanced past it so fresh opens can never collide.
    ///
    /// # Errors
    /// `session_limit` at capacity; `bad_request` if the id's embedded
    /// shard disagrees with the dataset (a forged or corrupt record).
    pub fn install(&self, session: Session) -> ServiceResult<u64> {
        let id = session.id;
        let shard = dataset_shard(&session.dataset);
        if (id & (NUM_SHARDS as u64 - 1)) as usize != shard {
            return Err(ServiceError::bad_request(format!(
                "session {id} does not route to dataset '{}'",
                session.dataset
            )));
        }
        // Advance the sequence past the restored id (lock-free max).
        self.next_seq.fetch_max(id >> SHARD_BITS, Ordering::Relaxed);
        #[expect(clippy::indexing_slicing, reason = "dataset_shard masks to NUM_SHARDS")]
        let mut slots = self.shards[shard].lock();
        let replacing = slots.contains_key(&id);
        if !replacing
            && self
                .count
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
                    (c < self.max_sessions).then_some(c + 1)
                })
                .is_err()
        {
            return Err(ServiceError::new(
                ErrorCode::SessionLimit,
                format!("session limit reached ({} open)", self.max_sessions),
            ));
        }
        match slots.get_mut(&id) {
            // Replacing a checked-out slot would yank a session out from
            // under a live request; refuse (the caller reports busy).
            Some(slot) if matches!(slot.state, SlotState::CheckedOut) => Err(ServiceError::new(
                ErrorCode::SessionBusy,
                format!("session {id} is executing a request; cannot overwrite it"),
            )),
            Some(slot) => {
                slot.state = SlotState::Available(Box::new(session));
                Ok(id)
            }
            None => {
                slots.insert(
                    id,
                    Slot {
                        state: SlotState::Available(Box::new(session)),
                        queue: VecDeque::new(),
                        queue_high_water: 0,
                        last_client: 0,
                    },
                );
                Ok(id)
            }
        }
    }

    /// Serializes every checked-in session (optionally only the dirty
    /// ones) — the snapshot/journal export. Dirty flags are **not**
    /// cleared here: the caller calls
    /// [`mark_checkpointed`](Self::mark_checkpointed) with each record's
    /// `advances` only after the file write actually succeeded.
    /// Checked-out sessions are skipped: they are mid-request and their
    /// state is not observable without blocking the request; their ids
    /// are returned so the caller can keep their previous checkpoints.
    /// Returns `(exports, busy_ids)`, exports sorted by id.
    pub fn export_snapshots(&self, only_dirty: bool) -> (Vec<SessionExport>, Vec<u64>) {
        let mut exports = Vec::new();
        let mut busy = Vec::new();
        for shard in &self.shards {
            let slots = shard.lock();
            for (&id, slot) in slots.iter() {
                match &slot.state {
                    SlotState::Available(s) => {
                        if !only_dirty || s.dirty() {
                            exports.push(SessionExport {
                                id,
                                dataset: s.dataset.clone(),
                                advances: s.advances,
                                record: s.snapshot_value(),
                            });
                        }
                    }
                    SlotState::CheckedOut => busy.push(id),
                }
            }
        }
        exports.sort_by_key(|e| e.id);
        (exports, busy)
    }

    /// Records that `id`'s state as of `advances` is durably on disk: the
    /// session stops being dirty unless it advanced again since the
    /// export. Monotonic, so a stale call can never un-checkpoint newer
    /// progress.
    pub fn mark_checkpointed(&self, id: u64, advances: u64) {
        let mut slots = self.shard_of(id).lock();
        if let Some(Slot {
            state: SlotState::Available(s),
            ..
        }) = slots.get_mut(&id)
        {
            s.checkpointed = s.checkpointed.max(advances);
        }
    }

    fn not_found(id: u64) -> ServiceError {
        ServiceError::session_not_found(format!(
            "session {id} does not exist (never opened, closed, or evicted)"
        ))
    }

    fn busy(id: u64) -> ServiceError {
        ServiceError::new(
            ErrorCode::SessionBusy,
            format!(
                "session {id} is executing another request \
                 (sessions are single-flight; queueing is disabled)"
            ),
        )
    }

    /// Takes exclusive ownership of a session for the duration of one
    /// request, *without* queueing: concurrent requests against the same
    /// session get `session_busy` instead of blocking or parking. Locks
    /// only the session's own dataset shard. Dispatch paths that must
    /// not drop work use [`check_out_or_queue`](Self::check_out_or_queue)
    /// instead.
    pub fn check_out(&self, id: u64) -> ServiceResult<CheckedOut<'_>> {
        let mut slots = self.shard_of(id).lock();
        match slots.get_mut(&id) {
            None => Err(Self::not_found(id)),
            Some(slot) => match &slot.state {
                SlotState::CheckedOut => {
                    self.busy_conflicts.fetch_add(1, Ordering::Relaxed);
                    Err(Self::busy(id))
                }
                SlotState::Available(_) => Ok(self.take(slot)),
            },
        }
    }

    /// Takes the session out of an `Available` slot (caller holds the
    /// shard lock and has matched on the state).
    fn take(&self, slot: &mut Slot) -> CheckedOut<'_> {
        #[expect(
            clippy::unreachable,
            reason = "callers match SlotState::Available before calling take"
        )]
        let SlotState::Available(session) =
            std::mem::replace(&mut slot.state, SlotState::CheckedOut)
        else {
            unreachable!("Available matched by the caller")
        };
        self.checked_out.fetch_add(1, Ordering::Relaxed);
        CheckedOut {
            manager: self,
            session: Some(*session),
        }
    }

    /// Checks the session out immediately if it is free, otherwise parks
    /// `waiter()` on the session's bounded FIFO queue — the session will
    /// be handed to it (in arrival order) when the current check-out
    /// returns. The waiter closure is only constructed when the request
    /// actually queues.
    ///
    /// Errors: `session_not_found`, `session_queue_full` (the bounded
    /// queue is at capacity), or `session_busy` (queueing disabled).
    pub fn check_out_or_queue(
        &self,
        id: u64,
        waiter: impl FnOnce() -> Waiter,
    ) -> ServiceResult<CheckOut<'_>> {
        let mut slots = self.shard_of(id).lock();
        let Some(slot) = slots.get_mut(&id) else {
            return Err(Self::not_found(id));
        };
        match &slot.state {
            SlotState::Available(_) => Ok(CheckOut::Ready(self.take(slot))),
            SlotState::CheckedOut if self.queue_depth_cap == 0 => {
                self.busy_conflicts.fetch_add(1, Ordering::Relaxed);
                Err(Self::busy(id))
            }
            SlotState::CheckedOut if slot.queue.len() >= self.queue_depth_cap => {
                self.busy_conflicts.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::new(
                    ErrorCode::SessionQueueFull,
                    format!(
                        "session {id} dispatch queue is full ({} waiting); retry later",
                        slot.queue.len()
                    ),
                ))
            }
            SlotState::CheckedOut => {
                slot.queue.push_back(waiter());
                slot.queue_high_water = slot.queue_high_water.max(slot.queue.len());
                self.queued_total.fetch_add(1, Ordering::Relaxed);
                let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
                self.queue_max_depth
                    .fetch_max(depth as u64, Ordering::Relaxed);
                Ok(CheckOut::Queued)
            }
        }
    }

    /// Wraps a session granted through a [`Waiter`] back into the RAII
    /// guard. The slot is still marked checked out (ownership was handed
    /// over, never returned to the table), so this touches no lock.
    pub fn adopt(&self, session: Session) -> CheckedOut<'_> {
        CheckedOut {
            manager: self,
            session: Some(session),
        }
    }

    /// Returns a checked-out session to the table, stamping last-use
    /// (called from [`CheckedOut::drop`]). If waiters are queued, the
    /// session is handed to one of them instead — still marked checked
    /// out. Selection is FIFO with one exception, per-client fairness:
    /// when the front waiter belongs to the client granted *last* time
    /// and a different tagged client waits behind it, that client
    /// overtakes — unless the front waiter has already waited past the
    /// live grant-wait p99 (the aging guard: fairness must never become
    /// starvation). Anonymous (untagged) queues are pure arrival order.
    fn restore(&self, mut session: Session) {
        session.last_used = Instant::now();
        let (cancelled, handed_off, fair_pick) = {
            let mut slots = self.shard_of(session.id).lock();
            match slots.get_mut(&session.id) {
                // A close/eviction that raced the check-out wins: the
                // session is dropped (close drained any waiters).
                None => (Vec::new(), None, false),
                Some(slot) => {
                    // Skip waiters whose connection died while they were
                    // parked: advancing the session for them would burn
                    // enumeration budget into a dead socket. They are
                    // failed (outside the lock) so a blocked transport
                    // thread still wakes, and counted as cancelled.
                    let mut cancelled = Vec::new();
                    while let Some(waiter) = slot.queue.pop_front_if(|w| w.is_cancelled()) {
                        cancelled.push(waiter);
                    }
                    if slot.queue.is_empty() {
                        slot.state = SlotState::Available(Box::new(session));
                        (cancelled, None, false)
                    } else {
                        let choice =
                            Self::fair_choice(&slot.queue, slot.last_client, &self.queue_wait_hist);
                        #[expect(
                            clippy::expect_used,
                            reason = "fair_choice returns an index into the queue"
                        )]
                        let waiter = slot.queue.remove(choice).expect("choice is in bounds");
                        slot.last_client = waiter.client;
                        (cancelled, Some((waiter, session)), choice != 0)
                    }
                }
            }
        };
        // Deliver outside the shard lock: the waiter closure wakes a
        // parked thread or re-submits a pool job.
        for mut waiter in cancelled {
            self.queue_depth.fetch_sub(1, Ordering::Relaxed);
            self.queue_cancelled.fetch_add(1, Ordering::Relaxed);
            waiter.fail(ServiceError::session_not_found(
                "request cancelled: its connection closed while queued",
            ));
        }
        match handed_off {
            None => {
                self.checked_out.fetch_sub(1, Ordering::Relaxed);
            }
            Some((mut waiter, session)) => {
                self.queue_depth.fetch_sub(1, Ordering::Relaxed);
                self.queue_granted.fetch_add(1, Ordering::Relaxed);
                if fair_pick {
                    self.queue_fair_grants.fetch_add(1, Ordering::Relaxed);
                }
                let granted = Instant::now();
                let waited = granted.saturating_duration_since(waiter.enqueued);
                self.queue_wait_hist.record(waited);
                self.queue_wait_micros
                    .fetch_add(crate::metrics::micros(waited), Ordering::Relaxed);
                waiter.deliver(Ok(session), granted);
            }
        }
    }

    /// Grant selection for a non-empty queue whose front waiter is live:
    /// returns the index to grant. FIFO (0) unless the front waiter
    /// belongs to the client granted last time, a *different* tagged
    /// client is waiting behind it, and the front has not yet aged past
    /// the live grant-wait p99 upper bound — then the first such
    /// different-client waiter overtakes. Queue-wait-aware by
    /// construction: any waiter already at the p99 is immune to being
    /// skipped, so fairness can never starve a client.
    fn fair_choice(
        queue: &VecDeque<Waiter>,
        last_client: u64,
        wait_hist: &crate::metrics::LatencyHistogram,
    ) -> usize {
        let Some(front) = queue.front() else { return 0 };
        if front.client == 0 || front.client != last_client {
            return 0;
        }
        let front_aged = wait_hist.percentile_upper_bound(0.99).is_some_and(|p99| {
            let waited = front
                .enqueued
                .elapsed()
                .as_micros()
                .min(u128::from(u64::MAX));
            waited as u64 >= p99
        });
        if front_aged {
            return 0;
        }
        queue
            .iter()
            .position(|w| !w.is_cancelled() && w.client != 0 && w.client != last_client)
            .unwrap_or(0)
    }

    /// Closes a session; reports whether it existed. Queued waiters are
    /// failed with `session_not_found` — never dropped silently.
    pub fn close(&self, id: u64) -> bool {
        let removed = self.shard_of(id).lock().remove(&id);
        match removed {
            None => false,
            Some(slot) => {
                self.count.fetch_sub(1, Ordering::AcqRel);
                self.fail_waiters(slot.queue, id, "closed");
                true
            }
        }
    }

    /// Delivers `session_not_found` to every drained waiter (outside any
    /// shard lock — the caller already removed the slot).
    fn fail_waiters(&self, queue: VecDeque<Waiter>, id: u64, why: &str) {
        for mut waiter in queue {
            self.queue_depth.fetch_sub(1, Ordering::Relaxed);
            waiter.fail(ServiceError::session_not_found(format!(
                "session {id} was {why} while this request was queued on it"
            )));
        }
    }

    /// Evicts sessions idle longer than `ttl`; returns how many were
    /// dropped. Checked-out sessions are never evicted mid-request, and
    /// a session with queued waiters is never evicted out from under its
    /// queue. Shards are swept one at a time — no global freeze.
    pub fn evict_idle(&self, ttl: Duration) -> usize {
        let now = Instant::now();
        let mut evicted = 0;
        for shard in &self.shards {
            let mut slots = shard.lock();
            let before = slots.len();
            slots.retain(|_, slot| {
                !slot.queue.is_empty()
                    || match &slot.state {
                        SlotState::Available(s) => now.duration_since(s.last_used) < ttl,
                        SlotState::CheckedOut => true,
                    }
            });
            evicted += before - slots.len();
        }
        if evicted > 0 {
            self.count.fetch_sub(evicted, Ordering::AcqRel);
        }
        evicted
    }

    /// Number of open sessions (including checked-out ones).
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(open, checked_out_now, busy_conflicts)` — the `stats` op's
    /// `session_table` row. `busy_conflicts` counts *refusals* only
    /// (queue overflow / queueing disabled); queued requests show up in
    /// [`queue_counters`](Self::queue_counters) instead.
    pub fn counters(&self) -> (usize, usize, u64) {
        (
            self.count.load(Ordering::Acquire),
            self.checked_out.load(Ordering::Relaxed),
            self.busy_conflicts.load(Ordering::Relaxed),
        )
    }

    /// Snapshot of the dispatch-queue counters — the `stats` op's
    /// `session_queue` block.
    pub fn queue_counters(&self) -> QueueCounters {
        QueueCounters {
            per_session_cap: self.queue_depth_cap,
            depth: self.queue_depth.load(Ordering::Relaxed),
            max_depth: self.queue_max_depth.load(Ordering::Relaxed),
            queued_total: self.queued_total.load(Ordering::Relaxed),
            granted: self.queue_granted.load(Ordering::Relaxed),
            cancelled: self.queue_cancelled.load(Ordering::Relaxed),
            fair_grants: self.queue_fair_grants.load(Ordering::Relaxed),
            wait_micros: self.queue_wait_micros.load(Ordering::Relaxed),
            wait_p50_micros: self.queue_wait_hist.percentile_upper_bound(0.50),
            wait_p90_micros: self.queue_wait_hist.percentile_upper_bound(0.90),
            wait_p99_micros: self.queue_wait_hist.percentile_upper_bound(0.99),
        }
    }

    /// `(id, dataset, kind, returned, queue_high_water)` rows for
    /// `stats`, sorted by id. Checked-out sessions appear with their
    /// kind reported as `"busy"`; the high-water mark of each session's
    /// own dispatch queue is reported either way (it belongs to the
    /// slot, not the session).
    pub fn list(&self) -> Vec<(u64, String, String, usize, usize)> {
        let mut rows: Vec<(u64, String, String, usize, usize)> = Vec::new();
        for shard in &self.shards {
            let slots = shard.lock();
            rows.extend(slots.iter().map(|(&id, slot)| match &slot.state {
                SlotState::Available(s) => (
                    id,
                    s.dataset.clone(),
                    s.state.kind().to_string(),
                    s.returned,
                    slot.queue_high_water,
                ),
                SlotState::CheckedOut => (
                    id,
                    String::new(),
                    "busy".to_string(),
                    0,
                    slot.queue_high_water,
                ),
            }));
        }
        rows.sort_by_key(|r| r.0);
        rows
    }

    /// The `debug.dump` slice of the table: one row per slot with its
    /// occupancy state and queue depth — enough to see which session a
    /// wedged worker is holding and who is parked behind it. Visits
    /// shards one at a time (same locking shape as [`list`](Self::list)).
    pub fn debug_value(&self) -> serde_json::Value {
        let mut rows: Vec<(u64, serde_json::Value)> = Vec::new();
        for shard in &self.shards {
            let slots = shard.lock();
            rows.extend(slots.iter().map(|(&id, slot)| {
                let state = match &slot.state {
                    SlotState::Available(s) => s.state.kind().to_string(),
                    SlotState::CheckedOut => "busy".to_string(),
                };
                (
                    id,
                    crate::proto::Object::new()
                        .field("session", id)
                        .field("state", state)
                        .field("queued", slot.queue.len())
                        .field("queue_high_water", slot.queue_high_water)
                        .build(),
                )
            }));
        }
        rows.sort_by_key(|r| r.0);
        serde_json::Value::Array(rows.into_iter().map(|(_, v)| v).collect())
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test scaffolding records cross-thread order in plain mutexes"
)]
mod tests {
    use super::*;
    use srank_core::{AngleInterval, Dataset, Enumerator2D};
    use std::sync::Mutex;

    fn sweep_state() -> SessionState {
        let data = Dataset::figure1();
        SessionState::Sweep2D(
            Enumerator2D::new(&data, AngleInterval::full())
                .unwrap()
                .into_state(),
        )
    }

    #[test]
    fn open_checkout_checkin_roundtrip() {
        let mgr = SessionManager::new(8);
        let id = mgr.open("d".into(), 1, sweep_state()).unwrap();
        let out = mgr.check_out(id).unwrap();
        // Concurrent check-out is refused, not blocked.
        assert_eq!(mgr.check_out(id).unwrap_err().code, ErrorCode::SessionBusy);
        drop(out); // RAII check-in
        assert!(mgr.check_out(id).is_ok());
    }

    #[test]
    fn panic_while_checked_out_still_checks_in() {
        let mgr = SessionManager::new(8);
        let id = mgr.open("d".into(), 1, sweep_state()).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _out = mgr.check_out(id).unwrap();
            panic!("request handler crashed");
        }));
        assert!(result.is_err());
        // The guard's Drop ran during unwinding: the session is usable.
        assert!(mgr.check_out(id).is_ok(), "slot must not leak as busy");
    }

    #[test]
    fn discard_closes_instead_of_restoring() {
        let mgr = SessionManager::new(8);
        let id = mgr.open("d".into(), 1, sweep_state()).unwrap();
        mgr.check_out(id).unwrap().discard();
        assert_eq!(
            mgr.check_out(id).unwrap_err().code,
            ErrorCode::SessionNotFound
        );
        assert!(mgr.is_empty());
    }

    #[test]
    fn close_and_unknown_ids() {
        let mgr = SessionManager::new(8);
        let id = mgr.open("d".into(), 1, sweep_state()).unwrap();
        assert!(mgr.close(id));
        assert!(!mgr.close(id));
        assert_eq!(
            mgr.check_out(id).unwrap_err().code,
            ErrorCode::SessionNotFound
        );
    }

    #[test]
    fn session_limit_is_enforced() {
        let mgr = SessionManager::new(2);
        mgr.open("a".into(), 1, sweep_state()).unwrap();
        mgr.open("b".into(), 1, sweep_state()).unwrap();
        let err = mgr.open("c".into(), 1, sweep_state()).unwrap_err();
        assert_eq!(err.code, ErrorCode::SessionLimit);
    }

    #[test]
    fn idle_eviction_drops_only_stale_sessions() {
        let mgr = SessionManager::new(8);
        let old = mgr.open("a".into(), 1, sweep_state()).unwrap();
        // Nothing is older than an hour.
        assert_eq!(mgr.evict_idle(Duration::from_secs(3600)), 0);
        // Everything is older than zero.
        assert_eq!(mgr.evict_idle(Duration::ZERO), 1);
        assert_eq!(
            mgr.check_out(old).unwrap_err().code,
            ErrorCode::SessionNotFound
        );
        assert!(mgr.is_empty());
    }

    #[test]
    fn checked_out_sessions_survive_eviction() {
        let mgr = SessionManager::new(8);
        let id = mgr.open("a".into(), 1, sweep_state()).unwrap();
        let out = mgr.check_out(id).unwrap();
        assert_eq!(
            mgr.evict_idle(Duration::ZERO),
            0,
            "in-flight request is safe"
        );
        drop(out);
        assert!(mgr.check_out(id).is_ok());
    }

    #[test]
    fn sessions_of_one_dataset_share_a_shard_and_ids_stay_unique() {
        let mgr = SessionManager::new(64);
        let mask = NUM_SHARDS as u64 - 1;
        let a1 = mgr.open("alpha".into(), 1, sweep_state()).unwrap();
        let a2 = mgr.open("alpha".into(), 1, sweep_state()).unwrap();
        assert_eq!(a1 & mask, a2 & mask, "same dataset ⇒ same shard");
        assert_ne!(a1, a2, "ids stay unique within a shard");
        // 16 distinct datasets spread across more than one shard.
        let shards: std::collections::HashSet<u64> = (0..16)
            .map(|i| mgr.open(format!("ds-{i}"), 1, sweep_state()).unwrap() & mask)
            .collect();
        assert!(shards.len() > 1, "hashing must actually spread datasets");
    }

    #[test]
    fn contention_smoke_parallel_sessions_across_datasets() {
        // 8 threads × distinct datasets hammer open/check-out/advance/close
        // concurrently; per-dataset sharding means they mostly touch
        // disjoint locks, and every invariant must hold at the end.
        let mgr = SessionManager::new(1024);
        const THREADS: usize = 8;
        const ROUNDS: usize = 40;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let mgr = &mgr;
                s.spawn(move || {
                    for r in 0..ROUNDS {
                        let id = mgr
                            .open(format!("dataset-{t}"), 1, sweep_state())
                            .expect("under the cap");
                        {
                            let mut out = mgr.check_out(id).expect("fresh session");
                            // Busy semantics hold even under load.
                            assert_eq!(mgr.check_out(id).unwrap_err().code, ErrorCode::SessionBusy);
                            out.session().returned += 1;
                        }
                        // Keep a few sessions alive per thread, close the rest.
                        if r % 4 != 0 {
                            assert!(mgr.close(id));
                        }
                    }
                });
            }
        });
        let expected_alive = THREADS * ROUNDS.div_ceil(4);
        assert_eq!(mgr.len(), expected_alive);
        assert_eq!(mgr.list().len(), expected_alive);
        // Everything is checked in: every survivor can be checked out.
        for (id, dataset, kind, returned, high_water) in mgr.list() {
            assert!(dataset.starts_with("dataset-"), "{id}: {kind}");
            assert_eq!(returned, 1);
            assert_eq!(high_water, 0, "nothing ever queued on {id}");
            drop(mgr.check_out(id).expect("checked in"));
        }
        assert_eq!(mgr.evict_idle(Duration::ZERO), expected_alive);
        assert!(mgr.is_empty());
    }

    #[test]
    fn checkout_counters_track_busy_conflicts_and_balance() {
        let mgr = SessionManager::new(8);
        let id = mgr.open("d".into(), 1, sweep_state()).unwrap();
        assert_eq!(mgr.counters(), (1, 0, 0));
        let out = mgr.check_out(id).unwrap();
        assert_eq!(mgr.counters(), (1, 1, 0));
        // Two concurrent touches of a busy session are counted, not lost.
        assert!(mgr.check_out(id).is_err());
        assert!(mgr.check_out(id).is_err());
        assert_eq!(mgr.counters(), (1, 1, 2));
        drop(out);
        assert_eq!(mgr.counters(), (1, 0, 2));
        // Discard balances the checked-out gauge too.
        mgr.check_out(id).unwrap().discard();
        assert_eq!(mgr.counters(), (0, 0, 2));
    }

    #[test]
    fn queued_waiters_are_granted_in_fifo_order() {
        let mgr = Arc::new(SessionManager::new(8));
        let id = mgr.open("d".into(), 1, sweep_state()).unwrap();
        let out = mgr.check_out(id).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3u32 {
            let order = Arc::clone(&order);
            let chain = Arc::clone(&mgr);
            let outcome = mgr
                .check_out_or_queue(id, || {
                    Waiter::new(
                        move |granted| {
                            let session = granted.session.expect("handed the session");
                            order.lock().unwrap().push(i);
                            // Check back in, which hands off to the next waiter.
                            drop(chain.adopt(session));
                        },
                        None,
                        0,
                    )
                })
                .unwrap();
            assert!(matches!(outcome, CheckOut::Queued), "session is held");
        }
        assert_eq!(mgr.queue_counters().depth, 3);
        drop(out); // FIFO handoff chain runs to completion
        assert_eq!(order.lock().unwrap().as_slice(), &[0, 1, 2]);
        let q = mgr.queue_counters();
        assert_eq!((q.depth, q.queued_total, q.granted), (0, 3, 3));
        // No refusal happened, and the session is fully checked in.
        assert_eq!(mgr.counters().2, 0, "queued requests are not conflicts");
        assert!(mgr.check_out(id).is_ok());
    }

    #[test]
    fn a_different_client_overtakes_a_repeat_client_at_the_front() {
        let mgr = Arc::new(SessionManager::new(8));
        let id = mgr.open("d".into(), 1, sweep_state()).unwrap();
        let out = mgr.check_out(id).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        // Seed the grant-wait histogram with one deliberately long wait
        // (an anonymous waiter parked ~20 ms before the chain runs), so
        // the live p99 sits in the tens-of-milliseconds bucket. Without
        // it the p99 would be a0's microsecond wait and a scheduler
        // hiccup could "age" a1 past it, making a1 immune to overtake
        // and the test timing-dependent.
        {
            let order = Arc::clone(&order);
            let chain = Arc::clone(&mgr);
            let outcome = mgr
                .check_out_or_queue(id, || {
                    Waiter::new(
                        move |granted| {
                            order.lock().unwrap().push("warm");
                            drop(chain.adopt(granted.session.expect("handed the session")));
                        },
                        None,
                        0,
                    )
                })
                .unwrap();
            assert!(matches!(outcome, CheckOut::Queued));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Client A parks twice, client B once behind them.
        for (label, client) in [("a0", 1u64), ("a1", 1), ("b0", 2)] {
            let order = Arc::clone(&order);
            let chain = Arc::clone(&mgr);
            let outcome = mgr
                .check_out_or_queue(id, || {
                    Waiter::new(
                        move |granted| {
                            order.lock().unwrap().push(label);
                            drop(chain.adopt(granted.session.expect("handed the session")));
                        },
                        None,
                        client,
                    )
                })
                .unwrap();
            assert!(matches!(outcome, CheckOut::Queued));
        }
        drop(out);
        // The anonymous seed waiter and a0 are granted FIFO. The third
        // grant would repeat client A, so B overtakes; A's remaining
        // waiter follows.
        assert_eq!(
            order.lock().unwrap().as_slice(),
            &["warm", "a0", "b0", "a1"]
        );
        let q = mgr.queue_counters();
        assert_eq!((q.granted, q.fair_grants), (4, 1));
    }

    #[test]
    fn anonymous_waiters_always_stay_in_arrival_order() {
        let mgr = Arc::new(SessionManager::new(8));
        let id = mgr.open("d".into(), 1, sweep_state()).unwrap();
        let out = mgr.check_out(id).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        // One tagged client interleaved with untagged traffic: the
        // untagged waiters are never reordered (client 0 is exempt).
        for (i, client) in [(0u32, 3u64), (1, 0), (2, 3), (3, 0)] {
            let order = Arc::clone(&order);
            let chain = Arc::clone(&mgr);
            let outcome = mgr
                .check_out_or_queue(id, || {
                    Waiter::new(
                        move |granted| {
                            order.lock().unwrap().push(i);
                            drop(chain.adopt(granted.session.expect("handed the session")));
                        },
                        None,
                        client,
                    )
                })
                .unwrap();
            assert!(matches!(outcome, CheckOut::Queued));
        }
        drop(out);
        assert_eq!(order.lock().unwrap().as_slice(), &[0, 1, 2, 3]);
        assert_eq!(mgr.queue_counters().fair_grants, 0);
    }

    #[test]
    fn per_session_high_water_and_wait_percentiles_are_exposed() {
        let mgr = Arc::new(SessionManager::new(8));
        let id = mgr.open("d".into(), 1, sweep_state()).unwrap();
        let quiet = mgr.open("e".into(), 1, sweep_state()).unwrap();
        // Before anything queues: no percentile data, zero high-water.
        let q = mgr.queue_counters();
        assert_eq!(q.wait_p50_micros, None);
        let out = mgr.check_out(id).unwrap();
        for _ in 0..3 {
            let chain = Arc::clone(&mgr);
            assert!(matches!(
                mgr.check_out_or_queue(id, || Waiter::new(
                    move |granted| {
                        drop(chain.adopt(granted.session.expect("granted")));
                    },
                    None,
                    0
                ))
                .unwrap(),
                CheckOut::Queued
            ));
        }
        drop(out); // FIFO chain drains the queue
        let rows = mgr.list();
        let busy_row = rows.iter().find(|r| r.0 == id).unwrap();
        assert_eq!(busy_row.4, 3, "high-water sticks after the queue drains");
        let quiet_row = rows.iter().find(|r| r.0 == quiet).unwrap();
        assert_eq!(quiet_row.4, 0, "the idle session saw no queue");
        let q = mgr.queue_counters();
        assert_eq!(q.granted, 3);
        let p50 = q.wait_p50_micros.expect("grants recorded");
        let p99 = q.wait_p99_micros.expect("grants recorded");
        assert!(p50 <= p99, "percentiles are monotone: {p50} vs {p99}");
    }

    #[test]
    fn handoff_blocks_a_thread_until_the_checkout_returns() {
        let mgr = Arc::new(SessionManager::new(8));
        let id = mgr.open("d".into(), 1, sweep_state()).unwrap();
        let out = mgr.check_out(id).unwrap();
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        assert!(matches!(
            mgr.check_out_or_queue(id, || Waiter::new(
                move |grant| tx.send(grant).unwrap(),
                None,
                0
            ))
            .unwrap(),
            CheckOut::Queued
        ));
        let waiter_thread = {
            let mgr = Arc::clone(&mgr);
            std::thread::spawn(move || {
                let grant: Grant = rx.recv().unwrap();
                let mut checked = mgr.adopt(grant.session.expect("granted"));
                checked.session().returned += 1;
                grant.granted - grant.parked
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            !waiter_thread.is_finished(),
            "waiter must block while the session is held"
        );
        drop(out);
        let waited = waiter_thread.join().expect("granted after check-in");
        let mut again = mgr.check_out(id).expect("checked back in");
        assert_eq!(again.session().returned, 1, "the queued request ran");
        assert_eq!(
            mgr.queue_counters().wait_micros,
            crate::metrics::micros(waited),
            "the grant carries the interval the queue counters record"
        );
    }

    #[test]
    fn bounded_queue_overflows_to_session_queue_full() {
        let mgr = Arc::new(SessionManager::with_queue_depth(8, 1));
        let id = mgr.open("d".into(), 1, sweep_state()).unwrap();
        let out = mgr.check_out(id).unwrap();
        let chain = Arc::clone(&mgr);
        assert!(matches!(
            mgr.check_out_or_queue(id, || Waiter::new(
                move |granted| {
                    drop(chain.adopt(granted.session.expect("granted")));
                },
                None,
                0
            ))
            .unwrap(),
            CheckOut::Queued
        ));
        let err = mgr
            .check_out_or_queue(id, || Waiter::new(|_| {}, None, 0))
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::SessionQueueFull);
        assert_eq!(mgr.counters().2, 1, "overflow is a counted refusal");
        drop(out);
        assert_eq!(mgr.queue_counters().granted, 1);
    }

    #[test]
    fn queue_depth_zero_keeps_the_classic_busy_refusal() {
        let mgr = SessionManager::with_queue_depth(8, 0);
        let id = mgr.open("d".into(), 1, sweep_state()).unwrap();
        let out = mgr.check_out(id).unwrap();
        let err = mgr
            .check_out_or_queue(id, || Waiter::new(|_| {}, None, 0))
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::SessionBusy);
        assert_eq!(mgr.counters().2, 1);
        drop(out);
    }

    #[test]
    fn closing_a_session_fails_its_queued_waiters() {
        let mgr = Arc::new(SessionManager::new(8));
        let id = mgr.open("d".into(), 1, sweep_state()).unwrap();
        let out = mgr.check_out(id).unwrap();
        let delivered = Arc::new(Mutex::new(None));
        let seen = Arc::clone(&delivered);
        assert!(matches!(
            mgr.check_out_or_queue(id, || Waiter::new(
                move |granted| {
                    *seen.lock().unwrap() = Some(granted.session.map(|_| ()));
                },
                None,
                0
            ))
            .unwrap(),
            CheckOut::Queued
        ));
        assert!(mgr.close(id));
        // The waiter was failed at close time, not left hanging.
        let outcome = delivered.lock().unwrap().take().expect("delivered");
        assert_eq!(outcome.unwrap_err().code, ErrorCode::SessionNotFound);
        assert_eq!(mgr.queue_counters().depth, 0);
        drop(out); // must not resurrect the closed session
        assert!(mgr.is_empty());
    }

    #[test]
    fn eviction_never_drops_a_session_with_queued_work() {
        // Regression: idle eviction racing a queued sub-request must not
        // evict the session out from under its queue.
        let mgr = Arc::new(SessionManager::new(8));
        let id = mgr.open("d".into(), 1, sweep_state()).unwrap();
        let out = mgr.check_out(id).unwrap();
        let granted = Arc::new(Mutex::new(false));
        let seen = Arc::clone(&granted);
        let chain = Arc::clone(&mgr);
        assert!(matches!(
            mgr.check_out_or_queue(id, || Waiter::new(
                move |outcome| {
                    *seen.lock().unwrap() = outcome.session.is_ok();
                    drop(chain.adopt(outcome.session.expect("granted, not evicted")));
                },
                None,
                0
            ))
            .unwrap(),
            CheckOut::Queued
        ));
        assert_eq!(
            mgr.evict_idle(Duration::ZERO),
            0,
            "a session with pending queued work is never evicted"
        );
        drop(out); // hand off to the queued waiter
        assert!(*granted.lock().unwrap(), "queued work ran after the sweep");
        // Once the queue is drained the session evicts normally again.
        assert_eq!(mgr.evict_idle(Duration::ZERO), 1);
        assert!(mgr.is_empty());
    }

    #[test]
    fn cancelled_waiters_are_dropped_on_grant_not_executed() {
        use std::sync::atomic::AtomicBool;
        let mgr = Arc::new(SessionManager::new(8));
        let id = mgr.open("d".into(), 1, sweep_state()).unwrap();
        let out = mgr.check_out(id).unwrap();
        // Three parked requests: the first two from a connection that
        // dies while they wait, the third from a live one.
        let dead = Arc::new(AtomicBool::new(false));
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2u32 {
            let outcomes = Arc::clone(&outcomes);
            let waiter = Waiter::new(
                move |granted: Grant| {
                    outcomes
                        .lock()
                        .unwrap()
                        .push((i, granted.session.map(|_| ())));
                },
                Some(Arc::clone(&dead)),
                0,
            );
            assert!(matches!(
                mgr.check_out_or_queue(id, || waiter).unwrap(),
                CheckOut::Queued
            ));
        }
        let live_ran = Arc::new(Mutex::new(false));
        {
            let live_ran = Arc::clone(&live_ran);
            let chain = Arc::clone(&mgr);
            assert!(matches!(
                mgr.check_out_or_queue(id, || Waiter::new(
                    move |granted| {
                        *live_ran.lock().unwrap() = true;
                        drop(chain.adopt(granted.session.expect("live waiter is granted")));
                    },
                    None,
                    0
                ))
                .unwrap(),
                CheckOut::Queued
            ));
        }
        // The connection dies while all three are parked.
        dead.store(true, Ordering::Relaxed);
        drop(out); // grant: skips the two cancelled waiters, runs the live one
        let outcomes = outcomes.lock().unwrap();
        assert_eq!(outcomes.len(), 2, "cancelled waiters still get woken");
        for (i, outcome) in outcomes.iter() {
            let err = outcome.as_ref().unwrap_err();
            assert_eq!(err.code, ErrorCode::SessionNotFound, "waiter {i}");
            assert!(err.message.contains("cancelled"), "waiter {i}: {err}");
        }
        assert!(*live_ran.lock().unwrap(), "live waiter executed");
        let q = mgr.queue_counters();
        assert_eq!((q.cancelled, q.granted, q.depth), (2, 1, 0));
        // The session itself is unharmed.
        assert!(mgr.check_out(id).is_ok());
    }

    #[test]
    fn a_cancelled_tail_leaves_the_session_available() {
        use std::sync::atomic::AtomicBool;
        // Only cancelled waiters queued: the grant loop must drain them
        // and check the session back in (not leave it marked busy).
        let mgr = Arc::new(SessionManager::new(8));
        let id = mgr.open("d".into(), 1, sweep_state()).unwrap();
        let out = mgr.check_out(id).unwrap();
        let dead = Arc::new(AtomicBool::new(true));
        assert!(matches!(
            mgr.check_out_or_queue(id, || Waiter::new(|_| {}, Some(Arc::clone(&dead)), 0))
                .unwrap(),
            CheckOut::Queued
        ));
        drop(out);
        assert_eq!(mgr.queue_counters().cancelled, 1);
        assert!(
            mgr.check_out(id).is_ok(),
            "session is available after a fully-cancelled queue"
        );
    }

    #[test]
    fn close_racing_a_checkout_wins() {
        let mgr = SessionManager::new(8);
        let id = mgr.open("a".into(), 1, sweep_state()).unwrap();
        let out = mgr.check_out(id).unwrap();
        assert!(mgr.close(id));
        drop(out); // must not resurrect the closed session
        assert_eq!(
            mgr.check_out(id).unwrap_err().code,
            ErrorCode::SessionNotFound
        );
        assert!(mgr.is_empty());
    }
}
