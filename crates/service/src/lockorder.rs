//! Ordered lock wrappers: the service-wide lock hierarchy, enforced.
//!
//! Every shared lock in this crate is an [`OrderedMutex`] or
//! [`OrderedRwLock`] typed by a lock class from [`rank`]. The classes
//! are declared once, in the `lock_ranks!` table below, and their ranks
//! form the crate's **lock acquisition order**: a thread may only
//! acquire a lock whose rank is *strictly greater* than every lock it
//! already holds. The table is the only place a rank is written: a
//! lock's class is its type parameter, so a construction site names no
//! rank and no class name, and a build-time assertion rejects a table
//! whose ranks do not strictly increase.
//!
//! Nesting is checked at runtime: under `debug_assertions` (so: every
//! `cargo test` run, including the stress and chaos suites) each
//! acquisition pushes its rank onto a thread-local stack and panics on
//! an out-of-order acquisition. Release builds compile the bookkeeping
//! away: the wrappers reduce to a plain `Mutex`/`RwLock`.
//!
//! Raw `std::sync::Mutex`/`RwLock` are disallowed in this crate by
//! `crates/service/clippy.toml` (`clippy::disallowed_types`); this
//! module and test scaffolding are the only exemptions.
//!
//! The wrappers also centralize the crate's **poison policy**: worker
//! panics are already contained by `catch_unwind` at the pool and
//! transport seams, so a poisoned lock means "a panic was already
//! reported elsewhere", and every acquisition recovers the guard via
//! [`std::sync::PoisonError::into_inner`] instead of cascading the panic
//! into unrelated request-serving threads.
#![expect(
    clippy::disallowed_types,
    reason = "the ordered wrappers are the one place raw locks are built"
)]

use std::fmt;
use std::marker::PhantomData;
use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A lock class: one row of the `lock_ranks!` table, as a zero-sized
/// marker type that [`OrderedMutex`] and [`OrderedRwLock`] are typed by.
pub trait LockClass {
    /// The class name, as `debug.dump` and the order-violation panic
    /// print it.
    const NAME: &'static str;
    /// The class's position in the acquisition order (lower first).
    const RANK: u16;
}

/// Whether the ranks of `table` strictly increase — the table's
/// build-time check.
const fn strictly_increasing(table: &[(&str, u16)]) -> bool {
    let mut i = 1;
    while i < table.len() {
        if table[i].1 <= table[i - 1].1 {
            return false;
        }
        i += 1;
    }
    true
}

/// Declares the lock classes: one row per class (doc, marker type,
/// name, rank), in acquisition order. Yields each marker with its
/// [`LockClass`] impl, `TABLE` (the `(name, rank)` rows), and a
/// build-time assertion that the ranks strictly increase.
macro_rules! lock_ranks {
    ($($(#[$doc:meta])* $class:ident => $name:literal, $rank:literal;)*) => {
        $(
            $(#[$doc])*
            pub enum $class {}

            impl super::LockClass for $class {
                const NAME: &'static str = $name;
                const RANK: u16 = $rank;
            }
        )*

        /// The full hierarchy as `(class, rank)` rows, in acquisition
        /// order — rendered by the `debug.dump` op's self-diagnostic.
        pub const TABLE: &[(&str, u16)] = &[$(($name, $rank)),*];

        const _: () = assert!(
            super::strictly_increasing(TABLE),
            "lock_ranks!: ranks must strictly increase down the table"
        );
    };
}

/// Lock classes, in mandatory acquisition order (lower rank first).
/// Declare a service lock as `OrderedMutex<rank::SomeClass, T>` and
/// build it with `OrderedMutex::new(value)`.
pub mod rank {
    lock_ranks! {
        /// Dataset registry table (`registry::DatasetRegistry`) — the
        /// outermost lock: everything else is acquired while resolving or
        /// holding a dataset.
        Registry => "registry", 10;
        /// One session-table shard (`session::SessionManager`); a thread
        /// touches at most one shard at a time. A parked request's grant
        /// is delivered after the shard lock is released, over a
        /// one-slot channel (a transport thread) or as a pool job.
        SessionShard => "session_shard", 20;
        /// The pool's MPMC work queue (`pool::WorkQueue`); a pool-parked
        /// `session.get_next`'s grant continuation is submitted to it by
        /// whichever thread returned the session.
        PoolWorkQueue => "pool_work_queue", 40;
        /// A batch's bounded response queue (`pool::BoundedQueue`).
        PoolResponseQueue => "pool_response_queue", 50;
        /// The engine's query-result LRU.
        ResultCache => "result_cache", 60;
        /// The engine's shared Monte-Carlo sample-batch LRU.
        SampleCache => "sample_cache", 70;
        /// Store failure state (`store::StoreCounters::last_error`) —
        /// recorded while snapshot passes may hold cache locks.
        StoreState => "store_state", 80;
        /// A connection's stream-multiplexing gate (`server::MuxGate`).
        MuxGate => "mux_gate", 90;
        /// A connection's shared line writer — held across one envelope
        /// write + flush.
        ConnWriter => "conn_writer", 100;
        /// The per-client resource-accounting table (`obs::ClientTable`) —
        /// charged from dispatch and transport paths, including while a
        /// connection writer is held.
        ClientTable => "client_table", 105;
        /// The global bounded trace ring (`trace::Recorder`) — the
        /// innermost lock: spans drain into it from anywhere.
        TraceRing => "trace_ring", 110;
    }
}

#[cfg(debug_assertions)]
mod held {
    use std::cell::RefCell;

    thread_local! {
        /// Ranks (and class names) of the locks this thread currently
        /// holds, in acquisition order.
        static STACK: RefCell<Vec<(u16, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn acquire(rank: u16, name: &'static str) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(&(top, top_name)) = stack.last() {
                assert!(
                    rank > top,
                    "lock-order violation: acquiring '{name}' (rank {rank}) \
                     while holding '{top_name}' (rank {top}); \
                     see crates/service/src/lockorder.rs"
                );
            }
            stack.push((rank, name));
        });
    }

    pub(super) fn release(rank: u16, name: &'static str) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards are dropped in LIFO order everywhere in this crate;
            // tolerate out-of-order drops anyway (remove by value) so the
            // checker constrains acquisition order only.
            if let Some(pos) = stack.iter().rposition(|&(r, n)| r == rank && n == name) {
                stack.remove(pos);
            }
        });
    }
}

/// RAII record of one acquisition on the thread-local hierarchy stack.
/// Zero-sized (and free) in release builds.
struct Token {
    #[cfg(debug_assertions)]
    rank: u16,
    #[cfg(debug_assertions)]
    name: &'static str,
}

impl Token {
    #[inline]
    fn acquire(rank: u16, name: &'static str) -> Self {
        #[cfg(debug_assertions)]
        {
            held::acquire(rank, name);
            Token { rank, name }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = (rank, name);
            Token {}
        }
    }
}

impl Drop for Token {
    #[inline]
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        held::release(self.rank, self.name);
    }
}

/// A `Mutex` of lock class `C`: its position in the service lock
/// hierarchy is `C::RANK`.
pub struct OrderedMutex<C, T> {
    class: PhantomData<fn() -> C>,
    inner: Mutex<T>,
}

impl<C: LockClass, T> OrderedMutex<C, T> {
    /// Wraps `value` in a lock of class `C`.
    pub const fn new(value: T) -> Self {
        Self {
            class: PhantomData,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, asserting hierarchy order (debug builds) and
    /// recovering from poisoning (see the module docs for the policy).
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let token = Token::acquire(C::RANK, C::NAME);
        let guard = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        OrderedMutexGuard {
            guard,
            _token: token,
        }
    }
}

impl<C: LockClass, T: fmt::Debug> fmt::Debug for OrderedMutex<C, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("name", &C::NAME)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard for [`OrderedMutex`]; releases the hierarchy slot on drop.
pub struct OrderedMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    _token: Token,
}

impl<'a, T> OrderedMutexGuard<'a, T> {
    /// Blocks on `condvar`, atomically releasing the mutex; the
    /// hierarchy slot is kept (the thread still *logically* owns the
    /// lock — it re-acquires before returning, and a sleeping thread
    /// acquires nothing else meanwhile).
    pub fn wait(self, condvar: &Condvar) -> Self {
        let Self { guard, _token } = self;
        let guard = condvar
            .wait(guard)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Self { guard, _token }
    }

    /// [`Self::wait`] with a timeout; whether the wakeup was a timeout is
    /// deliberately not reported — callers re-check their predicate
    /// either way.
    pub fn wait_timeout(self, condvar: &Condvar, timeout: std::time::Duration) -> Self {
        let Self { guard, _token } = self;
        let (guard, _timed_out) = condvar
            .wait_timeout(guard, timeout)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Self { guard, _token }
    }
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// An `RwLock` of lock class `C`. Readers and writers occupy the same
/// rank: the hierarchy orders lock *classes*, not access modes.
pub struct OrderedRwLock<C, T> {
    class: PhantomData<fn() -> C>,
    inner: RwLock<T>,
}

impl<C: LockClass, T> OrderedRwLock<C, T> {
    /// Wraps `value` in a lock of class `C`.
    pub const fn new(value: T) -> Self {
        Self {
            class: PhantomData,
            inner: RwLock::new(value),
        }
    }

    /// Shared acquisition; hierarchy-checked and poison-recovering.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        let token = Token::acquire(C::RANK, C::NAME);
        let guard = self
            .inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        OrderedReadGuard {
            guard,
            _token: token,
        }
    }

    /// Exclusive acquisition; hierarchy-checked and poison-recovering.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        let token = Token::acquire(C::RANK, C::NAME);
        let guard = self
            .inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        OrderedWriteGuard {
            guard,
            _token: token,
        }
    }
}

impl<C: LockClass, T: fmt::Debug> fmt::Debug for OrderedRwLock<C, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("name", &C::NAME)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared guard for [`OrderedRwLock`].
pub struct OrderedReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    _token: Token,
}

impl<T> std::ops::Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Exclusive guard for [`OrderedRwLock`].
pub struct OrderedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    _token: Token,
}

impl<T> std::ops::Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::rank::*;
    use super::*;

    fn row<C: LockClass>() -> (&'static str, u16) {
        (C::NAME, C::RANK)
    }

    #[test]
    fn every_marker_matches_its_table_row() {
        let markers = [
            row::<Registry>(),
            row::<SessionShard>(),
            row::<PoolWorkQueue>(),
            row::<PoolResponseQueue>(),
            row::<ResultCache>(),
            row::<SampleCache>(),
            row::<StoreState>(),
            row::<MuxGate>(),
            row::<ConnWriter>(),
            row::<ClientTable>(),
            row::<TraceRing>(),
        ];
        assert_eq!(markers.as_slice(), TABLE);
    }

    #[test]
    fn rank_check_rejects_a_descending_slice() {
        assert!(strictly_increasing(TABLE));
        assert!(strictly_increasing(&[]));
        assert!(!strictly_increasing(&[("a", 20), ("b", 10)]));
        assert!(!strictly_increasing(&[("a", 10), ("b", 10)]));
        assert!(!strictly_increasing(&[("a", 10), ("b", 30), ("c", 20)]));
    }

    #[test]
    fn in_order_acquisition_is_fine() {
        let a = OrderedMutex::<Registry, _>::new(1);
        let b = OrderedMutex::<TraceRing, _>::new(2);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
    }

    #[test]
    fn reacquisition_after_release_is_fine() {
        let a = OrderedMutex::<ConnWriter, _>::new(());
        let b = OrderedMutex::<MuxGate, _>::new(());
        drop(a.lock());
        drop(b.lock()); // lower rank, but nothing is held
        drop(a.lock());
    }

    #[test]
    #[cfg(debug_assertions)]
    fn out_of_order_acquisition_panics_in_debug() {
        let result = std::thread::spawn(|| {
            let a = OrderedMutex::<ConnWriter, _>::new(());
            let b = OrderedMutex::<MuxGate, _>::new(());
            let _ga = a.lock();
            let _gb = b.lock(); // rank 90 under rank 100: hierarchy violation
        })
        .join();
        assert!(result.is_err(), "inverted acquisition must panic");
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_cascading() {
        let m = std::sync::Arc::new(OrderedMutex::<ResultCache, _>::new(7));
        let poisoner = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = poisoner.lock();
            panic!("poison the mutex");
        })
        .join();
        assert_eq!(*m.lock(), 7, "second locker recovers the value");
    }

    #[test]
    fn condvar_wait_roundtrips_the_guard() {
        use std::sync::Arc;
        let pair = Arc::new((OrderedMutex::<PoolWorkQueue, _>::new(false), Condvar::new()));
        let signaller = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            *signaller.0.lock() = true;
            signaller.1.notify_one();
        });
        let mut guard = pair.0.lock();
        while !*guard {
            guard = guard.wait(&pair.1);
        }
        t.join().unwrap();
        guard = guard.wait_timeout(&pair.1, std::time::Duration::from_millis(1));
        assert!(*guard, "the timed wait hands back the same guard");
    }
}
