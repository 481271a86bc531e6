//! A small LRU cache for query results and shared Monte-Carlo sample
//! batches, with single-flight misses ([`FlightCache`]), and the typed
//! key of the result cache ([`ResultKey`]).
//!
//! Recency is tracked with a monotonic tick per entry plus a
//! `BTreeMap<tick, key>` reverse index, giving O(log n) touch/insert/evict
//! without unsafe intrusive lists — the capacities involved (hundreds of
//! hot query results) make the constant factors irrelevant next to the
//! Monte-Carlo work a hit avoids.

use crate::proto::Op;
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::mpsc::{channel, Receiver, Sender};

#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    tick: u64,
    map: HashMap<K, (V, u64)>,
    order: BTreeMap<u64, K>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruCache: capacity must be positive");
        Self {
            capacity,
            tick: 0,
            map: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, marking it most recently used on a hit.
    ///
    /// The engine wraps result-cache lookups in a `cache_probe` trace
    /// span (hit/miss plus the key's generation segment recorded as the
    /// span detail); this method stays trace-unaware so the cache can be
    /// exercised and benchmarked in isolation.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get_mut(key).map(|v| &*v)
    }

    /// Looks up `key` for mutation, marking it most recently used on a
    /// hit — the per-client accounting table's charge path.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let tick = self.next_tick();
        let (value, stamp) = self.map.get_mut(key)?;
        // Re-stamping moves the owned key from its old tick to the new
        // one, so a touch never clones it.
        let key = self.order.remove(stamp).expect("order indexes every key");
        *stamp = tick;
        self.order.insert(tick, key);
        Some(value)
    }

    /// Whether `key` is present, *without* touching recency — the batch
    /// dispatcher's warmth probe: classifying a sub-request as
    /// inline-eligible must not promote the entry it merely peeked at.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts (or replaces) `key`, evicting the least recently used entry
    /// when over capacity.
    pub fn insert(&mut self, key: K, value: V) {
        let tick = self.next_tick();
        if let Some((_, old_stamp)) = self.map.insert(key.clone(), (value, tick)) {
            self.order.remove(&old_stamp);
        }
        self.order.insert(tick, key);
        while self.map.len() > self.capacity {
            let (&oldest, _) = self
                .order
                .iter()
                .next()
                .expect("map non-empty implies order");
            let victim = self.order.remove(&oldest).expect("just observed");
            self.map.remove(&victim);
        }
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Entries from least to most recently used, without touching
    /// recency — the snapshot export order: replaying `insert` over it
    /// reproduces the cache with its eviction order intact.
    pub fn iter_lru(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.order.values().map(|k| {
            let (v, _) = &self.map[k];
            (k, v)
        })
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// An [`LruCache`] with single-flight misses: the first
/// request to miss a key computes it, and every request that misses the
/// same key while that compute runs waits for its value instead of
/// computing it again. The in-flight table lives beside the LRU, under
/// the same lock, so a probe either hits, joins a flight, or starts one —
/// no window lets two requests both start.
#[derive(Debug)]
pub struct FlightCache<K, V> {
    lru: LruCache<K, V>,
    /// Keys being computed, each with the channels of its waiters.
    flights: HashMap<K, Vec<Sender<V>>>,
}

/// What a [`FlightCache::probe`] found.
#[derive(Debug)]
pub enum Probe<V> {
    Hit(V),
    /// Another request is computing the key; its value arrives here. A
    /// disconnect means that compute failed, and the waiter probes again.
    Wait(Receiver<V>),
    /// The caller computes the key and must [`land`](FlightCache::land)
    /// the flight, on success and on failure alike.
    Lead,
}

impl<K: Eq + Hash + Clone, V: Clone> FlightCache<K, V> {
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self {
            lru: LruCache::new(capacity),
            flights: HashMap::new(),
        }
    }

    /// Looks `key` up, joining or starting its flight on a miss.
    pub fn probe(&mut self, key: &K) -> Probe<V> {
        if let Some(hit) = self.lru.get(key) {
            return Probe::Hit(hit.clone());
        }
        match self.flights.get_mut(key) {
            Some(waiters) => {
                let (tx, rx) = channel();
                waiters.push(tx);
                Probe::Wait(rx)
            }
            None => {
                self.flights.insert(key.clone(), Vec::new());
                Probe::Lead
            }
        }
    }

    /// Ends `key`'s flight: caches `value` when the compute produced one,
    /// and returns the waiters to hand it to. Landing `None` drops the
    /// waiters' channels, which wakes them to probe again.
    pub fn land(&mut self, key: K, value: Option<&V>) -> Vec<Sender<V>> {
        let waiters = self.flights.remove(&key).unwrap_or_default();
        if let Some(value) = value {
            self.lru.insert(key, value.clone());
        }
        waiters
    }

    /// Requests currently waiting on `key`'s flight.
    #[cfg(test)]
    pub fn waiters(&self, key: &K) -> usize {
        self.flights.get(key).map_or(0, Vec::len)
    }
}

impl<K, V> std::ops::Deref for FlightCache<K, V> {
    type Target = LruCache<K, V>;
    fn deref(&self) -> &Self::Target {
        &self.lru
    }
}

impl<K, V> std::ops::DerefMut for FlightCache<K, V> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.lru
    }
}

/// A result-cache key: the op, the dataset's name and generation, the
/// region of interest and the op's parameters. A request builds it once
/// and it hashes as a value; [`Display`](std::fmt::Display) renders the
/// string the store persists,
/// `op|name|g<generation>|<roi>|w<weights>|s<samples>|r<seed>|t<tau>`,
/// and [`FromStr`](std::str::FromStr) parses that string back.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ResultKey {
    pub op: Op,
    pub dataset: String,
    pub generation: u64,
    /// `None` for the full orthant, else the cone's rendered segment. Its
    /// angle is rendered to 16 significant digits, so two angles that
    /// agree that far share a key.
    pub roi: Option<String>,
    /// The weights' bit patterns: keys compare as the weights' renderings
    /// (Rust's shortest round-trip form) do.
    pub weights: Option<Vec<u64>>,
    pub samples: usize,
    pub seed: u64,
    pub tau: usize,
}

impl std::fmt::Display for ResultKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let weights: Option<Vec<f64>> = self
            .weights
            .as_ref()
            .map(|w| w.iter().map(|&bits| f64::from_bits(bits)).collect());
        write!(
            f,
            "{}|{}|g{}|{}|w{:?}|s{}|r{}|t{}",
            self.op.name(),
            self.dataset,
            self.generation,
            self.roi.as_deref().unwrap_or("full"),
            weights,
            self.samples,
            self.seed,
            self.tau
        )
    }
}

impl std::str::FromStr for ResultKey {
    type Err = String;

    /// Parses a rendered key. The segments after the dataset name hold
    /// no `|`, so they are split off from the right and the name keeps
    /// whatever is left.
    fn from_str(s: &str) -> Result<Self, String> {
        fn num<T: std::str::FromStr>(segment: Option<&str>, tag: char) -> Option<T> {
            segment?.strip_prefix(tag)?.parse().ok()
        }
        let parse = || -> Option<ResultKey> {
            let mut right = s.rsplitn(7, '|');
            let tau = num(right.next(), 't')?;
            let seed = num(right.next(), 'r')?;
            let samples = num(right.next(), 's')?;
            let weights = match right.next()?.strip_prefix('w')? {
                "None" => None,
                list => {
                    let list = list.strip_prefix("Some([")?.strip_suffix("])")?;
                    let weights: Result<Vec<u64>, _> = match list {
                        "" => Ok(Vec::new()),
                        list => list
                            .split(", ")
                            .map(|w| w.parse().map(f64::to_bits))
                            .collect(),
                    };
                    Some(weights.ok()?)
                }
            };
            let roi = match right.next()? {
                "full" => None,
                cone if cone.starts_with("cone(") => Some(cone.to_string()),
                _ => return None,
            };
            let generation = num(right.next(), 'g')?;
            let (op, dataset) = right.next()?.split_once('|')?;
            Some(ResultKey {
                op: Op::parse(op).filter(|op| op.cacheable())?,
                dataset: dataset.to_string(),
                generation,
                roi,
                weights,
                samples,
                seed,
                tau,
            })
        };
        parse().ok_or_else(|| format!("malformed result key '{s}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_after_insert() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), None);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // refresh a: b is now LRU
        c.insert("c", 3);
        assert_eq!(c.get(&"b"), None, "b was least recently used");
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn replacing_a_key_keeps_len_consistent() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("a", 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&"a"), Some(&2));
    }

    #[test]
    fn clear_empties() {
        let mut c = LruCache::new(4);
        c.insert(1, "x");
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn one_flight_per_key_until_it_lands() {
        let mut c: FlightCache<&str, u32> = FlightCache::new(4);
        assert!(matches!(c.probe(&"k"), Probe::Lead));
        let Probe::Wait(rx) = c.probe(&"k") else {
            panic!("a second miss joins the flight");
        };
        assert!(matches!(c.probe(&"other"), Probe::Lead), "keys fly apart");
        assert_eq!(c.waiters(&"k"), 1);
        for tx in c.land("k", Some(&7)) {
            tx.send(7).unwrap();
        }
        assert_eq!(rx.recv(), Ok(7));
        assert!(matches!(c.probe(&"k"), Probe::Hit(7)));
        assert_eq!(c.waiters(&"k"), 0);
    }

    #[test]
    fn a_failed_flight_wakes_its_waiters_to_retry() {
        let mut c: FlightCache<&str, u32> = FlightCache::new(4);
        assert!(matches!(c.probe(&"k"), Probe::Lead));
        let Probe::Wait(rx) = c.probe(&"k") else {
            panic!("a second miss joins the flight");
        };
        drop(c.land("k", None));
        assert!(rx.recv().is_err(), "the waiter is woken by the disconnect");
        assert!(
            matches!(c.probe(&"k"), Probe::Lead),
            "and may lead the retry"
        );
    }
}
