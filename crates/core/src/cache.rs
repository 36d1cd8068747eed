//! A shared, generation-aware, LRU-bounded `get_or_compute` cache — the
//! primitive under [`crate::ThermalModelCache`] and the result store of
//! the `coolserved` optimization service. The bound is an entry count
//! ([`KeyedCache::with_capacity`]) or the bytes its entries weigh
//! ([`KeyedCache::with_byte_bound`]).
//!
//! [`KeyedCache::get_or_compute`] is single-flight: while one caller
//! computes a key, later callers of that key wait for its value instead
//! of computing it again; [`KeyedCache::get_or_compute_while`] lets a
//! waiter give up (at its deadline) while the computation goes on.
//!
//! Entries are tagged with the cache's *generation* at compute time;
//! [`KeyedCache::bump_generation`] invalidates everything computed
//! before it without walking the map (stale entries fall out lazily on
//! the next touch). Hit / miss / eviction counters are exposed via
//! [`KeyedCache::stats`] so the bench pipeline can gate cache
//! effectiveness instead of guessing at it.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How often a caller waiting on another caller's computation asks its
/// `keep_waiting` check again ([`KeyedCache::get_or_compute_while`]).
const WAIT_POLL: Duration = Duration::from_millis(2);

/// Counter snapshot of a [`KeyedCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing (or only a stale generation), and
    /// waits given up.
    pub misses: u64,
    /// Lookups that found their key being computed by another caller
    /// and waited for it.
    pub waits: u64,
    /// Entries evicted by the LRU bound or dropped as stale.
    pub evictions: u64,
    /// Values inserted.
    pub insertions: u64,
    /// Current invalidation generation.
    pub generation: u64,
    /// Live entries.
    pub len: usize,
    /// LRU capacity (`usize::MAX` for a byte-bounded cache).
    pub capacity: usize,
    /// Bytes the entries weigh now (0 for a count-bounded cache).
    pub bytes: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Entry<V> {
    value: Arc<V>,
    generation: u64,
    last_used: u64,
}

/// The byte bound of a [`KeyedCache::with_byte_bound`] cache.
#[derive(Debug)]
struct ByteBound<V> {
    bytes: usize,
    /// Entries never evicted for bytes: the most recently used ones.
    keep: usize,
    weigh: fn(&V) -> usize,
}

// Derived impls would demand `V: Copy`; the fields are `Copy` for any `V`.
impl<V> Clone for ByteBound<V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V> Copy for ByteBound<V> {}

#[derive(Debug)]
struct Inner<K, V> {
    entries: HashMap<K, Entry<V>>,
    /// Keys a [`KeyedCache::get_or_compute`] caller is computing now.
    in_flight: HashSet<K>,
    capacity: usize,
    byte_bound: Option<ByteBound<V>>,
    /// Monotonic LRU clock, bumped on every touch.
    tick: u64,
    generation: u64,
    hits: u64,
    misses: u64,
    waits: u64,
    evictions: u64,
    insertions: u64,
}

/// A thread-safe keyed cache with compute-once semantics, an LRU bound,
/// and a generation counter for wholesale invalidation.
///
/// Values are handed out as `Arc<V>`, so a hit never clones the payload
/// and an eviction never invalidates a value a caller still holds.
/// Clones of the cache share one store — the service worker pool
/// relies on that to share flows and factorized models across threads.
///
/// Eviction scans for the least-recently-used entry (O(len)); the
/// workloads this backs hold tens of entries, where a scan beats the
/// bookkeeping of a linked LRU list.
#[derive(Debug)]
pub struct KeyedCache<K, V> {
    shared: Arc<Shared<K, V>>,
}

/// The store behind every clone of one [`KeyedCache`].
#[derive(Debug)]
struct Shared<K, V> {
    inner: Mutex<Inner<K, V>>,
    /// Signalled whenever a key leaves [`Inner::in_flight`].
    landed: Condvar,
}

impl<K, V> Clone for KeyedCache<K, V> {
    fn clone(&self) -> Self {
        KeyedCache {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Held by the caller computing a key: dropping it, on success, error
/// or unwind alike, takes the key out of flight and wakes its waiters.
struct Flight<'a, K: Eq + Hash + Clone, V> {
    cache: &'a KeyedCache<K, V>,
    key: K,
}

impl<K: Eq + Hash + Clone, V> Drop for Flight<'_, K, V> {
    fn drop(&mut self) {
        self.cache.lock().in_flight.remove(&self.key);
        self.cache.shared.landed.notify_all();
    }
}

impl<K: Eq + Hash + Clone, V> KeyedCache<K, V> {
    /// An empty cache holding at most `capacity` entries (clamped to 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::bounded(capacity.max(1), None)
    }

    /// An empty cache whose entries, each weighed by `weigh`, are
    /// evicted least recently used first while they weigh more than
    /// `bytes` in all, but never below the `keep` most recently used
    /// (clamped to 1). So an entry heavier than the bound is still kept
    /// until a newer one displaces it. Weights are taken afresh on each
    /// insertion, so a value that grows after it was inserted is counted
    /// at its current size.
    pub fn with_byte_bound(bytes: usize, keep: usize, weigh: fn(&V) -> usize) -> Self {
        let bound = ByteBound {
            bytes,
            keep: keep.max(1),
            weigh,
        };
        Self::bounded(usize::MAX, Some(bound))
    }

    fn bounded(capacity: usize, byte_bound: Option<ByteBound<V>>) -> Self {
        KeyedCache {
            shared: Arc::new(Shared {
                inner: Mutex::new(Inner {
                    entries: HashMap::new(),
                    in_flight: HashSet::new(),
                    capacity,
                    byte_bound,
                    tick: 0,
                    generation: 0,
                    hits: 0,
                    misses: 0,
                    waits: 0,
                    evictions: 0,
                    insertions: 0,
                }),
                landed: Condvar::new(),
            }),
        }
    }

    /// Locks the store, recovering from poisoning: entries are only ever
    /// inserted whole (`Arc`s of finished values), so a panic on another
    /// thread cannot leave the map half-written.
    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.shared
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks `key` up, counting a hit or miss. An entry from an older
    /// generation is dropped and counted as a miss.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let mut inner = self.lock();
        let value = inner.lookup(key);
        inner.misses += u64::from(value.is_none());
        value
    }

    /// Inserts `value` under `key` at the current generation, evicting
    /// least-recently-used entries while the cache is over its bound.
    pub fn insert(&self, key: K, value: Arc<V>) {
        let mut inner = self.lock();
        let generation = inner.generation;
        inner.store(key, value, generation);
    }

    /// Returns the cached value for `key`, computing and inserting it on
    /// a miss. The computation runs *outside* the lock so distinct keys
    /// compute concurrently. A caller that finds a key another caller
    /// is computing waits for that value instead of computing it again,
    /// and counts a hit; if that computation fails or panics, it caches
    /// nothing and the waiter computes the key itself. So `compute` must
    /// not ask this cache for `key`: it would wait for itself.
    ///
    /// A value computed across a [`KeyedCache::bump_generation`] call is
    /// still returned to its caller but tagged with the generation it
    /// was started under, so later lookups discard it as stale.
    ///
    /// # Errors
    ///
    /// Propagates the compute closure's error; nothing is cached then.
    pub fn get_or_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        self.get_or_compute_while(key, || Ok(()), compute)
    }

    /// [`KeyedCache::get_or_compute`] for a caller that may stop
    /// waiting: while another caller computes `key`, `keep_waiting` is
    /// asked before the first wait and again every few milliseconds, and
    /// its error ends the wait. The other caller's computation goes on
    /// and still lands in the cache. `keep_waiting` runs under the
    /// cache's lock, so it must not touch this cache.
    ///
    /// # Errors
    ///
    /// Propagates `keep_waiting`'s error (counted as a miss) or the
    /// compute closure's; nothing is cached by this caller then.
    pub fn get_or_compute_while<E>(
        &self,
        key: K,
        mut keep_waiting: impl FnMut() -> Result<(), E>,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let mut inner = self.lock();
        let mut waited = false;
        loop {
            if let Some(value) = inner.lookup(&key) {
                return Ok(value);
            }
            if !inner.in_flight.contains(&key) {
                break;
            }
            if let Err(e) = keep_waiting() {
                inner.misses += 1;
                return Err(e);
            }
            inner.waits += u64::from(!waited);
            waited = true;
            inner = self
                .shared
                .landed
                .wait_timeout(inner, WAIT_POLL)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        inner.misses += 1;
        inner.in_flight.insert(key.clone());
        let started_generation = inner.generation;
        drop(inner);
        let flight = Flight { cache: self, key };
        let value = Arc::new(compute()?);
        self.lock()
            .store(flight.key.clone(), Arc::clone(&value), started_generation);
        Ok(value)
    }

    /// Invalidates every cached entry by advancing the generation
    /// counter. O(1): stale entries are dropped lazily as they are
    /// touched (or evicted by the LRU bound).
    pub fn bump_generation(&self) {
        self.lock().generation += 1;
    }

    /// Drops every entry immediately (counters and generation survive).
    pub fn clear(&self) {
        let mut inner = self.lock();
        let dropped = inner.entries.len() as u64;
        inner.entries.clear();
        inner.evictions += dropped;
    }

    /// Entries currently held (stale ones included until touched).
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            waits: inner.waits,
            evictions: inner.evictions,
            insertions: inner.insertions,
            generation: inner.generation,
            len: inner.entries.len(),
            capacity: inner.capacity,
            bytes: inner.held_bytes(),
        }
    }
}

impl<K: Eq + Hash + Clone, V> Inner<K, V> {
    /// The live entry for `key`, if any, touching it and counting a hit
    /// (the caller counts a miss). An entry from an older generation is
    /// dropped and counted as an eviction.
    fn lookup(&mut self, key: &K) -> Option<Arc<V>> {
        self.tick += 1;
        let (tick, generation) = (self.tick, self.generation);
        let (value, stale) = match self.entries.get_mut(key) {
            Some(entry) if entry.generation == generation => {
                entry.last_used = tick;
                (Some(Arc::clone(&entry.value)), false)
            }
            Some(_) => (None, true),
            None => (None, false),
        };
        if stale {
            self.entries.remove(key);
            self.evictions += 1;
        }
        self.hits += u64::from(value.is_some());
        value
    }

    /// Inserts `value` under `key` tagged with `generation`, evicting
    /// least-recently-used entries while the cache is over its bound.
    /// The new entry is the most recently used, so it is never evicted.
    fn store(&mut self, key: K, value: Arc<V>, generation: u64) {
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            self.evict_lru();
        }
        self.insertions += 1;
        let last_used = self.tick;
        self.entries.insert(
            key,
            Entry {
                value,
                generation,
                last_used,
            },
        );
        if let Some(bound) = self.byte_bound {
            let mut held = self.held_bytes();
            while held > bound.bytes && self.entries.len() > bound.keep {
                match self.evict_lru() {
                    Some(entry) => held -= (bound.weigh)(&entry.value),
                    None => break,
                }
            }
        }
    }

    /// Removes the least-recently-used entry, counting an eviction.
    fn evict_lru(&mut self) -> Option<Entry<V>> {
        let lru = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())?;
        self.evictions += 1;
        self.entries.remove(&lru)
    }

    /// Bytes the entries weigh now (0 without a byte bound).
    fn held_bytes(&self) -> usize {
        self.byte_bound.map_or(0, |bound| {
            self.entries.values().map(|e| (bound.weigh)(&e.value)).sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_compute_computes_once_and_counts() {
        let cache: KeyedCache<u32, u32> = KeyedCache::with_capacity(4);
        let mut computes = 0;
        for _ in 0..3 {
            let v = cache
                .get_or_compute(7, || {
                    computes += 1;
                    Ok::<_, ()>(42)
                })
                .unwrap();
            assert_eq!(*v, 42);
        }
        assert_eq!(computes, 1);
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert!(stats.hit_rate() > 0.6);
    }

    #[test]
    fn compute_errors_cache_nothing() {
        let cache: KeyedCache<u32, u32> = KeyedCache::with_capacity(4);
        assert!(cache
            .get_or_compute(1, || Err::<u32, &str>("boom"))
            .is_err());
        assert!(cache.is_empty());
        let v = cache.get_or_compute(1, || Ok::<_, &str>(5)).unwrap();
        assert_eq!(*v, 5);
    }

    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::thread;
    use std::time::{Duration, Instant};

    /// Spins until `flag` is set (bounded, so a broken cache fails
    /// instead of hanging).
    fn await_flag(flag: &AtomicBool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !flag.load(Ordering::SeqCst) && Instant::now() < deadline {
            thread::yield_now();
        }
    }

    #[test]
    fn racing_callers_of_one_key_compute_it_once() {
        let cache: KeyedCache<u32, u32> = KeyedCache::with_capacity(4);
        let computes = AtomicUsize::new(0);
        let values: Vec<Arc<u32>> = thread::scope(|scope| {
            let callers: Vec<_> = (0..6)
                .map(|_| {
                    scope.spawn(|| {
                        cache
                            .get_or_compute(1, || {
                                computes.fetch_add(1, Ordering::SeqCst);
                                thread::sleep(Duration::from_millis(50));
                                Ok::<_, ()>(42)
                            })
                            .unwrap()
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0])));
        let stats = cache.stats();
        assert_eq!((stats.insertions, stats.misses + stats.hits), (1, 6));
    }

    #[test]
    fn distinct_keys_compute_concurrently() {
        let cache: KeyedCache<u32, u32> = KeyedCache::with_capacity(4);
        let inside = AtomicUsize::new(0);
        let overlapped = AtomicBool::new(false);
        thread::scope(|scope| {
            for key in [1, 2] {
                let (cache, inside, overlapped) = (&cache, &inside, &overlapped);
                scope.spawn(move || {
                    cache.get_or_compute(key, || {
                        inside.fetch_add(1, Ordering::SeqCst);
                        let deadline = Instant::now() + Duration::from_secs(10);
                        while Instant::now() < deadline {
                            if inside.load(Ordering::SeqCst) == 2 {
                                overlapped.store(true, Ordering::SeqCst);
                                break;
                            }
                            thread::yield_now();
                        }
                        Ok::<_, ()>(key)
                    })
                });
            }
        });
        assert!(
            overlapped.load(Ordering::SeqCst),
            "two keys ran one at a time"
        );
        assert_eq!(cache.len(), 2);
    }

    /// A leader computing key 1 fails in `fail`; a caller that arrived
    /// while it ran must get its own value back and cache it.
    fn waiter_outlives_a_failed_leader(fail: fn() -> Result<u32, &'static str>) {
        let cache: KeyedCache<u32, u32> = KeyedCache::with_capacity(4);
        let leading = AtomicBool::new(false);
        let (sent, received) = mpsc::channel();
        thread::scope(|scope| {
            let leader = scope.spawn(|| {
                cache.get_or_compute(1, || {
                    leading.store(true, Ordering::SeqCst);
                    thread::sleep(Duration::from_millis(100));
                    fail()
                })
            });
            scope.spawn(|| {
                await_flag(&leading);
                let got = cache.get_or_compute(1, || Ok::<_, &str>(7));
                let _ = sent.send(got.map(|v| *v));
            });
            let waited = received.recv_timeout(Duration::from_secs(20));
            assert_eq!(waited, Ok(Ok(7)), "the waiter was not released");
            if let Ok(result) = leader.join() {
                assert!(result.is_err(), "the leader's error is its own");
            }
        });
        assert_eq!(cache.get(&1).as_deref(), Some(&7));
        assert_eq!(cache.stats().insertions, 1, "the failure cached nothing");
    }

    #[test]
    fn an_erring_leader_releases_its_waiter_and_caches_nothing() {
        waiter_outlives_a_failed_leader(|| Err("boom"));
    }

    #[test]
    fn a_panicking_leader_releases_its_waiter() {
        waiter_outlives_a_failed_leader(|| panic!("leader panicked"));
    }

    #[test]
    fn a_waiter_that_stops_waiting_leaves_the_leader_to_land() {
        let cache: KeyedCache<u32, u32> = KeyedCache::with_capacity(4);
        let (computing, started) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let shared = &cache;
            let leader = s.spawn(move || {
                shared.get_or_compute(1, || {
                    computing.send(()).expect("test thread listens");
                    released.recv().expect("test thread releases");
                    Ok::<_, &str>(7)
                })
            });
            // The leader holds key 1 in flight until released.
            started.recv().expect("leader starts");
            let mut asks = 0;
            let gave_up = cache.get_or_compute_while(
                1,
                || {
                    asks += 1;
                    if asks < 3 {
                        Ok(())
                    } else {
                        Err("deadline")
                    }
                },
                || Ok(0),
            );
            assert_eq!(gave_up, Err("deadline"));
            assert_eq!(asks, 3, "asked before the first wait and after each");
            release.send(()).expect("leader waits");
            assert_eq!(leader.join().expect("no panic").as_deref(), Ok(&7));
        });
        assert_eq!(
            cache.get(&1).as_deref(),
            Some(&7),
            "the leader's value landed"
        );
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.waits, stats.hits), (2, 1, 1));
        assert_eq!(stats.insertions, 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache: KeyedCache<u32, u32> = KeyedCache::with_capacity(2);
        cache.insert(1, Arc::new(10));
        cache.insert(2, Arc::new(20));
        assert!(cache.get(&1).is_some()); // 2 is now the coldest
        cache.insert(3, Arc::new(30));
        assert!(cache.get(&2).is_none(), "LRU entry must be gone");
        assert!(cache.get(&1).is_some());
        assert!(cache.get(&3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn a_byte_bound_evicts_the_coldest_entries_until_the_rest_fit() {
        // Each value weighs its own number of bytes.
        let cache: KeyedCache<u32, usize> = KeyedCache::with_byte_bound(10, 1, |v| *v);
        for (key, bytes) in [(1, 3), (2, 3), (3, 3)] {
            cache.insert(key, Arc::new(bytes));
        }
        assert!(cache.get(&1).is_some()); // 2 is now the coldest
        cache.insert(4, Arc::new(4)); // 13 bytes: 2 goes, then 10 fit
        assert!(cache.get(&2).is_none(), "the coldest entry must be gone");
        let stats = cache.stats();
        assert_eq!((stats.len, stats.bytes, stats.evictions), (3, 10, 1));
        cache.insert(5, Arc::new(6)); // 16 bytes: 3, then 1 go
        assert!(cache.get(&3).is_none() && cache.get(&1).is_none());
        let stats = cache.stats();
        assert_eq!((stats.len, stats.bytes, stats.evictions), (2, 10, 3));
    }

    #[test]
    fn a_byte_bound_keeps_its_most_recent_entries_however_heavy() {
        let cache: KeyedCache<u32, usize> = KeyedCache::with_byte_bound(10, 2, |v| *v);
        cache.insert(1, Arc::new(50));
        assert_eq!(cache.get(&1).as_deref(), Some(&50), "kept though over");
        cache.insert(2, Arc::new(50));
        assert!(cache.get(&1).is_some()); // 2 is now the coldest
        cache.insert(3, Arc::new(1));
        assert!(cache.get(&2).is_none(), "the third most recent goes");
        assert!(cache.get(&1).is_some() && cache.get(&3).is_some());
        let stats = cache.stats();
        assert_eq!(
            (stats.len, stats.bytes, stats.capacity),
            (2, 51, usize::MAX)
        );
    }

    #[test]
    fn bump_generation_invalidates_lazily() {
        let cache: KeyedCache<u32, u32> = KeyedCache::with_capacity(4);
        cache.insert(1, Arc::new(10));
        cache.bump_generation();
        assert_eq!(cache.len(), 1, "invalidation is lazy");
        assert!(cache.get(&1).is_none(), "stale generation must miss");
        assert_eq!(cache.len(), 0, "the stale entry is dropped on touch");
        let stats = cache.stats();
        assert_eq!(stats.generation, 1);
        assert_eq!(stats.evictions, 1);
        // Recompute lands in the new generation and hits again.
        let v = cache.get_or_compute(1, || Ok::<_, ()>(11)).unwrap();
        assert_eq!(*v, 11);
        assert!(cache.get(&1).is_some());
    }

    #[test]
    fn clones_share_one_store() {
        let cache: KeyedCache<u32, u32> = KeyedCache::with_capacity(4);
        let clone = cache.clone();
        cache.insert(9, Arc::new(99));
        assert_eq!(clone.get(&9).as_deref(), Some(&99));
        assert_eq!(clone.stats().hits, 1);
    }
}
