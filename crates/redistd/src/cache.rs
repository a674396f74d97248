//! A sharded, bounded plan cache with second-chance-clock eviction.
//!
//! Keys are 128-bit request keys ([`crate::wire::PlanRequest::cache_key`]),
//! values are immutable `Arc`s shared with whoever is answering the
//! request. Because the planners are deterministic functions of the words
//! a key hashes, a hit is guaranteed byte-identical to a cold plan (the
//! loopback test verifies exactly that), so the cache only has to be a
//! bounded map.
//!
//! # Layout: one mutex per shard
//!
//! Keys are spread over a power-of-two number of shards by their low bits.
//! Each shard is a `Mutex` around a `HashMap` from key to `(value,
//! referenced bit)` plus the clock ring. A lookup locks one shard, probes
//! the map, sets the bit and clones the `Arc`. Critical sections are a
//! hash probe long, so the lock costs nanoseconds next to a request's
//! microseconds (DESIGN.md §15.3 has the numbers). The statistics
//! counters are relaxed atomics.
//!
//! # Eviction: second-chance clock, O(1) amortized
//!
//! The shard keeps its keys in a clock ring (`VecDeque`). A hit sets the
//! entry's reference bit; the evictor pops the ring's front, re-queues
//! entries whose bit is set (clearing it — the "second chance"), and
//! evicts the first entry found with a clear bit. Each re-queue is paid
//! for by the hit that set the bit, so eviction is O(1) amortized. Entries
//! are inserted with a clear bit, so the victim order is insertion order
//! skipping (and demoting) anything touched since the hand last passed;
//! `eviction_order_is_second_chance_clock` pins it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One shard: resident entries and the clock ring over their keys.
struct Shard<V> {
    /// Key → (value, second-chance reference bit).
    map: HashMap<u128, (Arc<V>, bool)>,
    /// Clock ring: every resident key exactly once, hand at the front.
    ring: VecDeque<u128>,
}

/// A sharded, bounded map from request key to plan with
/// second-chance-clock eviction.
pub struct ShardedLru<V> {
    shards: Box<[Mutex<Shard<V>>]>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

/// Cache statistics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, 0.0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl<V> ShardedLru<V> {
    /// Creates a cache of roughly `capacity` total entries spread over
    /// `shards` (rounded up to a power of two) shards. A `capacity` of 0
    /// disables caching: every lookup misses, inserts are dropped.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shard_count = shards.max(1).next_power_of_two();
        ShardedLru {
            shards: (0..shard_count)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        ring: VecDeque::new(),
                    })
                })
                .collect(),
            per_shard_capacity: capacity.div_ceil(shard_count),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Locks `shard`, recovering a poisoned lock: no update can panic
    /// between the map and ring edits it pairs, so the shard stays valid,
    /// and one panicking thread must not turn every later lookup into one.
    fn lock(shard: &Mutex<Shard<V>>) -> MutexGuard<'_, Shard<V>> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn shard_of(&self, key: u128) -> MutexGuard<'_, Shard<V>> {
        Self::lock(&self.shards[(key as usize) & (self.shards.len() - 1)])
    }

    /// Looks up `key`, counting a hit or a miss. A hit marks the entry's
    /// second-chance bit (the clock's stand-in for LRU recency refresh).
    pub fn get(&self, key: u128) -> Option<Arc<V>> {
        let found = self.get_if_present(key);
        if found.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// [`ShardedLru::get`] that counts a hit but leaves an absent key
    /// uncounted — for a first probe whose miss is re-probed with `get`
    /// later (admission, then the worker), so `hits + misses` stays one per
    /// request.
    pub fn get_if_present(&self, key: u128) -> Option<Arc<V>> {
        if self.per_shard_capacity == 0 {
            return None;
        }
        let mut shard = self.shard_of(key);
        let (value, referenced) = shard.map.get_mut(&key)?;
        *referenced = true;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value.clone())
    }

    /// Inserts (or refreshes) `key`, evicting via the second-chance clock
    /// if the shard is full. A refresh replaces the value and sets the
    /// reference bit; the key keeps its place in the ring.
    pub fn insert(&self, key: u128, value: Arc<V>) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let mut shard = self.shard_of(key);
        if let Some(entry) = shard.map.get_mut(&key) {
            *entry = (value, true);
        } else {
            if shard.map.len() >= self.per_shard_capacity {
                self.clock_evict(&mut shard);
            }
            shard.map.insert(key, (value, false));
            shard.ring.push_back(key);
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Second-chance clock eviction: demote referenced entries, evict the
    /// first unreferenced one.
    fn clock_evict(&self, shard: &mut Shard<V>) {
        loop {
            let key = shard
                .ring
                .pop_front()
                .expect("ring tracks every resident key");
            let (_, referenced) = shard.map.get_mut(&key).expect("ring key is resident");
            if std::mem::take(referenced) {
                shard.ring.push_back(key);
            } else {
                shard.map.remove(&key);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).map.len()).sum()
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let c: ShardedLru<u32> = ShardedLru::new(8, 2);
        assert!(c.get(1).is_none());
        c.insert(1, Arc::new(10));
        assert_eq!(*c.get(1).unwrap(), 10);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // One shard so the eviction order is fully observable.
        let c: ShardedLru<u32> = ShardedLru::new(2, 1);
        c.insert(1, Arc::new(1));
        c.insert(2, Arc::new(2));
        c.get(1); // 1 is now more recent than 2
        c.insert(3, Arc::new(3)); // evicts 2
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    /// Pins the second-chance clock semantics exactly: victims fall in
    /// insertion order, entries referenced since the hand last passed get
    /// demoted (bit cleared, moved behind the hand) instead of evicted,
    /// and a never-referenced entry is evicted even if it is young.
    #[test]
    fn eviction_order_is_second_chance_clock() {
        let c: ShardedLru<char> = ShardedLru::new(3, 1);
        c.insert(1, Arc::new('a'));
        c.insert(2, Arc::new('b'));
        c.insert(3, Arc::new('c'));
        // Touch 2 and 3; 1 is the oldest unreferenced entry.
        assert!(c.get(2).is_some());
        assert!(c.get(3).is_some());
        c.insert(4, Arc::new('d')); // hand: 1 unref -> evict 1
        assert!(c.get(1).is_none(), "1 was the clock victim");
        assert_eq!(c.stats().evictions, 1);

        // Ring is now [2, 3, 4]: 2 and 3 still carry the bits the gets
        // before the eviction set (the miss on 1 touched nothing), and 4
        // was inserted unreferenced and nothing touched it. The hand
        // demotes 2 and 3 (clearing their bits) and evicts 4 — young but
        // never referenced, exactly what the clock prescribes.
        c.insert(5, Arc::new('e'));
        assert!(c.get(4).is_none(), "unreferenced 4 evicted before 2/3");
        assert!(c.get(2).is_some());
        assert!(c.get(3).is_some());

        // After that pass 2 and 3 sit unreferenced behind 5... but the
        // gets above just re-referenced them, so the next eviction demotes
        // both again and takes 5 (inserted unreferenced).
        c.insert(6, Arc::new('f'));
        assert!(c.get(5).is_none(), "5 was next on the clock");
        assert_eq!(c.stats().evictions, 3);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn reinserting_resident_key_does_not_evict() {
        let c: ShardedLru<u32> = ShardedLru::new(2, 1);
        c.insert(1, Arc::new(1));
        c.insert(2, Arc::new(2));
        c.insert(1, Arc::new(11));
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(*c.get(1).unwrap(), 11);
        assert!(c.get(2).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let c: ShardedLru<u32> = ShardedLru::new(0, 4);
        c.insert(1, Arc::new(1));
        assert!(c.get(1).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let c: ShardedLru<u32> = ShardedLru::new(100, 3);
        assert_eq!(c.shards.len(), 4);
        // Keys land in different shards but all are retrievable.
        for k in 0..64u128 {
            c.insert(k, Arc::new(k as u32));
        }
        for k in 0..64u128 {
            assert_eq!(*c.get(k).unwrap(), k as u32);
        }
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c: Arc<ShardedLru<u64>> = Arc::new(ShardedLru::new(64, 8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for i in 0..500u128 {
                        let k = (t * 13 + i * 7) % 96;
                        if let Some(v) = c.get(k) {
                            assert_eq!(*v, k as u64);
                        } else {
                            c.insert(k, Arc::new(k as u64));
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 2000);
    }

    /// Readers hammer a small keyspace while writers churn the same keys
    /// through insert and eviction. Every hit must return the value the
    /// key was inserted with.
    #[test]
    fn stress_readers_vs_writers() {
        let (readers, writers, iters_per_thread) = (4, 4, 20_000u64);
        // Capacity far below the keyspace forces continuous eviction.
        let c: Arc<ShardedLru<u128>> = Arc::new(ShardedLru::new(32, 4));
        let keyspace = 256u128;
        let mut handles = Vec::new();
        for t in 0..writers + readers {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                let mut x = 0x9e37u64.wrapping_add(t as u64);
                for _ in 0..iters_per_thread {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = (x as u128) % keyspace;
                    if t < writers {
                        c.insert(k, Arc::new(k * 3 + 1));
                    } else if let Some(v) = c.get(k) {
                        assert_eq!(*v, k * 3 + 1, "hit returned another key's value");
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.stats();
        assert_eq!(s.insertions, writers as u64 * iters_per_thread);
        assert!(c.len() <= 32);
    }

    /// Refresh keeps len stable and old values unreachable under sustained
    /// same-key churn, and never evicts.
    #[test]
    fn refresh_churn_keeps_len_and_values() {
        let c: ShardedLru<u64> = ShardedLru::new(4, 1);
        for round in 0..64u64 {
            for k in 0..4u128 {
                c.insert(k, Arc::new(round * 10 + k as u64));
            }
            for k in 0..4u128 {
                assert_eq!(*c.get(k).unwrap(), round * 10 + k as u64);
            }
            assert_eq!(c.len(), 4);
        }
        assert_eq!(c.stats().evictions, 0, "refreshes never evict");
    }

    /// Admission probes with `get_if_present` and the worker re-probes a
    /// miss with `get`: an absent key moves neither counter on the first
    /// probe, so the pair books exactly one lookup.
    #[test]
    fn get_if_present_counts_hits_not_absences() {
        let c: ShardedLru<u32> = ShardedLru::new(8, 2);
        assert!(c.get_if_present(7).is_none());
        assert_eq!((c.stats().hits, c.stats().misses), (0, 0));

        c.insert(7, Arc::new(70));
        assert_eq!(*c.get_if_present(7).unwrap(), 70);
        assert_eq!((c.stats().hits, c.stats().misses), (1, 0));

        let before = c.stats();
        assert!(c.get_if_present(8).is_none());
        assert!(c.get(8).is_none());
        let after = c.stats();
        assert_eq!(
            (after.hits + after.misses) - (before.hits + before.misses),
            1,
            "an admission miss plus its worker re-probe is one lookup"
        );
    }
}
