//! A sharded plan cache with a **lock-free read path**.
//!
//! Keys are the 128-bit canonical fingerprints of [`mod@kpbs::fingerprint`]
//! (algorithm tag mixed in via [`kpbs::cache_key`]), values are immutable
//! `Arc`s shared with whoever is answering the request. Because the
//! planners are deterministic functions of the canonical instance, a hit
//! is guaranteed byte-identical to a cold plan (the loopback test verifies
//! exactly that) — which is also why the read path may be relaxed about
//! *which* version of an entry it observes: every version of a key's value
//! encodes the same bytes.
//!
//! # Read path: one atomic load + hash probe + `Arc` clone
//!
//! Each shard *publishes* an open-addressing hash table behind an
//! `AtomicPtr`. Readers pin a reclamation epoch (one CAS into a reader
//! slot), load the published table pointer, probe linearly over
//! `AtomicPtr` slots to the entry, set its second-chance reference bit,
//! clone the value `Arc`, and unpin. No mutex is taken and nothing is
//! written besides the pin slot, the reference bit and the hit counter —
//! a hit costs a handful of atomics regardless of how many connections
//! are hammering the same shard.
//!
//! # Write path: serialized per shard, epoch-based reclamation
//!
//! Writers (cache misses inserting a fresh plan) serialize on a per-shard
//! mutex. Inserts mutate the published table in place — storing a fresh
//! entry pointer into an empty/tombstone slot is invisible to concurrent
//! readers except as a normal hit/miss — and deletions (evictions,
//! same-key refreshes) replace the slot with a tombstone / new pointer and
//! **retire** the old allocation instead of freeing it. A retired
//! allocation is stamped with the global epoch at retire time and freed
//! only once every pinned reader has announced a *later* epoch, which
//! proves (see the safety argument below) the reader cannot be holding
//! the retired pointer. When tombstones accumulate past ¾ occupancy the
//! writer rebuilds a clean table, publishes it with one pointer swap, and
//! retires the old table the same way. This is the epoch-reclamation
//! idiom of crossbeam-epoch (and of lock-free graph stores built on it),
//! reduced to the minimum a std-only crate needs; DESIGN.md §15 carries
//! the full safety argument.
//!
//! # Eviction: second-chance clock, O(1) amortized
//!
//! The writer keeps the shard's keys in a clock ring (`VecDeque`). A hit
//! sets the entry's reference bit; the evictor pops the ring's front,
//! re-queues entries whose bit is set (clearing it — the "second
//! chance"), and evicts the first entry found with a clear bit. Each
//! re-queue is paid for by the hit that set the bit, so eviction is O(1)
//! amortized — replacing the old O(shard-size) min-stamp scan. Entries
//! are inserted with a clear bit, so the victim order is insertion order
//! skipping (and demoting) anything touched since the hand last passed;
//! `eviction_order_is_second_chance_clock` pins it.

use std::cell::Cell;
use std::collections::VecDeque;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Reader-slot value meaning "free" (no reader pinned through this slot).
const SLOT_FREE: u64 = u64::MAX;

/// Reader slots available per cache. Readers are worker/IO threads — a
/// handful — so exhaustion is effectively impossible; if it ever happens
/// the reader falls back to a correct (mutex-guarded) slow path.
const READER_SLOTS: usize = 128;

thread_local! {
    /// Hint: the slot index this thread last pinned successfully, so the
    /// acquire scan usually succeeds on its first CAS.
    static PREFERRED_SLOT: Cell<usize> = const { Cell::new(0) };
}

/// The tombstone sentinel: a slot whose entry was deleted but whose probe
/// chain must stay intact. A dangling well-aligned non-null pointer the
/// allocator can never hand out; never dereferenced.
fn tomb<V>() -> *mut Entry<V> {
    std::ptr::dangling_mut()
}

fn is_live<V>(p: *mut Entry<V>) -> bool {
    !p.is_null() && p != tomb::<V>()
}

/// Mixes a 128-bit fingerprint into a table slot hash. The shard index
/// uses the key's low bits, so the slot hash folds both halves through a
/// multiplier to stay independent of it.
fn slot_hash(key: u128) -> usize {
    let x = (key as u64) ^ ((key >> 64) as u64).rotate_left(31);
    let h = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h ^ (h >> 32)) as usize
}

/// A cached entry. Immutable apart from the clock reference bit.
struct Entry<V> {
    key: u128,
    /// Second-chance bit: set by readers on a hit, cleared (and acted on)
    /// by the evicting writer.
    referenced: AtomicBool,
    value: Arc<V>,
}

/// The published open-addressing table: linear probing over atomic entry
/// pointers. Slot count is fixed at ≥ 2× shard capacity (power of two),
/// so the writer's ¾-occupancy rebuild guarantee keeps at least one
/// genuinely-empty slot on every probe path and probes terminate.
struct Table<V> {
    mask: usize,
    slots: Box<[AtomicPtr<Entry<V>>]>,
}

impl<V> Table<V> {
    fn new(slot_count: usize) -> Table<V> {
        Table {
            mask: slot_count - 1,
            slots: (0..slot_count)
                .map(|_| AtomicPtr::new(ptr::null_mut()))
                .collect(),
        }
    }

    /// Writer-side probe: the slot currently holding `key`, if resident.
    fn find_slot(&self, key: u128) -> Option<usize> {
        let mut idx = slot_hash(key) & self.mask;
        loop {
            let p = self.slots[idx].load(Ordering::Relaxed);
            if p.is_null() {
                return None;
            }
            if is_live(p) && unsafe { (*p).key } == key {
                return Some(idx);
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Writer-side probe for an insertion point of an *absent* key: the
    /// first tombstone on the probe path (reusing it keeps the chain
    /// short), else the terminating empty slot. Returns `(index, was
    /// genuinely empty)`.
    fn insert_slot(&self, key: u128) -> (usize, bool) {
        let mut idx = slot_hash(key) & self.mask;
        let mut first_tomb = None;
        loop {
            let p = self.slots[idx].load(Ordering::Relaxed);
            if p.is_null() {
                return match first_tomb {
                    Some(t) => (t, false),
                    None => (idx, true),
                };
            }
            if p == tomb::<V>() && first_tomb.is_none() {
                first_tomb = Some(idx);
            }
            idx = (idx + 1) & self.mask;
        }
    }
}

/// A retired allocation awaiting quiescence before it can be freed.
enum Retired<V> {
    Entry(*mut Entry<V>),
    Table(*mut Table<V>),
}

impl<V> Retired<V> {
    /// Frees the allocation. Caller must have proven no reader can still
    /// hold the pointer (epoch quiescence, or exclusive access in `Drop`).
    /// Retired tables free only their slot array — the entries they point
    /// at either live on in the successor table or were retired (and are
    /// freed) separately.
    unsafe fn free(self) {
        match self {
            Retired::Entry(p) => drop(Box::from_raw(p)),
            Retired::Table(p) => drop(Box::from_raw(p)),
        }
    }
}

/// Writer-side shard state, all guarded by the shard mutex.
struct WriterState<V> {
    /// Clock ring: every resident key exactly once, hand at the front.
    ring: VecDeque<u128>,
    /// Retired allocations with their retire-epoch stamps.
    retired: Vec<(Retired<V>, u64)>,
    /// Resident entries.
    live: usize,
    /// Occupied slots (live + tombstones) in the published table.
    used: usize,
}

struct Shard<V> {
    /// The published table readers probe. Null until the first insert.
    published: AtomicPtr<Table<V>>,
    writer: Mutex<WriterState<V>>,
    /// Mirror of `WriterState::live` readable without the mutex.
    len: AtomicUsize,
}

/// The reader-pin registry: one atomic per slot, holding `SLOT_FREE` or
/// the epoch the pinned reader announced.
struct Readers {
    slots: Box<[AtomicU64]>,
}

impl Readers {
    fn new(slot_count: usize) -> Readers {
        Readers {
            slots: (0..slot_count).map(|_| AtomicU64::new(SLOT_FREE)).collect(),
        }
    }

    /// Announces `epoch` in a free slot. The SeqCst CAS orders the
    /// announcement before every subsequent table/slot load, which is what
    /// the reclamation proof leans on. `None` when all slots are taken.
    fn pin(&self, epoch: &AtomicU64) -> Option<ReadPin<'_>> {
        let e = epoch.load(Ordering::SeqCst);
        let n = self.slots.len();
        let start = PREFERRED_SLOT.with(|p| p.get()) % n;
        for i in 0..n {
            let idx = (start + i) % n;
            if self.slots[idx]
                .compare_exchange(SLOT_FREE, e, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                PREFERRED_SLOT.with(|p| p.set(idx));
                return Some(ReadPin { readers: self, idx });
            }
        }
        None
    }

    /// True when no pinned reader could still hold a pointer retired at
    /// epoch `r`: every occupied slot announces a strictly later epoch.
    fn quiesced(&self, r: u64) -> bool {
        self.slots.iter().all(|s| {
            let v = s.load(Ordering::SeqCst);
            v == SLOT_FREE || v > r
        })
    }
}

struct ReadPin<'a> {
    readers: &'a Readers,
    idx: usize,
}

impl Drop for ReadPin<'_> {
    fn drop(&mut self) {
        self.readers.slots[self.idx].store(SLOT_FREE, Ordering::Release);
    }
}

/// A sharded, bounded map from fingerprint to plan with a lock-free read
/// path and second-chance-clock eviction.
pub struct ShardedLru<V> {
    shards: Box<[Shard<V>]>,
    per_shard_capacity: usize,
    /// Fixed slot count of every published table (power of two ≥ 2×cap).
    table_slots: usize,
    /// Global reclamation epoch, bumped once per retire.
    epoch: AtomicU64,
    readers: Readers,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

// Raw pointers in `WriterState::retired` / `Shard::published` inhibit the
// auto traits; sharing is sound because every pointer is either published
// (reachable only through the epoch-protected read path) or retired
// (owned by the mutex-guarded writer state).
unsafe impl<V: Send + Sync> Send for ShardedLru<V> {}
unsafe impl<V: Send + Sync> Sync for ShardedLru<V> {}

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
        Self::with_reader_slots(capacity, shards, READER_SLOTS)
    }

    /// [`ShardedLru::new`] with an explicit reader-slot count — exposed so
    /// tests can exhaust the registry and exercise the locked fallback.
    fn with_reader_slots(capacity: usize, shards: usize, reader_slots: usize) -> Self {
        let shard_count = shards.max(1).next_power_of_two();
        let per_shard_capacity = capacity.div_ceil(shard_count);
        ShardedLru {
            shards: (0..shard_count)
                .map(|_| Shard {
                    published: AtomicPtr::new(ptr::null_mut()),
                    writer: Mutex::new(WriterState {
                        ring: VecDeque::new(),
                        retired: Vec::new(),
                        live: 0,
                        used: 0,
                    }),
                    len: AtomicUsize::new(0),
                })
                .collect(),
            table_slots: (per_shard_capacity * 2).next_power_of_two().max(4),
            per_shard_capacity,
            epoch: AtomicU64::new(0),
            readers: Readers::new(reader_slots.max(1)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: u128) -> &Shard<V> {
        &self.shards[(key as usize) & (self.shards.len() - 1)]
    }

    /// Probes the published table for `key`, setting the reference bit and
    /// cloning the value on a hit.
    ///
    /// # Safety
    /// The caller must guarantee the table and its entries cannot be freed
    /// for the duration of the call — either by holding a [`ReadPin`]
    /// announced *before* loading the published pointer, or by holding the
    /// shard's writer mutex.
    unsafe fn probe(table: *const Table<V>, key: u128) -> Option<Arc<V>> {
        let table = table.as_ref()?;
        let mut idx = slot_hash(key) & table.mask;
        loop {
            let p = table.slots[idx].load(Ordering::SeqCst);
            if p.is_null() {
                return None;
            }
            if is_live(p) {
                let e = &*p;
                if e.key == key {
                    e.referenced.store(true, Ordering::Relaxed);
                    return Some(e.value.clone());
                }
            }
            idx = (idx + 1) & table.mask;
        }
    }

    /// Looks up `key`. Lock-free: pin, one published-pointer load, linear
    /// probe, `Arc` clone, unpin. A hit marks the entry's second-chance
    /// bit (the lock-free stand-in for LRU recency refresh).
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
        let shard = self.shard_of(key);
        let found = match self.readers.pin(&self.epoch) {
            Some(pin) => {
                let t = shard.published.load(Ordering::SeqCst);
                // SAFETY: the pin was announced before the table load, so
                // the writer's quiescence check keeps `t` (and any entry
                // reachable from it) alive until `pin` drops.
                let v = unsafe { Self::probe(t, key) };
                drop(pin);
                v
            }
            None => {
                // Registry exhausted (only reachable with hundreds of
                // simultaneous readers): read under the shard's writer
                // mutex, which excludes every free of this shard's memory.
                let _w = shard.writer.lock().unwrap();
                let t = shard.published.load(Ordering::SeqCst);
                // SAFETY: this shard's retire/free runs only under the
                // writer mutex we hold.
                unsafe { Self::probe(t, key) }
            }
        };
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Stamps `item` with the current epoch and queues it for freeing
    /// once readers quiesce.
    fn retire(&self, w: &mut WriterState<V>, item: Retired<V>) {
        let r = self.epoch.fetch_add(1, Ordering::SeqCst);
        w.retired.push((item, r));
    }

    /// Frees every retired allocation whose stamp the readers have moved
    /// past. Called on each insert; anything still pending is freed by a
    /// later insert or by `Drop`.
    fn collect(&self, w: &mut WriterState<V>) {
        w.retired.retain(|(item, r)| {
            if self.readers.quiesced(*r) {
                // SAFETY: no pinned reader announced an epoch ≤ r, so per
                // the reclamation argument none can hold this pointer.
                unsafe {
                    match item {
                        Retired::Entry(p) => drop(Box::from_raw(*p)),
                        Retired::Table(p) => drop(Box::from_raw(*p)),
                    }
                }
                false
            } else {
                true
            }
        });
    }

    /// Second-chance clock eviction: demote referenced entries, evict the
    /// first unreferenced one. O(1) amortized — every demotion is paid for
    /// by the hit that set the bit.
    fn clock_evict(&self, table: &Table<V>, w: &mut WriterState<V>) {
        loop {
            let key = w.ring.pop_front().expect("ring tracks every resident key");
            let idx = table.find_slot(key).expect("resident key is in the table");
            let p = table.slots[idx].load(Ordering::Relaxed);
            // SAFETY: `p` is live (find_slot) and cannot be freed while we
            // hold the writer mutex.
            if unsafe { (*p).referenced.swap(false, Ordering::Relaxed) } {
                w.ring.push_back(key);
                continue;
            }
            table.slots[idx].store(tomb::<V>(), Ordering::SeqCst);
            self.retire(w, Retired::Entry(p));
            w.live -= 1;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }

    /// Rebuilds a tombstone-free table and publishes it with one swap,
    /// retiring the old one. Live entries are carried over by pointer.
    fn rebuild(&self, shard: &Shard<V>, old: *mut Table<V>, w: &mut WriterState<V>) {
        let fresh = Box::new(Table::new(self.table_slots));
        // SAFETY: `old` stays valid under the writer mutex.
        for slot in unsafe { &*old }.slots.iter() {
            let p = slot.load(Ordering::Relaxed);
            if is_live(p) {
                // SAFETY: live entry owned by the (locked) writer side.
                let (idx, _) = fresh.insert_slot(unsafe { (*p).key });
                fresh.slots[idx].store(p, Ordering::Relaxed);
            }
        }
        shard
            .published
            .store(Box::into_raw(fresh), Ordering::SeqCst);
        self.retire(w, Retired::Table(old));
        w.used = w.live;
    }

    /// Inserts (or refreshes) `key`, evicting via the second-chance clock
    /// if the shard is full. Serializes with other writers of the same
    /// shard; concurrent readers are never blocked.
    pub fn insert(&self, key: u128, value: Arc<V>) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let shard = self.shard_of(key);
        let mut w = shard.writer.lock().unwrap();
        let mut t_ptr = shard.published.load(Ordering::Relaxed);
        if t_ptr.is_null() {
            t_ptr = Box::into_raw(Box::new(Table::new(self.table_slots)));
            shard.published.store(t_ptr, Ordering::SeqCst);
        }
        // SAFETY: the published table is only freed by this mutex-guarded
        // writer path, which we are.
        let table = unsafe { &*t_ptr };

        if let Some(idx) = table.find_slot(key) {
            // Refresh: publish a fresh entry (just-used, bit set), retire
            // the old one. Ring position is unchanged.
            let old = table.slots[idx].load(Ordering::Relaxed);
            let fresh = Box::into_raw(Box::new(Entry {
                key,
                referenced: AtomicBool::new(true),
                value,
            }));
            table.slots[idx].store(fresh, Ordering::SeqCst);
            self.retire(&mut w, Retired::Entry(old));
        } else {
            if w.live >= self.per_shard_capacity {
                self.clock_evict(table, &mut w);
            }
            let fresh = Box::into_raw(Box::new(Entry {
                key,
                referenced: AtomicBool::new(false),
                value,
            }));
            let (idx, was_empty) = table.insert_slot(key);
            table.slots[idx].store(fresh, Ordering::SeqCst);
            if was_empty {
                w.used += 1;
            }
            w.live += 1;
            w.ring.push_back(key);
            if w.used * 4 > self.table_slots * 3 {
                self.rebuild(shard, t_ptr, &mut w);
            }
        }
        shard.len.store(w.live, Ordering::Relaxed);
        self.collect(&mut w);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Entries currently resident across all shards (lock-free).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.len.load(Ordering::Relaxed))
            .sum()
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

    /// Retired allocations not yet reclaimed (all shards) — bounded by
    /// write traffic between quiescent points; tests assert it drains.
    #[cfg(test)]
    fn retired_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.writer.lock().unwrap().retired.len())
            .sum()
    }
}

impl<V> Drop for ShardedLru<V> {
    fn drop(&mut self) {
        // `&mut self`: no reader or writer can be live. Free the retired
        // backlog, every resident entry, and the published tables.
        for shard in self.shards.iter() {
            let mut w = shard.writer.lock().unwrap();
            for (item, _) in w.retired.drain(..) {
                // SAFETY: exclusive access; retired items are reachable
                // from nowhere else.
                unsafe { item.free() };
            }
            let t = shard.published.swap(ptr::null_mut(), Ordering::Relaxed);
            if !t.is_null() {
                // SAFETY: exclusive access; the published table and its
                // live entries are owned solely by the cache now.
                unsafe {
                    for slot in (*t).slots.iter() {
                        let p = slot.load(Ordering::Relaxed);
                        if is_live(p) {
                            drop(Box::from_raw(p));
                        }
                    }
                    drop(Box::from_raw(t));
                }
            }
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

        // Ring is now [2, 3, 4] with 2 and 3 referenced (the gets above,
        // re-set by the asserts below? no — asserts above were pre-evict).
        // 4 was inserted unreferenced and nothing touched it: the hand
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
    /// through insert/evict/rebuild. Every hit must return the value the
    /// key was inserted with — a use-after-free or torn probe would return
    /// garbage or crash. Run with the full suite; `scripts/check.sh`
    /// additionally runs the extended variant (see
    /// `stress_reclamation_extended`).
    #[test]
    fn stress_readers_vs_writers() {
        stress(4, 4, 20_000);
    }

    /// The check.sh interleaving gate: longer, more threads than cores, so
    /// the scheduler produces preemption-point interleavings a quick run
    /// misses. (Loom/miri are unavailable under the std-only/offline
    /// constraint — see DESIGN.md §15 — so schedule diversity is the
    /// substitute.)
    #[test]
    #[ignore = "extended interleaving stress; run explicitly (scripts/check.sh does)"]
    fn stress_reclamation_extended() {
        stress(12, 6, 120_000);
    }

    fn stress(readers: usize, writers: usize, iters_per_thread: u64) {
        // Capacity far below the keyspace forces continuous eviction and
        // table rebuilds while readers race the reclamation path.
        let c: Arc<ShardedLru<u128>> = Arc::new(ShardedLru::new(32, 4));
        let keyspace = 256u128;
        let mut handles = Vec::new();
        for t in 0..writers {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                let mut x = 0x9e37u64.wrapping_add(t as u64);
                for _ in 0..iters_per_thread {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = (x as u128) % keyspace;
                    c.insert(k, Arc::new(k * 3 + 1));
                }
            }));
        }
        for t in 0..readers {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                let mut x = 0xc0ffeeu64.wrapping_add(t as u64);
                for _ in 0..iters_per_thread {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = (x as u128) % keyspace;
                    if let Some(v) = c.get(k) {
                        assert_eq!(*v, k * 3 + 1, "hit returned another key's value");
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Quiesced: one more write per shard must reclaim the backlog
        // (nothing is pinned any more).
        for k in 0..4u128 {
            c.insert(keyspace + k, Arc::new((keyspace + k) * 3 + 1));
        }
        assert!(
            c.retired_len() <= 16,
            "retired backlog did not drain at quiescence: {}",
            c.retired_len()
        );
        let s = c.stats();
        assert!(s.insertions >= writers as u64 * iters_per_thread);
    }

    /// Exhausting the reader registry must fall back to the (slower)
    /// locked read path, not fail or race.
    #[test]
    fn reader_slot_exhaustion_falls_back() {
        let c: Arc<ShardedLru<u64>> = Arc::new(ShardedLru::with_reader_slots(16, 1, 1));
        for k in 0..8u128 {
            c.insert(k, Arc::new(k as u64 + 100));
        }
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for i in 0..2_000u128 {
                        let k = (t + i) % 8;
                        assert_eq!(*c.get(k).unwrap(), k as u64 + 100);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.stats().hits, 16_000);
    }

    /// Refresh keeps len stable and old values unreachable, across enough
    /// churn to force several rebuilds (tombstone + refresh traffic).
    #[test]
    fn refresh_churn_rebuilds_cleanly() {
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
}
