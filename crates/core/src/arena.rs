//! Flat-memory primitives for the id-addressed hot path: cache-line
//! padding, worker-derived shard counts, an open-addressed probe table
//! keyed by pre-hashed integers, the sharded (and, for checkpointing
//! sessions, journaled) store built from it, and reusable SoA scratch
//! for the §3.6 skyline dominance scan.
//!
//! Everything here is allocation *placement*, never logic: the stores
//! built on [`ProbeTable`] (cost cache, shared store) are probed by the
//! bits of signatures that are already high-quality hashes instead of
//! re-hashing them through SipHash, and every reduction over them is
//! iteration-order-independent, so table layout and shard count never
//! reach a report, trace, or checkpoint.
//!
//! Lifetime argument (DESIGN.md §13): every structure in this module is
//! scratch or session-local cache. `SkylineScratch` buffers live on the
//! driver's stack frame for the whole session and are overwritten at
//! each use; `ProbeTable`s live inside the stores and die with the
//! session. Nothing here is serialized: checkpoints keep writing
//! portable 128-bit signatures.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU32, Ordering};

/// Pad a shard to its own cache line so concurrent workers touching
/// adjacent shards do not false-share lock words or map headers.
#[repr(align(64))]
#[derive(Debug, Default)]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Shard count for the sharded stores, derived from the actual
/// worker count instead of a fixed constant: enough shards that workers
/// rarely collide (4x oversubscription smooths hash skew), rounded to a
/// power of two so selection is a mask, clamped to keep the table walk
/// in `snapshot()` cheap on huge machines.
pub fn shard_count(workers: usize) -> usize {
    (workers.max(1) * 4).next_power_of_two().clamp(8, 64)
}

/// The shard a key lives in, out of `shards` (a power of two, at most
/// 64 — see [`shard_count`]). Uses the *high* hash bits because the
/// in-table probe consumes the low ones: shard-mates must not cluster
/// inside their table.
pub fn shard_index(key: &impl ProbeKey, shards: usize) -> usize {
    (key.probe_hash() >> 58) as usize & (shards - 1)
}

/// A key whose probe hash is derivable from its own bits — the keys the
/// stores hold are built from signatures that are already uniformly
/// distributed hashes, so no hasher runs on the hot path.
pub trait ProbeKey: Copy + Eq {
    fn probe_hash(&self) -> u64;
}

/// Cost-cache fine key: (query index, 128-bit projection signature).
impl ProbeKey for (u32, u128) {
    fn probe_hash(&self) -> u64 {
        (self.1 as u64)
            ^ ((self.1 >> 64) as u64).rotate_left(32)
            ^ u64::from(self.0).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Shared-invocation-store key: (schema signature, query content
/// signature, relevant-subset signature) — each component is already a
/// mixed 128-bit hash, so folding the halves with distinct rotations
/// keeps the distribution.
impl ProbeKey for (u128, u128, u128) {
    fn probe_hash(&self) -> u64 {
        let fold = |v: u128, r: u32| (v as u64).rotate_left(r) ^ ((v >> 64) as u64).rotate_left(r);
        fold(self.0, 0) ^ fold(self.1, 17).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ fold(self.2, 41)
    }
}

/// Open-addressed hash table probed by [`ProbeKey::probe_hash`]:
/// linear probing, power-of-two capacity, growth at 50% load.
#[derive(Debug)]
pub struct ProbeTable<K, V> {
    slots: Vec<Option<(K, V)>>,
    len: usize,
}

impl<K: ProbeKey, V> Default for ProbeTable<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: ProbeKey, V> ProbeTable<K, V> {
    pub fn new() -> Self {
        ProbeTable {
            slots: Vec::new(),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn get(&self, key: K) -> Option<&V> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (key.probe_hash() as usize) & mask;
        loop {
            match &self.slots[i] {
                None => return None,
                Some((k, v)) if *k == key => return Some(v),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Insert or overwrite. The engine only ever overwrites with a
    /// bitwise-identical value (stored values are pure functions of the
    /// key), so insertion order cannot leak into lookups.
    pub fn insert(&mut self, key: K, value: V) {
        if self.slots.len() < 2 * (self.len + 1) {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (key.probe_hash() as usize) & mask;
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k != key => i = (i + 1) & mask,
                slot => {
                    if slot.is_none() {
                        self.len += 1;
                    }
                    self.slots[i] = Some((key, value));
                    return;
                }
            }
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, {
            let mut v = Vec::new();
            v.resize_with(new_cap, || None);
            v
        });
        let mask = new_cap - 1;
        for (k, v) in old.into_iter().flatten() {
            let mut i = (k.probe_hash() as usize) & mask;
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some((k, v));
        }
    }

    /// Every entry, in slot order. Callers that need determinism sort
    /// by the full key afterwards.
    pub fn iter(&self) -> impl Iterator<Item = &(K, V)> {
        self.slots.iter().flatten()
    }
}

/// One shard of a [`Sharded`] store: its table, and what was inserted
/// into it since the last checkpoint record, tagged with the epoch of
/// the insert. Both sit behind the shard's one lock, so journaling adds
/// no synchronization to an insert.
#[derive(Debug)]
struct Shard<K, V> {
    table: ProbeTable<K, V>,
    journal: Vec<(u32, K, V)>,
}

/// Per-shard [`ProbeTable`]s behind cache-line-padded locks: a lookup
/// takes a read lock on one shard, so scoring workers proceed in
/// parallel. The shard count follows the worker count
/// ([`shard_count`]).
///
/// A session with a checkpoint sink also *journals* the store
/// ([`Sharded::start_journal`]): every insert is appended, under the
/// write lock it already holds, to its shard's journal with the current
/// epoch. The driver closes an epoch at each clean iteration boundary
/// ([`Sharded::seal`] — one store, the whole cost of a boundary mark)
/// and a checkpoint record takes everything up to a sealed epoch
/// ([`Sharded::drain_through`]), so what a record writes is what was
/// inserted since the previous one, never the whole store. Without a
/// sink nothing is kept.
#[derive(Debug)]
pub struct Sharded<K, V> {
    shards: Vec<CachePadded<RwLock<Shard<K, V>>>>,
    /// The epoch inserts are tagged with; `None` = not journaling.
    epoch: Option<AtomicU32>,
}

impl<K: ProbeKey, V: Clone> Sharded<K, V> {
    /// A store sharded for `workers` concurrent scorers.
    pub fn new(workers: usize) -> Self {
        Sharded {
            shards: (0..shard_count(workers))
                .map(|_| {
                    CachePadded(RwLock::new(Shard {
                        table: ProbeTable::new(),
                        journal: Vec::new(),
                    }))
                })
                .collect(),
            epoch: None,
        }
    }

    fn shard(&self, key: &K) -> &RwLock<Shard<K, V>> {
        &self.shards[shard_index(key, self.shards.len())]
    }

    pub fn get(&self, key: K) -> Option<V> {
        self.shard(&key).read().table.get(key).cloned()
    }

    /// Insert or overwrite (see [`ProbeTable::insert`]).
    pub fn insert(&self, key: K, value: V) {
        let mut shard = self.shard(&key).write();
        if let Some(epoch) = &self.epoch {
            // Relaxed: epochs change only on the driver between scoring
            // batches, and spawning the workers orders the store before
            // their loads.
            let epoch = epoch.load(Ordering::Relaxed);
            shard.journal.push((epoch, key, value.clone()));
        }
        shard.table.insert(key, value);
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().table.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit every shard's table (read-locked one at a time). Callers
    /// reduce order-independently or sort afterwards.
    pub fn for_each_table(&self, mut f: impl FnMut(&ProbeTable<K, V>)) {
        for shard in &self.shards {
            f(&shard.read().table);
        }
    }

    /// Journal every insert from here on, starting in epoch 0. Entries
    /// already present (a resumed session's restored state, which the
    /// log it resumed from already holds) are not journaled.
    pub fn start_journal(&mut self) {
        self.epoch = Some(AtomicU32::new(0));
    }

    /// Close `epoch`: later inserts belong to `epoch + 1`. Called by
    /// the driver at an iteration boundary, when no worker is running.
    pub fn seal(&self, epoch: u32) {
        if let Some(current) = &self.epoch {
            current.store(epoch + 1, Ordering::Relaxed);
        }
    }

    /// Take every journaled insert of epochs `..= epoch`, in per-shard
    /// insertion order (a key lives in one shard, so successive inserts
    /// of one key stay ordered).
    pub fn drain_through(&self, epoch: u32) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let journal = &mut shard.write().journal;
            let sealed = journal.partition_point(|(e, _, _)| *e <= epoch);
            out.extend(journal.drain(..sealed).map(|(_, k, v)| (k, v)));
        }
        out
    }
}

/// Order a drained batch for a checkpoint record: sorted by key, the
/// last insert of a key winning (the only store that ever overwrites
/// with a different value is the cost cache repairing a poisoned
/// entry). Sorting is what keeps record bytes independent of shard
/// count and thread schedule.
pub fn sort_batch<K: Ord, V>(batch: &mut Vec<(K, V)>) {
    batch.sort_by(|a, b| a.0.cmp(&b.0));
    batch.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            std::mem::swap(later, kept);
        }
        same
    });
}

/// Reusable SoA buffers for the §3.6 skyline dominance scan: the
/// search loads the open candidates' (ΔT, ΔS) pairs into two dense
/// columns and computes one dominated-flag per position, instead of
/// building a fresh `Vec<(f64, f64)>` snapshot per iteration and
/// re-scanning it per candidate through a closure.
#[derive(Default)]
pub struct SkylineScratch {
    delta_t: Vec<f64>,
    delta_s: Vec<f64>,
    dominated: Vec<bool>,
}

impl SkylineScratch {
    /// Compute dominated flags for `pairs` (in input order): position
    /// `i` is dominated iff some position has `ΔT <= ΔT_i && ΔS >= ΔS_i`
    /// with at least one strict.
    pub fn dominated_flags(&mut self, pairs: impl Iterator<Item = (f64, f64)>) -> &[bool] {
        self.delta_t.clear();
        self.delta_s.clear();
        for (t, s) in pairs {
            self.delta_t.push(t);
            self.delta_s.push(s);
        }
        let n = self.delta_t.len();
        self.dominated.clear();
        self.dominated.resize(n, false);
        for i in 0..n {
            let (ct, cs) = (self.delta_t[i], self.delta_s[i]);
            self.dominated[i] = self
                .delta_t
                .iter()
                .zip(&self.delta_s)
                .any(|(&ot, &os)| ot <= ct && os >= cs && (ot < ct || os > cs));
        }
        &self.dominated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_tracks_workers() {
        assert_eq!(shard_count(0), 8);
        assert_eq!(shard_count(1), 8);
        assert_eq!(shard_count(2), 8);
        assert_eq!(shard_count(4), 16);
        assert_eq!(shard_count(8), 32);
        assert_eq!(shard_count(16), 64);
        assert_eq!(shard_count(1024), 64);
        for w in 0..100 {
            assert!(shard_count(w).is_power_of_two());
            assert!(shard_index(&(0u32, u128::MAX), shard_count(w)) < shard_count(w));
        }
    }

    #[test]
    fn probe_table_round_trips_and_grows() {
        let mut t: ProbeTable<(u32, u128), f64> = ProbeTable::new();
        assert!(t.get((1, 2)).is_none());
        for i in 0..1000u32 {
            t.insert((i, u128::from(i).wrapping_mul(0xABCDEF)), f64::from(i));
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(
                t.get((i, u128::from(i).wrapping_mul(0xABCDEF))),
                Some(&f64::from(i))
            );
        }
        assert!(t.get((999, 1)).is_none());
        // Overwrite does not change the length.
        t.insert((0, 0), 42.0);
        assert_eq!(t.len(), 1000);
        assert_eq!(t.get((0, 0)), Some(&42.0));
        assert_eq!(t.iter().count(), 1000);
    }

    #[test]
    fn probe_table_handles_clustered_keys() {
        // Keys that collide heavily on the folded probe hash exercise
        // linear probing and rehash-on-grow.
        let mut t: ProbeTable<(u32, u128), u32> = ProbeTable::new();
        for i in 0..64u32 {
            t.insert((7, u128::from(i) << 120), i);
        }
        for i in 0..64u32 {
            assert_eq!(t.get((7, u128::from(i) << 120)), Some(&i));
        }
        assert_eq!(t.len(), 64);
        // Same signature under a different query index is a miss.
        assert!(t.get((8, 0u128)).is_none());
    }

    #[test]
    fn journal_hands_out_sealed_epochs_once() {
        let mut quiet: Sharded<(u32, u128), u32> = Sharded::new(4);
        quiet.insert((0, 1), 1);
        assert!(quiet.drain_through(0).is_empty(), "no journal, no cost");
        assert_eq!(quiet.get((0, 1)), Some(1));

        quiet.start_journal();
        let store = quiet;
        // Epoch 0: three keys across shards, one of them overwritten.
        store.insert((1, 7 << 100), 10);
        store.insert((0, 9), 20);
        store.insert((1, 7 << 100), 11);
        store.seal(0);
        // Epoch 1 — inserted after the boundary, must not leak into
        // a record written for it.
        store.insert((2, 3), 30);
        let mut first = store.drain_through(0);
        sort_batch(&mut first);
        assert_eq!(first, vec![((0, 9), 20), ((1, 7 << 100), 11)]);
        assert!(store.drain_through(0).is_empty(), "drained once");
        store.seal(1);
        store.insert((2, 4), 40);
        assert_eq!(store.drain_through(1), vec![((2, 3), 30)]);
        // A record may cover several epochs at once.
        store.seal(2);
        store.insert((2, 5), 50);
        store.seal(3);
        let mut rest = store.drain_through(3);
        sort_batch(&mut rest);
        assert_eq!(rest, vec![((2, 4), 40), ((2, 5), 50)]);
        assert_eq!(store.len(), 6, "seven inserts, one of them an overwrite");
    }

    #[test]
    fn skyline_scratch_matches_reference_predicate() {
        let pairs = [(1.0, 5.0), (2.0, 5.0), (0.5, 1.0), (3.0, 9.0), (1.0, 5.0)];
        let mut scratch = SkylineScratch::default();
        let flags = scratch.dominated_flags(pairs.iter().copied()).to_vec();
        let reference: Vec<bool> = pairs
            .iter()
            .map(|&(ct, cs)| {
                pairs
                    .iter()
                    .any(|&(ot, os)| ot <= ct && os >= cs && (ot < ct || os > cs))
            })
            .collect();
        assert_eq!(flags, reference);
        // (1,5) dominates (2,5); everything else — including the two
        // equal (1,5) points, which are not strictly better than each
        // other — stays on the frontier.
        assert_eq!(flags, vec![false, true, false, false, false]);
        // Reuse with a different size.
        let flags = scratch.dominated_flags([(1.0, 1.0)].into_iter());
        assert_eq!(flags, &[false]);
    }
}
