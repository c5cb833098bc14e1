//! Flat-memory primitives for the id-addressed hot path: an
//! open-addressed probe table keyed by pre-hashed integers, the
//! cache-line padding and shard arithmetic of the daemon-wide shared
//! store, and reusable SoA scratch for the §3.6 skyline dominance scan.
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

/// Pad a shard of the shared store to its own cache line so daemon
/// slots touching adjacent shards do not false-share lock words or map
/// headers.
#[repr(align(64))]
#[derive(Debug, Default)]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Shard count for the shared store, derived from the number of
/// concurrent writers instead of a fixed constant: enough shards that
/// writers rarely collide (4x oversubscription smooths hash skew),
/// rounded to a power of two so selection is a mask, clamped to keep
/// the table walk in `snapshot()` cheap on huge machines.
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

/// Order a drained batch for a checkpoint record: sorted by key, the
/// last insert of a key winning (the only store that ever overwrites
/// with a different value is the cost cache repairing a poisoned
/// entry). Sorting is what keeps record bytes independent of table
/// layout.
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
