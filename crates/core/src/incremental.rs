//! Incremental candidate engine support: structure interning and the
//! §3.3.2 bound memo.
//!
//! Both pieces exist to make per-node candidate scoring cheap without
//! changing a single output bit:
//!
//! - [`Interner`] hash-conses [`Index`] descriptors into precomputed
//!   64-bit signatures so candidate keys, `tried`-set membership, and
//!   memo keys are O(1) integer operations instead of re-hashing column
//!   vectors at every node.
//! - [`BoundMemo`] caches [`crate::bound::cost_upper_bound`] results
//!   keyed by `(transformation signature, configuration signature)` in
//!   sharded flat probe tables, like [`crate::cache::CostCache`]. The
//!   bound is a pure function of `(transformation, configuration)`
//!   (the workload, database, and cost model are fixed for a session),
//!   so equal keys imply bit-equal results and a hit can skip the
//!   apply + bound computation entirely.
//!
//! Determinism contract: workers may insert into the memo directly
//! because every scoring batch prices *distinct* transformations
//! against one fixed configuration — no two workers ever race on the
//! same key with different values. Hit/miss counters are accumulated
//! by the driver thread in input order via [`BoundMemo::record_traced`]
//! (commit-on-success, like the cost cache), so traces and reports are
//! byte-identical for every `--threads` value.

use crate::arena::{sort_batch, Sharded};
use crate::transform::Transformation;
use parking_lot::RwLock;
use pdt_physical::Index;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Hash-consed signatures for physical structures and transformations.
///
/// Lives on the driver thread only (`RefCell`); workers receive
/// precomputed signatures. Signatures are *content-addressed* (a stable
/// hash of the descriptor itself, never an insertion counter), so a
/// resumed session regenerates the identical mapping by replaying the
/// same enumeration — the checkpointed snapshot is belt and braces.
#[derive(Default)]
pub struct Interner {
    indexes: RefCell<HashMap<Index, u64>>,
    /// `(epoch, index, signature)` of every first sighting since the
    /// last checkpoint record; `None` = not journaling. Same epoch
    /// protocol as [`Sharded`], without the shards.
    journal: RefCell<Option<Vec<(u32, Index, u64)>>>,
    epoch: Cell<u32>,
}

impl Interner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Signature of an index descriptor, computed once per distinct value.
    pub fn index_sig(&self, index: &Index) -> u64 {
        if let Some(&sig) = self.indexes.borrow().get(index) {
            return sig;
        }
        let mut h = DefaultHasher::new();
        index.hash(&mut h);
        let sig = h.finish();
        self.indexes.borrow_mut().insert(index.clone(), sig);
        if let Some(journal) = self.journal.borrow_mut().as_mut() {
            journal.push((self.epoch.get(), index.clone(), sig));
        }
        sig
    }

    /// Signature of a transformation: a variant tag plus the interned
    /// signatures of its components. Collisions would affect the
    /// incremental and from-scratch engines identically (both key the
    /// same caches by the same value), so byte-identity is preserved
    /// even in that astronomically unlikely case.
    pub fn transform_sig(&self, t: &Transformation) -> u64 {
        let mut h = DefaultHasher::new();
        match t {
            Transformation::MergeIndexes { i1, i2 } => {
                1u8.hash(&mut h);
                self.index_sig(i1).hash(&mut h);
                self.index_sig(i2).hash(&mut h);
            }
            Transformation::SplitIndexes { i1, i2 } => {
                2u8.hash(&mut h);
                self.index_sig(i1).hash(&mut h);
                self.index_sig(i2).hash(&mut h);
            }
            Transformation::PrefixIndex { index, len } => {
                3u8.hash(&mut h);
                self.index_sig(index).hash(&mut h);
                len.hash(&mut h);
            }
            Transformation::PromoteToClustered { index } => {
                4u8.hash(&mut h);
                self.index_sig(index).hash(&mut h);
            }
            Transformation::RemoveIndex { index } => {
                5u8.hash(&mut h);
                self.index_sig(index).hash(&mut h);
            }
            Transformation::MergeViews { v1, v2 } => {
                6u8.hash(&mut h);
                v1.hash(&mut h);
                v2.hash(&mut h);
            }
            Transformation::RemoveView { view } => {
                7u8.hash(&mut h);
                view.hash(&mut h);
            }
        }
        h.finish()
    }

    pub fn len(&self) -> usize {
        self.indexes.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.indexes.borrow().is_empty()
    }

    /// Deterministic dump sorted by index descriptor (its `Ord`).
    pub fn snapshot(&self) -> Vec<(Index, u64)> {
        let mut out: Vec<(Index, u64)> = self
            .indexes
            .borrow()
            .iter()
            .map(|(i, &s)| (i.clone(), s))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Rebuild from a checkpoint dump (never journaled: the log the
    /// session resumed from already holds these).
    pub fn restore(&self, entries: Vec<(Index, u64)>) {
        let mut map = self.indexes.borrow_mut();
        for (index, sig) in entries {
            map.entry(index).or_insert(sig);
        }
    }

    /// Journal first sightings from here on (a session with a
    /// checkpoint sink).
    pub fn start_journal(&self) {
        *self.journal.borrow_mut() = Some(Vec::new());
    }

    /// Close journal epoch `epoch` at a clean iteration boundary.
    pub fn seal(&self, epoch: u32) {
        self.epoch.set(epoch + 1);
    }

    /// The descriptors first seen in epochs `..= epoch` and not yet
    /// handed out, sorted by descriptor — one checkpoint record's
    /// `interner` section.
    pub fn drain_through(&self, epoch: u32) -> Vec<(Index, u64)> {
        let mut journal = self.journal.borrow_mut();
        let Some(journal) = journal.as_mut() else {
            return Vec::new();
        };
        let sealed = journal.partition_point(|(e, _, _)| *e <= epoch);
        let mut batch: Vec<(Index, u64)> =
            journal.drain(..sealed).map(|(_, i, s)| (i, s)).collect();
        sort_batch(&mut batch);
        batch
    }
}

/// One memoized §3.3.2 bound computation.
///
/// `applies == false` records that `apply()` returned `None` for this
/// `(transformation, configuration)` pair; `bound`/`delta_s` are NaN
/// in that case (serialized as `null` in checkpoints).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundMemoEntry {
    pub applies: bool,
    pub bound: f64,
    pub delta_s: f64,
}

impl BoundMemoEntry {
    pub fn inapplicable() -> Self {
        Self {
            applies: false,
            bound: f64::NAN,
            delta_s: f64::NAN,
        }
    }

    /// Bitwise equality (NaN-safe) — the invariant the reference engine
    /// revalidates on every hit in debug builds.
    pub fn bits_eq(&self, other: &Self) -> bool {
        self.applies == other.applies
            && self.bound.to_bits() == other.bound.to_bits()
            && self.delta_s.to_bits() == other.delta_s.to_bits()
    }
}

/// The configuration side of a memo key: a dense session-local id the
/// 128-bit configuration signature resolves to once per scoring batch
/// ([`BoundMemo::cfg_key`]), so workers probe flat tables without
/// hashing a `(u64, u128)` tuple per candidate. Ids never leave the
/// session: [`BoundMemo::snapshot`] maps them back to signatures, and a
/// resumed session re-assigns them in whatever order it re-encounters
/// the configurations — nothing may depend on their values, only on
/// id-equality within one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoCfg(u32);

/// Sharded memo of §3.3.2 bound computations, keyed by
/// `(transformation signature, configuration signature)`. The
/// configuration side is the 128-bit [`Configuration::signature128`]
/// (`pdt_physical`), matching the what-if cache keys; internally it is
/// interned to a dense id ([`MemoCfg`]) and entries live in a
/// [`Sharded`] table probed by the transformation signature's own bits. [`BoundMemo::snapshot`] emits portable signature keys,
/// so checkpoints never see an id.
pub struct BoundMemo {
    cfg_ids: RwLock<HashMap<u128, u32>>,
    /// id → signature, so snapshots serialize portable keys.
    cfg_sigs: RwLock<Vec<u128>>,
    table: Sharded<(u64, u32), BoundMemoEntry>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BoundMemo {
    /// A memo sharded for `workers` concurrent scorers.
    pub fn new(workers: usize) -> Self {
        Self {
            cfg_ids: RwLock::new(HashMap::new()),
            cfg_sigs: RwLock::new(Vec::new()),
            table: Sharded::new(workers),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Resolve the configuration side of the key: called once per
    /// scoring batch on the driver, so the per-probe work inside
    /// workers is id arithmetic only.
    pub fn cfg_key(&self, cfg_sig: u128) -> MemoCfg {
        if let Some(&id) = self.cfg_ids.read().get(&cfg_sig) {
            return MemoCfg(id);
        }
        let mut ids = self.cfg_ids.write();
        let mut sigs = self.cfg_sigs.write();
        let next = sigs.len() as u32;
        MemoCfg(*ids.entry(cfg_sig).or_insert_with(|| {
            sigs.push(cfg_sig);
            next
        }))
    }

    pub fn lookup_keyed(&self, t_sig: u64, cfg: MemoCfg) -> Option<BoundMemoEntry> {
        self.table.get((t_sig, cfg.0))
    }

    pub fn insert_keyed(&self, t_sig: u64, cfg: MemoCfg, entry: BoundMemoEntry) {
        self.table.insert((t_sig, cfg.0), entry);
    }

    pub fn lookup(&self, t_sig: u64, cfg_sig: u128) -> Option<BoundMemoEntry> {
        self.lookup_keyed(t_sig, self.cfg_key(cfg_sig))
    }

    pub fn insert(&self, t_sig: u64, cfg_sig: u128, entry: BoundMemoEntry) {
        self.insert_keyed(t_sig, self.cfg_key(cfg_sig), entry);
    }

    /// Accumulate hit/miss counts. Counters move **only** through this
    /// method (driver thread, input order) so they are thread-count
    /// invariant; no trace *event* is emitted — the memo contributes
    /// counters to the trace summary only, keeping the JSONL event
    /// stream untouched.
    pub fn record(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// [`Self::record`] plus trace counter increments.
    pub fn record_traced(&self, hits: u64, misses: u64, tracer: Option<&pdt_trace::Tracer>) {
        self.record(hits, misses);
        pdt_trace::incr(tracer, "bound.memo.hits", hits);
        pdt_trace::incr(tracer, "bound.memo.misses", misses);
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Overwrite the counters (checkpoint go-live: replay inflates the
    /// hit count because originally-missed entries are pre-warmed, so
    /// the restored values are authoritative).
    pub fn set_counters(&self, hits: u64, misses: u64) {
        self.hits.store(hits, Ordering::Relaxed);
        self.misses.store(misses, Ordering::Relaxed);
    }

    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deterministic dump sorted by key, with dense configuration ids
    /// mapped back to their portable 128-bit signatures — independent
    /// of shard count, slot order, and id assignment order. What the
    /// folded checkpoint log of a session must add up to.
    pub fn snapshot(&self) -> Vec<((u64, u128), BoundMemoEntry)> {
        let sigs = self.cfg_sigs.read();
        let mut out: Vec<((u64, u128), BoundMemoEntry)> = Vec::new();
        self.table.for_each_table(|table| {
            for ((t_sig, cfg_id), v) in table.iter() {
                out.push(((*t_sig, sigs[*cfg_id as usize]), *v));
            }
        });
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Journal inserts from here on (a session with a checkpoint sink;
    /// see [`Sharded::start_journal`]).
    pub fn start_journal(&mut self) {
        self.table.start_journal();
    }

    /// Close journal epoch `epoch` at a clean iteration boundary.
    pub fn seal(&self, epoch: u32) {
        self.table.seal(epoch);
    }

    /// The entries inserted in epochs `..= epoch` and not yet handed
    /// out, under their portable keys and sorted by them — one
    /// checkpoint record's `bound_memo` section.
    pub fn drain_through(&self, epoch: u32) -> Vec<((u64, u128), BoundMemoEntry)> {
        let sigs = self.cfg_sigs.read();
        let mut batch: Vec<((u64, u128), BoundMemoEntry)> = self
            .table
            .drain_through(epoch)
            .into_iter()
            .map(|((t_sig, cfg_id), e)| ((t_sig, sigs[cfg_id as usize]), e))
            .collect();
        sort_batch(&mut batch);
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt_catalog::{ColumnId, TableId};

    fn ix(table: u32, col: u16) -> Index {
        let t = TableId(table);
        Index::new(t, [ColumnId::new(t, col)], [])
    }

    #[test]
    fn interner_is_content_addressed_and_stable() {
        let a = Interner::new();
        let b = Interner::new();
        let i = ix(1, 0);
        let s1 = a.index_sig(&i);
        let s2 = a.index_sig(&i.clone());
        assert_eq!(s1, s2);
        assert_eq!(a.len(), 1);
        // A fresh interner assigns the same signature: content, not order.
        b.index_sig(&ix(2, 3));
        assert_eq!(b.index_sig(&i), s1);
    }

    #[test]
    fn transform_sigs_distinguish_variants() {
        let it = Interner::new();
        let i1 = ix(1, 0);
        let i2 = ix(1, 1);
        let merge = it.transform_sig(&Transformation::MergeIndexes {
            i1: i1.clone(),
            i2: i2.clone(),
        });
        let split = it.transform_sig(&Transformation::SplitIndexes {
            i1: i1.clone(),
            i2: i2.clone(),
        });
        let remove = it.transform_sig(&Transformation::RemoveIndex { index: i1.clone() });
        let promote = it.transform_sig(&Transformation::PromoteToClustered { index: i1 });
        assert_ne!(merge, split);
        assert_ne!(remove, promote);
    }

    #[test]
    fn interner_snapshot_round_trips() {
        let it = Interner::new();
        let sigs: Vec<u64> = (0..5).map(|c| it.index_sig(&ix(1, c))).collect();
        let snap = it.snapshot();
        assert_eq!(snap.len(), 5);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
        let restored = Interner::new();
        restored.restore(snap.clone());
        assert_eq!(restored.snapshot(), snap);
        for (c, sig) in sigs.iter().enumerate() {
            assert_eq!(restored.index_sig(&ix(1, c as u16)), *sig);
        }
    }

    #[test]
    fn journals_hand_out_what_each_epoch_added() {
        let it = Interner::new();
        it.index_sig(&ix(9, 9));
        it.start_journal();
        let s2 = it.index_sig(&ix(1, 2));
        let s1 = it.index_sig(&ix(1, 1));
        it.index_sig(&ix(1, 2)); // a repeat sighting is not an insert
        it.seal(0);
        let late = it.index_sig(&ix(1, 0));
        assert_eq!(
            it.drain_through(0),
            vec![(ix(1, 1), s1), (ix(1, 2), s2)],
            "sorted by descriptor; nothing from before the journal or after the seal"
        );
        it.seal(1);
        assert_eq!(it.drain_through(1), vec![(ix(1, 0), late)]);

        let mut m = BoundMemo::new(4);
        m.insert(5, 50, BoundMemoEntry::inapplicable());
        m.start_journal();
        let e = |b: f64| BoundMemoEntry {
            applies: true,
            bound: b,
            delta_s: 0.0,
        };
        m.insert(9, 1 << 90, e(1.0));
        m.insert(2, 7, e(2.0));
        m.seal(0);
        m.insert(1, 7, e(3.0));
        let keys = |b: Vec<((u64, u128), BoundMemoEntry)>| -> Vec<(u64, u128)> {
            b.into_iter().map(|(k, _)| k).collect()
        };
        assert_eq!(keys(m.drain_through(0)), vec![(2, 7), (9, 1 << 90)]);
        m.seal(1);
        assert_eq!(keys(m.drain_through(1)), vec![(1, 7)]);
        assert_eq!(m.snapshot().len(), 4, "the store itself keeps everything");
    }

    #[test]
    fn memo_round_trips_entries() {
        let m = BoundMemo::new(1);
        assert!(m.lookup(1, 2).is_none());
        let e = BoundMemoEntry {
            applies: true,
            bound: 123.5,
            delta_s: -4.0,
        };
        m.insert(1, 2, e);
        assert_eq!(m.lookup(1, 2), Some(e));
        assert!(m.lookup(2, 1).is_none());
        let na = BoundMemoEntry::inapplicable();
        m.insert(3, 4, na);
        let got = m.lookup(3, 4).unwrap();
        assert!(!got.applies && got.bound.is_nan() && got.delta_s.is_nan());
        assert!(got.bits_eq(&na));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn memo_counters_move_only_via_record() {
        let m = BoundMemo::new(1);
        m.insert(1, 1, BoundMemoEntry::inapplicable());
        m.lookup(1, 1);
        m.lookup(9, 9);
        assert_eq!((m.hits(), m.misses()), (0, 0));
        m.record(2, 3);
        assert_eq!((m.hits(), m.misses()), (2, 3));
        m.set_counters(7, 1);
        assert_eq!((m.hits(), m.misses()), (7, 1));
    }

    #[test]
    fn memo_snapshot_is_sorted() {
        let m = BoundMemo::new(1);
        for k in [(9u64, 1u128), (1, 2), (1, 1 << 80), (4, 0)] {
            m.insert(
                k.0,
                k.1,
                BoundMemoEntry {
                    applies: true,
                    bound: k.0 as f64,
                    delta_s: 0.0,
                },
            );
        }
        let snap = m.snapshot();
        assert_eq!(snap.len(), 4);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn memo_snapshot_is_independent_of_shard_count_and_id_order() {
        let keys = [(9u64, 1u128), (1, 2), (1, 1 << 80), (4, 0), (1, 2)];
        let entry = |k: (u64, u128)| BoundMemoEntry {
            applies: true,
            bound: k.0 as f64,
            delta_s: -1.0,
        };
        let narrow = BoundMemo::new(1);
        let wide = BoundMemo::new(16);
        for k in keys {
            narrow.insert(k.0, k.1, entry(k));
        }
        // Reverse insertion order: configuration ids are assigned
        // differently, the portable dump is not.
        for k in keys.iter().rev() {
            wide.insert(k.0, k.1, entry(*k));
        }
        assert_eq!(narrow.len(), 4);
        assert_eq!(narrow.lookup(1, 1 << 80).unwrap().bound, 1.0);
        assert!(narrow.lookup(1, 3).is_none());
        assert_eq!(narrow.snapshot(), wide.snapshot());
    }

    #[test]
    fn memo_cfg_keys_are_stable_and_keyed_lookups_agree() {
        let m = BoundMemo::new(1);
        let k1 = m.cfg_key(0xDEAD_BEEF);
        let k2 = m.cfg_key(0xFEED_FACE);
        assert_ne!(k1, k2);
        // Resolving the same signature again yields the same dense id.
        assert_eq!(m.cfg_key(0xDEAD_BEEF), k1);
        let e = BoundMemoEntry::inapplicable();
        m.insert_keyed(7, k1, e);
        // Keyed and portable-sig lookups address the same slot.
        assert!(m.lookup_keyed(7, k1).unwrap().bits_eq(&e));
        assert!(m.lookup(7, 0xDEAD_BEEF).unwrap().bits_eq(&e));
        assert!(m.lookup_keyed(7, k2).is_none());
    }

    #[test]
    fn memo_concurrent_use_is_safe() {
        let m = BoundMemo::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..250u64 {
                        let e = BoundMemoEntry {
                            applies: true,
                            bound: (t * 1000 + i) as f64,
                            delta_s: 0.0,
                        };
                        m.insert(t * 1000 + i, u128::from(i % 7), e);
                        assert_eq!(m.lookup(t * 1000 + i, u128::from(i % 7)), Some(e));
                    }
                });
            }
        });
        assert_eq!(m.len(), 1000);
    }
}
