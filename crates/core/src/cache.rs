//! Shared what-if cost cache with derived-costing support.
//!
//! The search asks the optimizer the same what-if question over and
//! over: "what does query `q` cost under configuration `C`?" Distinct
//! search nodes frequently agree on the part of the configuration a
//! given query can see, so the cache is keyed by `(query index,
//! 128-bit projected-configuration signature)`. Sessions key by the
//! query's *relevant* structure subset (see [`crate::derived`]) — far
//! finer than the per-table projection, so relaxations that only touch
//! structures a query cannot use are guaranteed hits. Callers without
//! a relevance table key by [`Configuration::signature_for_tables128`].
//!
//! On a keyed miss, [`CostCache::plan_probe`] offers INUM-style plan
//! reuse: another entry for the same query whose plan provably survives
//! under the probing configuration (its footprint intact, no pinned
//! structure lost, no *new* relevant structure present) can be
//! re-priced instead of invoking the optimizer.
//!
//! Every answer is inserted the moment it exists — a real optimizer
//! answer when it arrives, a plan-reuse serve when it is re-priced —
//! even inside an evaluation the §3.5 shortcut later aborts. The stored
//! value is a pure function of the key (the optimizer is deterministic
//! over the projected configuration), so inserting early never changes
//! a cost, only whether a later probe hits. The hit/miss tallies wait
//! for an evaluation's commit point ([`CostCache::record_traced`]), so
//! the logical counters (`cache_hits`, `cache_misses`, the report's
//! `optimizer_calls`) count exactly the evaluations the search kept.
//!
//! The cache is one flat open-addressed table (DESIGN.md §13), owned by
//! the session's one thread, and every serving tier answers through the
//! one `probe_chain`: exact key, then plan probe, then re-pricing.
//!
//! [`Configuration::signature_for_tables128`]: pdt_physical::Configuration::signature_for_tables128

use crate::arena::{sort_batch, ProbeTable};
use crate::derived::{sorted_subset, Projection};
use pdt_opt::IndexUsage;
use pdt_physical::Configuration;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// A memoized what-if answer: the optimizer's cost for one query under
/// one (projected) configuration, plus the plan's index usages so
/// incremental evaluation can keep reasoning about removed structures.
///
/// The three signature sets drive derived costing; they are empty for
/// callers that key coarsely (no relevance table), which disables plan
/// reuse from those entries without affecting plain keyed lookups.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    pub cost: f64,
    pub usages: Arc<[IndexUsage]>,
    /// Coarse per-table projection signature of the inserting
    /// configuration. A keyed hit whose stored coarse differs from the
    /// probe's is a hit the coarse-keyed engine would have missed.
    pub coarse: u128,
    /// Sorted per-structure signatures of the query-relevant subset at
    /// insert time.
    pub relevant: Arc<[u128]>,
    /// Sorted per-structure signatures the cached plan actually uses
    /// (indexes, plus the views they sit on). Always a subset of
    /// `relevant`.
    pub footprint: Arc<[u128]>,
    /// Relevant structures whose removal can *add* candidate plans
    /// (clustered indexes) or change view matching (views); plan reuse
    /// refuses to serve when one of these disappeared.
    pub pinned: Arc<[u128]>,
}

impl CacheEntry {
    /// A corrupt cost (non-finite or negative): never served, repaired
    /// as a miss by the evaluation that finds it.
    pub fn is_poisoned(&self) -> bool {
        !(self.cost.is_finite() && self.cost >= 0.0)
    }

    /// A coarse-keyed entry with no derived metadata.
    pub fn plain(cost: f64, usages: Arc<[IndexUsage]>, coarse: u128) -> CacheEntry {
        CacheEntry {
            cost,
            usages,
            coarse,
            relevant: Vec::new().into(),
            footprint: Vec::new().into(),
            pinned: Vec::new().into(),
        }
    }
}

/// How a probe tier answered; see [`probe_chain`].
#[derive(Debug)]
pub(crate) enum Served {
    /// The entry stored under the exact key, as stored.
    Exact(CacheEntry),
    /// Another entry's surviving plan, re-priced under the probing
    /// configuration.
    Repriced(CacheEntry),
}

impl Served {
    pub(crate) fn into_entry(self) -> CacheEntry {
        match self {
            Served::Exact(e) | Served::Repriced(e) => e,
        }
    }
}

/// The probe sequence every serving tier (the session's cost cache,
/// the daemon-wide shared store) answers through: the exact key
/// first, then — given a relevance projection — a plan probe whose
/// winner is re-priced under `config`. `None` on any gap, including a
/// re-pricing refusal (unreachable if the signature-level survival
/// checks are right; a failed probe for safety).
pub(crate) fn probe_chain(
    exact: impl FnOnce() -> Option<CacheEntry>,
    plan_probe: impl FnOnce(&Projection) -> Option<CacheEntry>,
    proj: Option<&Projection>,
    config: &Configuration,
) -> Option<Served> {
    if let Some(e) = exact() {
        return Some(Served::Exact(e));
    }
    let e = plan_probe(proj?)?;
    let cost = pdt_opt::reprice_plan(e.cost, &e.usages, config)?;
    Some(Served::Repriced(CacheEntry { cost, ..e }))
}

/// The plan-reuse scan shared by every store that holds
/// [`CacheEntry`]s: fold one table's entries for the probed query into
/// the best serve so far. [`CostCache`] and the daemon's shared store
/// ([`crate::shared`]) both call this per table, so the servability
/// predicate (see [`CostCache::plan_probe`] for the derivation) and the
/// smallest-signature winner rule exist exactly once.
pub(crate) fn scan_servable<'a>(
    proj: &Projection,
    entries: impl Iterator<Item = (u128, &'a CacheEntry)>,
    best: &mut Option<(u128, CacheEntry)>,
) {
    for (sig, e) in entries {
        let servable = !e.is_poisoned()
            && sorted_subset(&proj.relevant, &e.relevant)
            && sorted_subset(&e.footprint, &proj.relevant)
            && !e
                .relevant
                .iter()
                .filter(|s| proj.relevant.binary_search(s).is_err())
                .any(|s| e.pinned.binary_search(s).is_ok());
        if servable && best.as_ref().is_none_or(|(bs, _)| sig < *bs) {
            *best = Some((sig, e.clone()));
        }
    }
}

/// `(query as u32, projection signature)`.
type StoreKey = (u32, u128);

/// Cost memo shared by every evaluation in a tuning session: one
/// [`ProbeTable`] keyed by `(query as u32, projection signature)` and
/// probed by the signature's own bits (it is already a hash), plus the
/// logical counters the evaluations commit.
///
/// A session with a checkpoint sink also *journals* the cache
/// ([`CostCache::start_journal`]): every insert is appended to the
/// journal with the current epoch. The driver closes an epoch at each
/// clean iteration boundary ([`CostCache::seal`] — the whole cost of a
/// boundary mark) and a checkpoint record takes everything up to a
/// sealed epoch ([`CostCache::drain_through`]), so what a record writes
/// is what was inserted since the previous one, never the whole cache.
/// Without a sink nothing is kept.
#[derive(Debug, Default)]
pub struct CostCache {
    table: RefCell<ProbeTable<StoreKey, CacheEntry>>,
    /// Per query, the signatures it has an entry under: what a plan
    /// probe scans. Built by [`insert`](Self::insert) — so a checkpoint
    /// restore, which inserts every entry, rebuilds it — and never
    /// serialized.
    keys: RefCell<QueryKeys>,
    /// Inserts not yet handed to a checkpoint record, tagged with the
    /// epoch they were made in.
    journal: RefCell<Vec<(u32, StoreKey, CacheEntry)>>,
    /// The epoch inserts are tagged with; `None` = not journaling.
    epoch: Cell<Option<u32>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    avoided: Cell<u64>,
    plan_hits: Cell<u64>,
    plan_misses: Cell<u64>,
    repriced: Cell<u64>,
}

/// Every key of a cache, each once, threaded into one list per query
/// through a single arena, newest first: the lists cost one growing
/// `Vec` between them, not one per query.
#[derive(Debug, Default)]
struct QueryKeys {
    /// `(signature, the previous link of the same query)`.
    links: Vec<(u128, u32)>,
    /// Per query, its newest link (`NONE`: no key yet).
    heads: Vec<u32>,
}

impl QueryKeys {
    const NONE: u32 = u32::MAX;

    fn push(&mut self, query: usize, signature: u128) {
        if self.heads.len() <= query {
            self.heads.resize(query + 1, Self::NONE);
        }
        self.links.push((signature, self.heads[query]));
        self.heads[query] = (self.links.len() - 1) as u32;
    }

    /// `query`'s signatures, newest first.
    fn of(&self, query: usize) -> impl Iterator<Item = u128> + '_ {
        let mut at = self.heads.get(query).copied().unwrap_or(Self::NONE);
        std::iter::from_fn(move || {
            let (sig, prev) = *self.links.get(at as usize)?;
            at = prev;
            Some(sig)
        })
    }
}

/// One evaluation's derived-costing tallies, committed alongside the
/// hit/miss counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DerivedTally {
    /// Optimizer calls the derived layer made unnecessary: beyond-coarse
    /// keyed hits plus plan-reuse serves.
    pub avoided: u64,
    /// Keyed misses served by plan reuse.
    pub plan_hits: u64,
    /// Keyed misses where the plan probe found nothing servable.
    pub plan_misses: u64,
    /// Plan-reuse serves that re-priced a non-empty footprint.
    pub repriced: u64,
}

fn bump(counter: &Cell<u64>, by: u64) {
    counter.set(counter.get() + by);
}

impl CostCache {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn lookup(&self, query: usize, signature: u128) -> Option<CacheEntry> {
        self.table.borrow().get((query as u32, signature)).cloned()
    }

    /// Insert or overwrite (see [`ProbeTable::insert`]).
    pub fn insert(&self, query: usize, signature: u128, entry: CacheEntry) {
        let key = (query as u32, signature);
        if let Some(epoch) = self.epoch.get() {
            self.journal.borrow_mut().push((epoch, key, entry.clone()));
        }
        let mut table = self.table.borrow_mut();
        if table.get(key).is_none() {
            self.keys.borrow_mut().push(query, signature);
        }
        table.insert(key, entry);
    }

    /// Plan reuse (§3.3.2 local re-pricing): after a keyed miss at
    /// projection `proj`, find another entry for `query` whose cached
    /// plan provably stays optimal under `proj`:
    ///
    /// * `proj.relevant ⊆ entry.relevant` — the probe offers no
    ///   structure the cached optimization did not already consider, so
    ///   no new candidate plan can exist;
    /// * `entry.footprint ⊆ proj.relevant` — every structure the plan
    ///   touches survives, so the plan itself is still executable at
    ///   its cached cost;
    /// * nothing in `entry.relevant \ proj.relevant` is pinned —
    ///   removals only deleted losing candidates, never enabled new
    ///   ones (dropping a clustered index would swap in a heap scan).
    ///
    /// Poisoned entries (non-finite or negative cost) are never served.
    /// Among multiple servable entries the one with the smallest key
    /// signature wins, making the result independent of slot and insert
    /// order — though all servable entries carry bitwise-equal answers.
    /// Only `query`'s own entries are read, through its key list.
    pub fn plan_probe(&self, query: usize, proj: &Projection) -> Option<CacheEntry> {
        let table = self.table.borrow();
        let keys = self.keys.borrow();
        let entries = keys.of(query).map(|sig| {
            let e = table.get((query as u32, sig));
            (sig, e.expect("a listed key is stored"))
        });
        let mut best = None;
        scan_servable(proj, entries, &mut best);
        best.map(|(_, e)| e)
    }

    /// `probe_chain` over this cache.
    pub(crate) fn probe(
        &self,
        query: usize,
        signature: u128,
        proj: Option<&Projection>,
        config: &Configuration,
    ) -> Option<Served> {
        probe_chain(
            || self.lookup(query, signature),
            |p| self.plan_probe(query, p),
            proj,
            config,
        )
    }

    /// Commit one evaluation's derived-costing tallies.
    pub fn record_derived(&self, tally: DerivedTally) {
        bump(&self.avoided, tally.avoided);
        bump(&self.plan_hits, tally.plan_hits);
        bump(&self.plan_misses, tally.plan_misses);
        bump(&self.repriced, tally.repriced);
    }

    /// Commit the hit/miss tallies of one successful evaluation,
    /// mirrored into trace counters and a `cache.commit` event.
    pub fn record_traced(&self, hits: u64, misses: u64, tracer: Option<&pdt_trace::Tracer>) {
        bump(&self.hits, hits);
        bump(&self.misses, misses);
        if let Some(t) = tracer {
            t.incr("cache.hits", hits);
            t.incr("cache.misses", misses);
            t.emit(
                "cache.commit",
                vec![
                    ("hits", hits.into()),
                    ("misses", misses.into()),
                    ("total_hits", self.hits().into()),
                    ("total_misses", self.misses().into()),
                ],
            );
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    pub fn avoided(&self) -> u64 {
        self.avoided.get()
    }

    pub fn plan_hits(&self) -> u64 {
        self.plan_hits.get()
    }

    pub fn plan_misses(&self) -> u64 {
        self.plan_misses.get()
    }

    pub fn repriced(&self) -> u64 {
        self.repriced.get()
    }

    pub fn len(&self) -> usize {
        self.table.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Overwrite the hit/miss tallies; used when restoring a cache from
    /// a checkpoint so counters continue from the checkpointed values.
    pub fn set_counters(&self, hits: u64, misses: u64) {
        self.hits.set(hits);
        self.misses.set(misses);
    }

    /// Overwrite the derived tallies (checkpoint restore).
    pub fn set_derived_counters(&self, tally: DerivedTally) {
        self.avoided.set(tally.avoided);
        self.plan_hits.set(tally.plan_hits);
        self.plan_misses.set(tally.plan_misses);
        self.repriced.set(tally.repriced);
    }

    /// The current derived tallies, as one value.
    pub fn derived_counters(&self) -> DerivedTally {
        DerivedTally {
            avoided: self.avoided(),
            plan_hits: self.plan_hits(),
            plan_misses: self.plan_misses(),
            repriced: self.repriced(),
        }
    }

    /// Every entry, sorted by key (independent of slot order): what the
    /// folded checkpoint log of a session must add up to.
    pub fn snapshot(&self) -> Vec<((usize, u128), CacheEntry)> {
        let mut out: Vec<((usize, u128), CacheEntry)> = self
            .table
            .borrow()
            .iter()
            .map(|((q, sig), v)| ((*q as usize, *sig), v.clone()))
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Journal every insert from here on, starting in epoch 0. Entries
    /// already present (a resumed session's restored state, which the
    /// log it resumed from already holds) are not journaled.
    pub fn start_journal(&mut self) {
        self.epoch.set(Some(0));
    }

    /// Close journal epoch `epoch` at a clean iteration boundary: later
    /// inserts belong to `epoch + 1`.
    pub fn seal(&self, epoch: u32) {
        if self.epoch.get().is_some() {
            self.epoch.set(Some(epoch + 1));
        }
    }

    /// Take every journaled insert of epochs `..= epoch`, sorted by key
    /// with the last insert of a key winning ([`sort_batch`]) — one
    /// checkpoint record's `cache` section.
    pub fn drain_through(&self, epoch: u32) -> Vec<((usize, u128), CacheEntry)> {
        let mut journal = self.journal.borrow_mut();
        let sealed = journal.partition_point(|(e, _, _)| *e <= epoch);
        let mut batch: Vec<((usize, u128), CacheEntry)> = journal
            .drain(..sealed)
            .map(|(_, (q, sig), e)| ((q as usize, sig), e))
            .collect();
        sort_batch(&mut batch);
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(cost: f64) -> CacheEntry {
        CacheEntry::plain(cost, Vec::new().into(), 0)
    }

    fn derived_entry(
        cost: f64,
        relevant: &[u128],
        footprint: &[u128],
        pinned: &[u128],
    ) -> CacheEntry {
        CacheEntry {
            cost,
            usages: Vec::new().into(),
            coarse: 0,
            relevant: relevant.to_vec().into(),
            footprint: footprint.to_vec().into(),
            pinned: pinned.to_vec().into(),
        }
    }

    fn proj(relevant: &[u128]) -> Projection {
        Projection {
            sig: relevant
                .iter()
                .fold(1u128, |a, s| a.wrapping_mul(31).wrapping_add(*s)),
            coarse: 0,
            relevant: relevant.to_vec().into(),
            pinned: Vec::new().into(),
        }
    }

    #[test]
    fn round_trips_entries() {
        let cache = CostCache::new();
        assert!(cache.lookup(0, 42).is_none());
        cache.insert(0, 42, entry(7.5));
        assert_eq!(cache.lookup(0, 42).unwrap().cost, 7.5);
        // Distinct query, same signature: a different key.
        assert!(cache.lookup(1, 42).is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn wide_signatures_do_not_collide() {
        // Keys differing only in their high 64 bits are distinct — the
        // collision the 64-bit keying could not express.
        let cache = CostCache::new();
        let lo = 0xDEAD_BEEFu128;
        let hi = lo | (1u128 << 100);
        cache.insert(0, lo, entry(1.0));
        cache.insert(0, hi, entry(2.0));
        assert_eq!(cache.lookup(0, lo).unwrap().cost, 1.0);
        assert_eq!(cache.lookup(0, hi).unwrap().cost, 2.0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn counters_accumulate_only_via_record() {
        let cache = CostCache::new();
        cache.lookup(0, 1);
        cache.lookup(0, 1);
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        cache.record_traced(3, 2, None);
        cache.record_traced(1, 0, None);
        assert_eq!((cache.hits(), cache.misses()), (4, 2));
        cache.record_derived(DerivedTally {
            avoided: 5,
            plan_hits: 2,
            plan_misses: 3,
            repriced: 1,
        });
        cache.record_derived(DerivedTally {
            avoided: 1,
            ..DerivedTally::default()
        });
        assert_eq!(
            cache.derived_counters(),
            DerivedTally {
                avoided: 6,
                plan_hits: 2,
                plan_misses: 3,
                repriced: 1,
            }
        );
    }

    #[test]
    fn snapshot_is_sorted_and_counters_restore() {
        let cache = CostCache::new();
        cache.insert(3, 9, entry(3.0));
        cache.insert(0, 7, entry(1.0));
        cache.insert(0, 2, entry(2.0));
        let snap = cache.snapshot();
        let keys: Vec<_> = snap.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![(0, 2), (0, 7), (3, 9)]);
        cache.set_counters(11, 4);
        assert_eq!((cache.hits(), cache.misses()), (11, 4));
        let tally = DerivedTally {
            avoided: 9,
            plan_hits: 8,
            plan_misses: 7,
            repriced: 6,
        };
        cache.set_derived_counters(tally);
        assert_eq!(cache.derived_counters(), tally);
    }

    #[test]
    fn plan_probe_serves_only_surviving_plans() {
        let cache = CostCache::new();
        // Entry optimized with relevant {1,2,3}, plan touches {2}.
        cache.insert(7, 100, derived_entry(5.0, &[1, 2, 3], &[2], &[1]));

        // Probe relevant {1,2}: subset, footprint intact, pinned 1 kept.
        assert_eq!(cache.plan_probe(7, &proj(&[1, 2])).unwrap().cost, 5.0);
        // Probe relevant {2,3}: lost structure 1, which is pinned.
        assert!(cache.plan_probe(7, &proj(&[2, 3])).is_none());
        // Probe relevant {1,3}: the plan's footprint {2} is gone.
        assert!(cache.plan_probe(7, &proj(&[1, 3])).is_none());
        // Probe relevant {1,2,4}: structure 4 is new — the cached
        // optimization never considered it, so nothing is servable.
        assert!(cache.plan_probe(7, &proj(&[1, 2, 4])).is_none());
        // Wrong query: nothing.
        assert!(cache.plan_probe(8, &proj(&[1, 2])).is_none());
    }

    #[test]
    fn plan_probe_skips_poison_and_picks_deterministically() {
        let cache = CostCache::new();
        cache.insert(7, 200, derived_entry(f64::NAN, &[1, 2, 3], &[], &[]));
        assert!(cache.plan_probe(7, &proj(&[1])).is_none());
        // Two servable entries: the smaller key signature wins.
        cache.insert(7, 150, derived_entry(4.0, &[1, 2], &[], &[]));
        cache.insert(7, 90, derived_entry(4.0, &[1, 3], &[], &[]));
        assert_eq!(cache.plan_probe(7, &proj(&[1])).unwrap().cost, 4.0);
        let served = cache.plan_probe(7, &proj(&[1])).unwrap();
        assert_eq!(served.relevant.as_ref(), &[1, 3]);
    }

    #[test]
    fn plan_probe_serves_what_a_scan_of_the_whole_cache_serves() {
        // The reference: every entry of the cache, filtered by query.
        fn full_scan(cache: &CostCache, query: usize, proj: &Projection) -> Option<CacheEntry> {
            let mut best = None;
            let table = cache.table.borrow();
            let entries = table.iter().filter(|((q, _), _)| *q as usize == query);
            scan_servable(proj, entries.map(|((_, sig), e)| (*sig, e)), &mut best);
            best.map(|(_, e)| e)
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for _ in 0..50 {
            let cache = CostCache::new();
            for step in 0..120 {
                // Few queries and signatures, so keys are overwritten
                // often — with another value, as a poison repair does.
                let query = next(4) as usize;
                let sig = u128::from(next(24)) << (next(2) * 64);
                let relevant: Vec<u128> = (1..=6).filter(|_| next(3) > 0).collect();
                let footprint: Vec<u128> =
                    relevant.iter().copied().filter(|_| next(2) == 0).collect();
                let pinned: Vec<u128> = relevant.iter().copied().filter(|_| next(4) == 0).collect();
                let cost = if next(10) == 0 { f64::NAN } else { step as f64 };
                cache.insert(
                    query,
                    sig,
                    derived_entry(cost, &relevant, &footprint, &pinned),
                );
                for probe_query in 0..5 {
                    let relevant: Vec<u128> = (1..=6).filter(|_| next(2) == 0).collect();
                    let p = proj(&relevant);
                    let (listed, scanned) = (
                        cache.plan_probe(probe_query, &p),
                        full_scan(&cache, probe_query, &p),
                    );
                    assert_eq!(
                        listed.map(|e| (e.cost.to_bits(), e.relevant)),
                        scanned.map(|e| (e.cost.to_bits(), e.relevant)),
                    );
                }
            }
            let keys = cache.keys.borrow();
            let listed: usize = (0..4).map(|q| keys.of(q).count()).sum();
            assert_eq!(listed, cache.len(), "one key per entry");
        }
    }

    #[test]
    fn journal_hands_out_sealed_epochs_once() {
        let mut cache = CostCache::new();
        cache.insert(0, 1, entry(1.0));
        assert!(cache.drain_through(0).is_empty(), "no journal, no cost");
        assert_eq!(cache.lookup(0, 1).unwrap().cost, 1.0);

        cache.start_journal();
        let cost = |batch: Vec<((usize, u128), CacheEntry)>| -> Vec<((usize, u128), f64)> {
            batch.into_iter().map(|(k, e)| (k, e.cost)).collect()
        };
        // Epoch 0: two keys, one of them overwritten.
        cache.insert(1, 7 << 100, entry(10.0));
        cache.insert(0, 9, entry(20.0));
        cache.insert(1, 7 << 100, entry(11.0));
        cache.seal(0);
        // Epoch 1 — inserted after the boundary, must not leak into
        // a record written for it.
        cache.insert(2, 3, entry(30.0));
        assert_eq!(
            cost(cache.drain_through(0)),
            vec![((0, 9), 20.0), ((1, 7 << 100), 11.0)]
        );
        assert!(cache.drain_through(0).is_empty(), "drained once");
        cache.seal(1);
        cache.insert(2, 4, entry(40.0));
        assert_eq!(cost(cache.drain_through(1)), vec![((2, 3), 30.0)]);
        // A record may cover several epochs at once.
        cache.seal(2);
        cache.insert(2, 5, entry(50.0));
        cache.seal(3);
        assert_eq!(
            cost(cache.drain_through(3)),
            vec![((2, 4), 40.0), ((2, 5), 50.0)]
        );
        assert_eq!(cache.len(), 6, "seven inserts, one of them an overwrite");
    }
}
