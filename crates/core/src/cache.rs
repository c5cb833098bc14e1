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
//! On a keyed miss, [`EntryStore::plan_probe`] offers INUM-style plan
//! reuse: another entry for the same query whose plan provably survives
//! under the probing configuration (its footprint intact, no pinned
//! structure lost, no *new* relevant structure present) can be
//! re-priced instead of invoking the optimizer.
//!
//! Callers must follow a commit-on-success protocol: look entries up
//! freely, but buffer new entries and hit/miss tallies locally and
//! [`EntryStore::insert`]/[`CostCache::record`] them only after the
//! whole evaluation succeeds. Shortcut-aborted evaluations then leave
//! no trace, which keeps cache contents, counters, and the downstream
//! `optimizer_calls` totals independent of thread count and scheduling.
//!
//! Commit-on-success keeps counters deterministic, but it also means a
//! shortcut-aborted evaluation's plan searches are repaid in full the
//! next time the search probes the same projection. The *invocation
//! store* ([`CostCache::invocations`]) recovers that work without
//! touching determinism: every real optimizer answer is recorded
//! immediately, keyed exactly like the cost cache, and served on later
//! keyed misses in derived mode. Because the stored value is a pure
//! function of the key (the optimizer is deterministic over the
//! projected configuration), serving it is bitwise identical to
//! re-invoking the optimizer — so which probes happen to be served
//! (which *is* scheduling-dependent under parallel scoring) can never
//! leak into costs, counters, traces, or checkpoints. Only the
//! process-global real-invocation count drops. The store is never
//! checkpointed and the `Reference::Costs` oracle never reads it.
//!
//! Both stores are [`EntryStore`]s — flat open-addressed tables behind
//! sharded locks (DESIGN.md §13) — and every serving tier answers
//! through the one `probe_chain`: exact key, then plan probe, then
//! re-pricing.
//!
//! [`Configuration::signature_for_tables128`]: pdt_physical::Configuration::signature_for_tables128

use crate::arena::{sort_batch, Sharded};
use crate::derived::{sorted_subset, Projection};
use pdt_opt::IndexUsage;
use pdt_physical::Configuration;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// A sharded store of what-if answers: a [`Sharded`] table keyed by
/// `(query as u32, projection signature)` and probed by the signature's
/// own bits (it is already a hash).
///
/// [`CostCache`] holds two of these — the committed entries and the
/// invocation store — so both are probed by the same three methods.
#[derive(Debug)]
pub struct EntryStore {
    table: Sharded<(u32, u128), CacheEntry>,
}

impl EntryStore {
    fn new(workers: usize) -> EntryStore {
        EntryStore {
            table: Sharded::new(workers),
        }
    }

    pub fn lookup(&self, query: usize, signature: u128) -> Option<CacheEntry> {
        self.table.get((query as u32, signature))
    }

    pub fn insert(&self, query: usize, signature: u128, entry: CacheEntry) {
        self.table.insert((query as u32, signature), entry);
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
    /// signature wins, making the result independent of shard and slot
    /// iteration order — though all servable entries carry bitwise-equal
    /// answers.
    pub fn plan_probe(&self, query: usize, proj: &Projection) -> Option<CacheEntry> {
        let mut best = None;
        self.table.for_each_table(|table| {
            scan_servable(
                proj,
                table
                    .iter()
                    .filter(|((q, _), _)| *q as usize == query)
                    .map(|((_, sig), e)| (*sig, e)),
                &mut best,
            );
        });
        best.map(|(_, e)| e)
    }

    /// `probe_chain` over this store.
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

    fn len(&self) -> usize {
        self.table.len()
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

/// The probe sequence every serving tier (committed cache, invocation
/// store, daemon-wide shared store) answers through: the exact key
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
/// the best serve so far. [`EntryStore`] and the daemon's shared
/// invocation store ([`crate::shared`]) both call this per table, so
/// the servability predicate (see [`EntryStore::plan_probe`] for the
/// derivation) and the smallest-signature winner rule exist exactly
/// once.
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

/// Concurrent cost memo shared by every evaluation in a tuning session.
#[derive(Debug)]
pub struct CostCache {
    /// Committed entries: written only at an evaluation's commit point,
    /// checkpointed, counted.
    pub committed: EntryStore,
    /// Uncommitted real optimizer answers, keyed exactly like
    /// `committed`: the full entry the plan search produced, recorded
    /// at invocation time (even inside evaluations that later abort) —
    /// the value is a pure function of the key, so racing writers are
    /// idempotent and early visibility cannot perturb any deterministic
    /// state. Every servable donor carries the bitwise-identical
    /// answer, so the timing-dependent contents decide only *whether* a
    /// real call is saved, never what any deterministic state observes.
    /// Purely a real-invocation saver — see the module docs.
    pub invocations: EntryStore,
    hits: AtomicU64,
    misses: AtomicU64,
    avoided: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    repriced: AtomicU64,
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

impl Default for CostCache {
    fn default() -> Self {
        Self::new()
    }
}

impl CostCache {
    /// A cache sharded for one worker; see [`CostCache::with_workers`].
    pub fn new() -> Self {
        Self::with_workers(1)
    }

    /// A cache sharded for `workers` concurrent scorers.
    pub fn with_workers(workers: usize) -> Self {
        CostCache {
            committed: EntryStore::new(workers),
            invocations: EntryStore::new(workers),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            avoided: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            repriced: AtomicU64::new(0),
        }
    }

    /// Commit the hit/miss tallies of one successful evaluation.
    pub fn record(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Commit one evaluation's derived-costing tallies.
    pub fn record_derived(&self, tally: DerivedTally) {
        self.avoided.fetch_add(tally.avoided, Ordering::Relaxed);
        self.plan_hits.fetch_add(tally.plan_hits, Ordering::Relaxed);
        self.plan_misses
            .fetch_add(tally.plan_misses, Ordering::Relaxed);
        self.repriced.fetch_add(tally.repriced, Ordering::Relaxed);
    }

    /// [`CostCache::record`], mirrored into trace counters and a
    /// `cache.commit` event. Callers must invoke this only from the
    /// thread driving the evaluation (the commit point), so the running
    /// totals in the event are deterministic.
    pub fn record_traced(&self, hits: u64, misses: u64, tracer: Option<&pdt_trace::Tracer>) {
        self.record(hits, misses);
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
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn avoided(&self) -> u64 {
        self.avoided.load(Ordering::Relaxed)
    }

    pub fn plan_hits(&self) -> u64 {
        self.plan_hits.load(Ordering::Relaxed)
    }

    pub fn plan_misses(&self) -> u64 {
        self.plan_misses.load(Ordering::Relaxed)
    }

    pub fn repriced(&self) -> u64 {
        self.repriced.load(Ordering::Relaxed)
    }

    /// Committed entries; the invocation store is not counted.
    pub fn len(&self) -> usize {
        self.committed.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Overwrite the hit/miss tallies; used when restoring a cache from
    /// a checkpoint so counters continue from the checkpointed values.
    pub fn set_counters(&self, hits: u64, misses: u64) {
        self.hits.store(hits, Ordering::Relaxed);
        self.misses.store(misses, Ordering::Relaxed);
    }

    /// Overwrite the derived tallies (checkpoint restore).
    pub fn set_derived_counters(&self, tally: DerivedTally) {
        self.avoided.store(tally.avoided, Ordering::Relaxed);
        self.plan_hits.store(tally.plan_hits, Ordering::Relaxed);
        self.plan_misses.store(tally.plan_misses, Ordering::Relaxed);
        self.repriced.store(tally.repriced, Ordering::Relaxed);
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

    /// Every committed entry, sorted by key (independent of shard
    /// count and slot order): what the folded checkpoint log of a
    /// session must add up to.
    pub fn snapshot(&self) -> Vec<((usize, u128), CacheEntry)> {
        let mut out: Vec<((usize, u128), CacheEntry)> = Vec::new();
        self.committed.table.for_each_table(|table| {
            out.extend(
                table
                    .iter()
                    .map(|((q, sig), v)| ((*q as usize, *sig), v.clone())),
            );
        });
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Journal committed inserts from here on (a session with a
    /// checkpoint sink; see [`Sharded::start_journal`]). The invocation
    /// store is never checkpointed and never journaled.
    pub fn start_journal(&mut self) {
        self.committed.table.start_journal();
    }

    /// Close journal epoch `epoch` at a clean iteration boundary.
    pub fn seal(&self, epoch: u32) {
        self.committed.table.seal(epoch);
    }

    /// The entries committed in epochs `..= epoch` and not yet handed
    /// out, sorted by key — one checkpoint record's `cache` section.
    pub fn drain_through(&self, epoch: u32) -> Vec<((usize, u128), CacheEntry)> {
        let mut batch: Vec<((usize, u128), CacheEntry)> = self
            .committed
            .table
            .drain_through(epoch)
            .into_iter()
            .map(|((q, sig), e)| ((q as usize, sig), e))
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
        assert!(cache.committed.lookup(0, 42).is_none());
        cache.committed.insert(0, 42, entry(7.5));
        assert_eq!(cache.committed.lookup(0, 42).unwrap().cost, 7.5);
        // Distinct query, same signature: a different key.
        assert!(cache.committed.lookup(1, 42).is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn wide_signatures_do_not_collide_per_shard() {
        // Keys differing only in their high 64 bits are distinct — the
        // collision the 64-bit keying could not express.
        let cache = CostCache::new();
        let lo = 0xDEAD_BEEFu128;
        let hi = lo | (1u128 << 100);
        cache.committed.insert(0, lo, entry(1.0));
        cache.committed.insert(0, hi, entry(2.0));
        assert_eq!(cache.committed.lookup(0, lo).unwrap().cost, 1.0);
        assert_eq!(cache.committed.lookup(0, hi).unwrap().cost, 2.0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn counters_accumulate_only_via_record() {
        let cache = CostCache::new();
        cache.committed.lookup(0, 1);
        cache.committed.lookup(0, 1);
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        cache.record(3, 2);
        cache.record(1, 0);
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
        cache.committed.insert(3, 9, entry(3.0));
        cache.committed.insert(0, 7, entry(1.0));
        cache.committed.insert(0, 2, entry(2.0));
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
        cache
            .committed
            .insert(7, 100, derived_entry(5.0, &[1, 2, 3], &[2], &[1]));

        // Probe relevant {1,2}: subset, footprint intact, pinned 1 kept.
        assert_eq!(
            cache.committed.plan_probe(7, &proj(&[1, 2])).unwrap().cost,
            5.0
        );
        // Probe relevant {2,3}: lost structure 1, which is pinned.
        assert!(cache.committed.plan_probe(7, &proj(&[2, 3])).is_none());
        // Probe relevant {1,3}: the plan's footprint {2} is gone.
        assert!(cache.committed.plan_probe(7, &proj(&[1, 3])).is_none());
        // Probe relevant {1,2,4}: structure 4 is new — the cached
        // optimization never considered it, so nothing is servable.
        assert!(cache.committed.plan_probe(7, &proj(&[1, 2, 4])).is_none());
        // Wrong query: nothing.
        assert!(cache.committed.plan_probe(8, &proj(&[1, 2])).is_none());
    }

    #[test]
    fn plan_probe_skips_poison_and_picks_deterministically() {
        let cache = CostCache::new();
        cache
            .committed
            .insert(7, 200, derived_entry(f64::NAN, &[1, 2, 3], &[], &[]));
        assert!(cache.committed.plan_probe(7, &proj(&[1])).is_none());
        // Two servable entries: the smaller key signature wins.
        cache
            .committed
            .insert(7, 150, derived_entry(4.0, &[1, 2], &[], &[]));
        cache
            .committed
            .insert(7, 90, derived_entry(4.0, &[1, 3], &[], &[]));
        assert_eq!(
            cache.committed.plan_probe(7, &proj(&[1])).unwrap().cost,
            4.0
        );
        let served = cache.committed.plan_probe(7, &proj(&[1])).unwrap();
        assert_eq!(served.relevant.as_ref(), &[1, 3]);
    }

    #[test]
    fn invocation_store_is_separate_from_the_committed_cache() {
        let cache = CostCache::new();
        // Recorded at invocation time, before any commit.
        cache
            .invocations
            .insert(3, 55, derived_entry(9.0, &[1, 2], &[2], &[]));
        assert_eq!(cache.invocations.lookup(3, 55).unwrap().cost, 9.0);
        // Invisible to committed lookups (and vice versa).
        assert!(cache.committed.lookup(3, 55).is_none());
        cache.committed.insert(3, 77, entry(1.0));
        assert!(cache.invocations.lookup(3, 77).is_none());
        // Wrong query or signature: nothing.
        assert!(cache.invocations.lookup(4, 55).is_none());
        assert!(cache.invocations.lookup(3, 56).is_none());
        // Plan probing over the store follows the same survival rules
        // as the committed cache: subset relevant + intact footprint.
        assert_eq!(
            cache
                .invocations
                .plan_probe(3, &proj(&[1, 2]))
                .unwrap()
                .cost,
            9.0
        );
        assert!(cache.invocations.plan_probe(3, &proj(&[1])).is_none());
        // Never part of snapshots (checkpoints must not carry it).
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.snapshot().len(), 1);
    }

    #[test]
    fn concurrent_use_is_safe() {
        let cache = CostCache::with_workers(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..250usize {
                        cache.committed.insert(i, t as u128, entry(i as f64));
                        assert_eq!(cache.committed.lookup(i, t as u128).unwrap().cost, i as f64);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 1000);
    }
}
