//! Cross-session shared what-if store.
//!
//! The daemon prices every tenant from scratch even when N tenants
//! tune the same schema and statistics; this module is the natural
//! cross-session layer on top of the per-session cost cache
//! (`cache.rs`): a concurrency-safe, bounded, content-addressed map
//! from *session-portable* keys to optimizer answers.
//!
//! # Key portability
//!
//! The per-session cache keys by `(query index, projection signature)`
//! — the query index is an artifact of one session's workload order,
//! so those keys cannot travel. Shared keys replace it with content:
//!
//! * **schema signature** — [`Tagged128`] over the catalog's content:
//!   the database name plus every table's debug rendering in id order
//!   (columns, row counts, widths, distinct counts). Two sessions
//!   share a namespace iff they tune the same catalog *and*
//!   statistics.
//! * **query signature** — [`Tagged128`] over the statement's SQL
//!   rendering, the same text `Workload::bind_weighted` dedups on.
//! * **relevant-subset signature** — the projection signature already
//!   used by the per-session cache: a pure function of the subset of
//!   configuration structures relevant to the query.
//!
//! The optimizer's answer is a pure function of that triple (the
//! derived-costing soundness property: a query's plan and cost depend
//! only on the schema and the relevant subset of the configuration),
//! so an entry recorded by tenant A is servable to tenant B whenever
//! the triple matches — and values being pure functions of the key is
//! what keeps every session's report and trace byte-identical to its
//! solo run. Debug builds cross-validate every cross-session serve
//! with a real optimizer call (the `stored` path in `eval.rs`).
//!
//! Like checkpoints and the warm-store file, signatures come from
//! `std`'s `DefaultHasher` and are stable only within one build; the
//! warm store embeds no cross-build contract beyond that.
//!
//! # Bounded memory: epoch/segment eviction
//!
//! Each shard holds two probe-table segments, `hot` and `cold`.
//! Inserts go to `hot`; when `hot` reaches its per-shard budget the
//! shard rotates — `cold` is dropped (evicted), `hot` becomes `cold`,
//! and a fresh `hot` starts. Lookups consult both segments, so every
//! entry survives at least one full epoch and at most two. Rotation
//! is O(1) and never scans, which keeps eviction off the serve path.

use crate::arena::{shard_count, shard_index, CachePadded, ProbeTable};
use crate::cache::{probe_chain, scan_servable, CacheEntry};
use crate::checkpoint::{entry_parse, get, unhex128, write_arr, write_entry_fields, write_hex128};
use crate::derived::Projection;
use parking_lot::RwLock;
use pdt_catalog::Database;
use pdt_physical::{Configuration, Tagged128};
use pdt_sql::Statement;
use std::sync::atomic::{AtomicU64, Ordering};

/// `(schema signature, query content signature, relevant-subset
/// signature)` — see the module docs for why this triple is portable
/// across sessions.
pub type SharedKey = (u128, u128, u128);

const WARM_VERSION: i64 = 1;
const WARM_KIND: &str = "pdtune-warm-store";

/// Default capacity (entries) when `--shared-store-cap` is not given.
pub const DEFAULT_SHARED_CAP: usize = 65_536;

/// Catalog+stats namespace signature: two sessions may share answers
/// only when their databases render identically (schema and
/// statistics both). Hashes the name plus every table's debug
/// rendering in id order — tables carry columns, row counts, widths,
/// and distributions, so any stats drift changes the namespace. (The
/// whole-`Database` rendering is unusable here: its name index is a
/// `HashMap`, whose order is not a function of content.)
///
/// Computed at most once per `Database` value (on first use, never at
/// catalog build) and remembered by the catalog; the bits are those of
/// [`schema_signature_uncached`], the definition.
pub fn schema_signature(db: &Database) -> u128 {
    db.memo_signature(schema_signature_uncached)
}

/// The formula behind [`schema_signature`], evaluated afresh.
pub fn schema_signature_uncached(db: &Database) -> u128 {
    let mut h = Tagged128::new();
    h.hash("pdtune-schema-v1");
    h.hash(&db.name);
    for t in db.tables() {
        h.hash(&format!("{t:?}"));
    }
    h.finish()
}

/// Content signature of one workload statement — hashes the SQL
/// rendering, the same text workload binding dedups on, so the
/// signature is independent of the statement's position in any
/// session's workload.
pub fn statement_signature(statement: &Statement) -> u128 {
    let mut h = Tagged128::new();
    h.hash("pdtune-query-v1");
    h.hash(&statement.to_string());
    h.finish()
}

/// One session's view of the daemon-wide store: the handle plus the
/// session's precomputed portable signatures (`query_sigs[i]` is the
/// content signature of workload entry `i`).
#[derive(Debug, Clone, Copy)]
pub struct SharedCtx<'c> {
    pub store: &'c SharedInvocationStore,
    pub schema_sig: u128,
    pub query_sigs: &'c [u128],
}

impl<'c> SharedCtx<'c> {
    /// The shared probe tier: `probe_chain` over this query's
    /// namespace. Returns `None` on any gap; the caller then pays a
    /// real optimizer call.
    pub(crate) fn probe(
        &self,
        query: usize,
        sig: u128,
        proj: Option<&Projection>,
        config: &Configuration,
    ) -> Option<CacheEntry> {
        let qsig = *self.query_sigs.get(query)?;
        let served = probe_chain(
            || self.store.lookup((self.schema_sig, qsig, sig)),
            |p| self.store.plan_probe(self.schema_sig, qsig, p),
            proj,
            config,
        );
        if served.is_none() {
            self.store.misses.fetch_add(1, Ordering::Relaxed);
        }
        served.map(|s| s.into_entry())
    }

    /// Record a real invocation's answer under its portable key.
    /// Idempotent: concurrent tenants can only overwrite with a
    /// bitwise-identical value (pure function of the key).
    pub(crate) fn record(&self, query: usize, sig: u128, entry: &CacheEntry) {
        if let Some(qsig) = self.query_sigs.get(query).copied() {
            self.store
                .insert((self.schema_sig, qsig, sig), entry.clone());
        }
    }
}

/// A shard's two eviction segments; see the module docs.
#[derive(Debug, Default)]
struct Segments {
    hot: ProbeTable<SharedKey, CacheEntry>,
    cold: ProbeTable<SharedKey, CacheEntry>,
}

/// Monotonic counters, exported through the daemon `stats` op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedStats {
    /// Entries currently resident (both segments, all shards).
    pub entries: u64,
    pub inserts: u64,
    /// Exact-key cross-session serves.
    pub hits: u64,
    /// Plan-probe cross-session serves.
    pub plan_hits: u64,
    /// Probes that found nothing servable.
    pub misses: u64,
    /// Entries dropped by segment rotation.
    pub evicted: u64,
}

/// The daemon-wide content-addressed what-if store, split into shards
/// for concurrent daemon slots (`CachePadded<RwLock<..>>` per shard so
/// adjacent locks do not false-share), bounded by [epoch/segment
/// eviction](self), and serialized to a warm-store file across daemon
/// restarts.
#[derive(Debug)]
pub struct SharedInvocationStore {
    shards: Vec<CachePadded<RwLock<Segments>>>,
    /// Per-shard, per-segment entry budget; total residency is bounded
    /// by `2 * segment_cap * shards.len()` ≈ the requested capacity.
    segment_cap: usize,
    inserts: AtomicU64,
    hits: AtomicU64,
    plan_hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
}

impl SharedInvocationStore {
    /// A store bounded at roughly `cap` entries, sharded for `workers`
    /// concurrent sessions.
    pub fn new(cap: usize, workers: usize) -> SharedInvocationStore {
        let n = shard_count(workers);
        SharedInvocationStore {
            shards: (0..n).map(|_| CachePadded::default()).collect(),
            segment_cap: (cap / (2 * n)).max(1),
            inserts: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: SharedKey) -> &RwLock<Segments> {
        &self.shards[shard_index(&key, self.shards.len())]
    }

    /// Exact-key probe across both segments.
    pub fn lookup(&self, key: SharedKey) -> Option<CacheEntry> {
        let seg = self.shard(key).read();
        let e = seg.hot.get(key).or_else(|| seg.cold.get(key)).cloned();
        if e.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        e
    }

    /// Insert under `key`, rotating the shard's segments at budget.
    /// Keys never straddle segments: an insert of a key still resident
    /// in `cold` re-homes it in `hot` (identical value).
    pub fn insert(&self, key: SharedKey, entry: CacheEntry) {
        let mut seg = self.shard(key).write();
        if seg.hot.get(key).is_none() && seg.hot.len() >= self.segment_cap {
            let dropped = std::mem::take(&mut seg.cold).len();
            seg.cold = std::mem::take(&mut seg.hot);
            self.evicted.fetch_add(dropped as u64, Ordering::Relaxed);
        }
        seg.hot.insert(key, entry);
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Plan-reuse probe over this `(schema, query)` namespace: the
    /// same [`scan_servable`] predicate and smallest-signature winner
    /// as the per-session stores, restricted to entries whose first
    /// two key components match.
    pub fn plan_probe(&self, schema: u128, qsig: u128, proj: &Projection) -> Option<CacheEntry> {
        let mut best = None;
        for shard in &self.shards {
            let seg = shard.read();
            for table in [&seg.hot, &seg.cold] {
                scan_servable(
                    proj,
                    table
                        .iter()
                        .filter(|((s, q, _), _)| *s == schema && *q == qsig)
                        .map(|((_, _, sig), e)| (*sig, e)),
                    &mut best,
                );
            }
        }
        let e = best.map(|(_, e)| e);
        if e.is_some() {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
        }
        e
    }

    pub fn stats(&self) -> SharedStats {
        let entries: usize = self
            .shards
            .iter()
            .map(|s| {
                let seg = s.read();
                // Disjoint by the re-homing rule in `insert`, except
                // for a cold copy shadowed by a hot re-insert; count
                // the hot segment plus unshadowed cold entries.
                seg.hot.len()
                    + seg
                        .cold
                        .iter()
                        .filter(|(k, _)| seg.hot.get(*k).is_none())
                        .count()
            })
            .sum();
        SharedStats {
            entries: entries as u64,
            inserts: self.inserts.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }

    /// Every resident entry, sorted by key (hot shadows cold), so
    /// equal stores serialize to equal bytes.
    fn snapshot(&self) -> Vec<(SharedKey, CacheEntry)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let seg = shard.read();
            out.extend(seg.hot.iter().cloned());
            out.extend(
                seg.cold
                    .iter()
                    .filter(|(k, _)| seg.hot.get(*k).is_none())
                    .cloned(),
            );
        }
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Serialize the store for the warm-store file. Deterministic:
    /// sorted by key, fixed field order.
    pub fn to_warm_json(&self) -> String {
        let mut out = format!("{{\"version\":{WARM_VERSION},\"kind\":\"{WARM_KIND}\",\"entries\":");
        write_arr(
            &mut out,
            self.snapshot(),
            |out, ((schema, qsig, sig), e)| {
                out.push_str("{\"schema\":");
                write_hex128(out, schema);
                out.push_str(",\"query\":");
                write_hex128(out, qsig);
                out.push_str(",\"sig\":");
                write_hex128(out, sig);
                out.push(',');
                write_entry_fields(out, &e);
                out.push('}');
            },
        );
        out.push('}');
        out
    }

    /// Load a warm-store dump into this store. All-or-nothing: the
    /// whole document parses before the first insert, so a truncated
    /// or corrupt file loads nothing and returns `Err` — the daemon
    /// logs it and cold-starts, it never refuses to boot.
    pub fn load_warm_json(&self, s: &str) -> Result<usize, String> {
        let doc = pdt_trace::json::parse(s)?;
        if get(&doc, "version")?.as_i64() != Some(WARM_VERSION) {
            return Err("unsupported warm-store version".to_string());
        }
        if get(&doc, "kind")?.as_str() != Some(WARM_KIND) {
            return Err("not a pdtune warm store".to_string());
        }
        let entries = get(&doc, "entries")?
            .as_arr()
            .ok_or("entries must be an array")?
            .iter()
            .map(|j| {
                let key = (
                    unhex128(get(j, "schema")?)?,
                    unhex128(get(j, "query")?)?,
                    unhex128(get(j, "sig")?)?,
                );
                Ok((key, entry_parse(j)?))
            })
            .collect::<Result<Vec<(SharedKey, CacheEntry)>, String>>()?;
        let n = entries.len();
        for (key, entry) in entries {
            self.insert(key, entry);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn entry(cost: f64, sig: u128) -> CacheEntry {
        CacheEntry {
            cost,
            usages: Vec::new().into(),
            coarse: sig,
            relevant: Arc::from([sig]),
            footprint: Arc::new([]),
            pinned: Arc::new([]),
        }
    }

    #[test]
    fn round_trips_and_counts() {
        let store = SharedInvocationStore::new(1024, 2);
        assert!(store.lookup((1, 2, 3)).is_none());
        store.insert((1, 2, 3), entry(42.0, 3));
        assert_eq!(store.lookup((1, 2, 3)).unwrap().cost, 42.0);
        assert!(store.lookup((1, 2, 4)).is_none());
        let s = store.stats();
        assert_eq!((s.entries, s.inserts, s.hits), (1, 1, 1));
    }

    #[test]
    fn plan_probe_is_namespaced_and_min_sig() {
        let store = SharedInvocationStore::new(1024, 2);
        let proj = Projection {
            sig: 7,
            coarse: 0,
            relevant: Arc::from([5u128]),
            pinned: Arc::new([]),
        };
        // Servable: proj.relevant ⊆ relevant, empty footprint.
        let mut e = entry(10.0, 5);
        e.relevant = Arc::from([5u128, 9u128]);
        store.insert((1, 2, 90), e.clone());
        store.insert(
            (1, 2, 80),
            CacheEntry {
                cost: 11.0,
                ..e.clone()
            },
        );
        // Wrong namespace (schema or query differs): never served.
        store.insert(
            (1, 3, 10),
            CacheEntry {
                cost: 9.0,
                ..e.clone()
            },
        );
        store.insert((4, 2, 10), CacheEntry { cost: 8.0, ..e });
        let served = store.plan_probe(1, 2, &proj).unwrap();
        assert_eq!(served.cost, 11.0, "smallest-signature entry wins");
        assert!(store.plan_probe(1, 9, &proj).is_none());
    }

    #[test]
    fn segment_rotation_bounds_residency() {
        // One shard pair budget of 4: cap 8 over shard_count(0)=8
        // shards gives segment_cap max(8/16,1)=1 — use explicit math.
        let store = SharedInvocationStore::new(64, 1);
        let n_shards = store.shards.len();
        let cap = store.segment_cap;
        for i in 0..10_000u128 {
            store.insert((i, i, i), entry(i as f64, i));
        }
        let s = store.stats();
        assert!(s.evicted > 0, "rotation must have evicted");
        assert!(
            (s.entries as usize) <= 2 * cap * n_shards,
            "residency {} exceeds bound {}",
            s.entries,
            2 * cap * n_shards
        );
        // Entries inserted after the last rotation are still served.
        assert!(store.lookup((9999, 9999, 9999)).is_some());
    }

    #[test]
    fn warm_store_round_trips_to_fixpoint() {
        let store = SharedInvocationStore::new(1024, 2);
        for i in 0..50u128 {
            let mut e = entry(i as f64, i);
            e.relevant = Arc::from([i, i + 1]);
            store.insert((1, i % 5, i), e);
        }
        let dump = store.to_warm_json();
        let restored = SharedInvocationStore::new(1024, 2);
        assert_eq!(restored.load_warm_json(&dump).unwrap(), 50);
        assert_eq!(
            restored.to_warm_json(),
            dump,
            "serialize∘load is a fixpoint"
        );
        assert_eq!(restored.lookup((1, 3, 3)).unwrap().cost, 3.0);
    }

    #[test]
    fn warm_store_rejects_truncated_and_corrupt() {
        let store = SharedInvocationStore::new(1024, 2);
        store.insert((1, 2, 3), entry(1.0, 3));
        let dump = store.to_warm_json();
        for bad in [
            "",
            "not json",
            "{}",
            "{\"version\":1,\"kind\":\"something-else\",\"entries\":[]}",
            "{\"version\":99,\"kind\":\"pdtune-warm-store\",\"entries\":[]}",
            &dump[..dump.len() / 2],
        ] {
            let fresh = SharedInvocationStore::new(1024, 2);
            assert!(fresh.load_warm_json(bad).is_err(), "accepted: {bad:?}");
            assert_eq!(fresh.stats().entries, 0, "partial load from {bad:?}");
        }
    }

    /// Deterministic byte-level fuzz of the warm-store load path:
    /// every prefix truncation and every single-byte corruption of a
    /// valid dump must either load cleanly (the mutation landed on a
    /// don't-care byte or produced a different-but-valid value) or be
    /// rejected wholesale — never panic, never leave a partial load.
    #[test]
    fn warm_store_load_survives_byte_fuzz() {
        let store = SharedInvocationStore::new(1024, 2);
        for i in 0..4u128 {
            store.insert((i, i + 1, i + 2), entry(1.5 * i as f64, i + 2));
        }
        let dump = store.to_warm_json();

        // Every proper prefix is rejected with nothing loaded.
        for cut in 0..dump.len() {
            let fresh = SharedInvocationStore::new(1024, 2);
            assert!(
                fresh.load_warm_json(&dump[..cut]).is_err(),
                "accepted a {cut}-byte prefix of a {}-byte dump",
                dump.len()
            );
            assert_eq!(fresh.stats().entries, 0, "partial load at cut {cut}");
        }

        // Single-byte corruptions: all-or-nothing, no panics.
        let bytes = dump.as_bytes();
        for (pos, overwrite) in (0..bytes.len()).flat_map(|p| [(p, b'X'), (p, b'0'), (p, b'}')]) {
            let mut mutated = bytes.to_vec();
            if mutated[pos] == overwrite {
                continue;
            }
            mutated[pos] = overwrite;
            let Ok(s) = std::str::from_utf8(&mutated) else {
                continue;
            };
            let fresh = SharedInvocationStore::new(1024, 2);
            match fresh.load_warm_json(s) {
                Ok(n) => assert!(n <= 4, "mutation at {pos} loaded {n} entries"),
                Err(_) => assert_eq!(
                    fresh.stats().entries,
                    0,
                    "rejected load at byte {pos} left residue"
                ),
            }
        }
    }

    #[test]
    fn signatures_depend_on_content_only() {
        use pdt_workloads::bench::{bench_database, BenchParams};
        let db1 = bench_database(&BenchParams::default());
        let db2 = bench_database(&BenchParams::default());
        assert_eq!(schema_signature(&db1), schema_signature(&db2));
        let other = bench_database(&BenchParams {
            seed: 99,
            ..BenchParams::default()
        });
        assert_ne!(schema_signature(&db1), schema_signature(&other));
    }
}
