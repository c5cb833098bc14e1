//! Derived what-if costing: per-query relevant-structure sets and
//! configuration projections (CoPhy-style atomic configurations).
//!
//! Every structure the optimizer could possibly use for a query is
//! predictable from the query text alone — the same information the
//! §2 instrumentation phase extracts as index/view requests. A
//! non-clustered index on a base table can only enter a plan as
//!
//! * a **seek** (or rid-intersection leg), which requires its leading
//!   key column to carry a sargable predicate — a range predicate or a
//!   join column (join params surface as `Sarg::Param` sargs on the
//!   inner side of index nested-loops joins); or
//! * a **covering scan**, which requires the index to cover every
//!   column the access path must produce. The actual request needs a
//!   superset of [`QueryBlock::required_columns`], so testing coverage
//!   of the required set alone over-approximates soundly.
//!
//! Clustered indexes are always candidates (they are the base scan),
//! and views (plus every index over them) are candidates exactly when
//! the optimizer's own view-matching test can succeed: the view's
//! definition must match the whole query, or the join sub-expression
//! over exactly the view's table set. That test
//! ([`pdt_physical::MaterializedView::try_match`]) depends only on the
//! view definition and the query — never on the rest of the
//! configuration — so it is decided once per `(query, view)` pair and
//! memoized. Everything else on the query's tables is *irrelevant*: it can never appear in any candidate
//! the access-path selector enumerates, so adding or removing it cannot
//! change the query's plan or cost. Two configurations with equal
//! relevant subsets therefore yield bitwise-identical optimizer
//! answers, which makes the relevant-subset signature a sound — and
//! much finer — what-if cache key than the coarse table projection.
//!
//! [`Configuration::signature_for_tables128`]: pdt_physical::Configuration::signature_for_tables128

use crate::workload::Workload;
use pdt_catalog::{ColumnId, Database, TableId};
use pdt_opt::QueryBlock;
use pdt_physical::{Configuration, MaterializedView, SpjgExpr, Tagged128};
use std::cell::{OnceCell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// What a single query can see: its tables, the columns that can carry
/// sargs on them, and the columns its plans must produce per table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRelevance {
    /// Tables in the query's FROM list.
    pub tables: BTreeSet<TableId>,
    /// Columns a seek could consume: range-predicate columns plus join
    /// columns (either side).
    pub sarg_cols: BTreeSet<ColumnId>,
    /// Per table, the columns needed above its access path
    /// ([`QueryBlock::required_columns`]); the covering-scan test.
    pub required: BTreeMap<TableId, BTreeSet<ColumnId>>,
}

/// The projection of one configuration onto one query's relevant
/// structures — everything the derived cache needs to key, validate,
/// and reuse a what-if answer.
#[derive(Debug, Clone)]
pub struct Projection {
    /// Relevant-subset signature: the tier-1 cache key.
    pub sig: u128,
    /// Coarse per-table projection signature. Stored with each cache
    /// entry; a tier-1 hit whose stored coarse differs from the current
    /// one is a hit the coarse-keyed engine would have missed.
    pub coarse: u128,
    /// Sorted per-structure signatures of the relevant subset.
    pub relevant: Arc<[u128]>,
    /// Relevant structures whose *removal* does not merely delete
    /// candidate plans: clustered indexes (removal swaps the base scan
    /// for a heap scan — a new candidate) and views (conservatively
    /// pinned). Plan reuse refuses entries that lost a pinned
    /// structure.
    pub pinned: Arc<[u128]>,
}

/// Per-workload-query relevance, computed once per tuning session.
#[derive(Debug, Clone, Default)]
pub struct RelevanceTable {
    per_query: Vec<Option<QueryRelevance>>,
    /// Per-query block and whole-query SPJG, kept alongside the rows to
    /// decide view matchability at projection time. Rebuilt from the
    /// workload on resume (never checkpointed — the rows above are the
    /// checkpointed consistency check).
    blocks: Vec<Option<(QueryBlock, SpjgExpr)>>,
    /// Memoized view-matchability verdicts, keyed by
    /// `(query, view signature)`: purely a cache of the deterministic
    /// [`MaterializedView::try_match`].
    view_memo: RefCell<HashMap<(usize, u128), bool>>,
    /// Dense id of each query's FROM table set: queries with equal
    /// table sets share an id, so the flat projector computes the
    /// coarse per-table signature once per *set* per configuration
    /// instead of once per query.
    set_ids: Vec<Option<u32>>,
    /// Number of distinct table sets (the id range).
    num_sets: usize,
}

impl RelevanceTable {
    /// Derive relevance for every SELECT-bearing workload entry.
    pub fn build(db: &Database, workload: &Workload) -> RelevanceTable {
        let mut blocks = Vec::with_capacity(workload.entries.len());
        let mut per_query = Vec::with_capacity(workload.entries.len());
        for e in &workload.entries {
            let Some(q) = &e.select else {
                blocks.push(None);
                per_query.push(None);
                continue;
            };
            let block = QueryBlock::from_bound(db, q);
            let tables: BTreeSet<TableId> = block.tables.iter().copied().collect();
            let mut sarg_cols: BTreeSet<ColumnId> =
                block.classified.ranges.iter().map(|r| r.column).collect();
            for j in &block.classified.joins {
                sarg_cols.insert(j.left);
                sarg_cols.insert(j.right);
            }
            let required = tables
                .iter()
                .map(|t| (*t, block.required_columns(*t)))
                .collect();
            let spjg = block.to_spjg();
            blocks.push(Some((block, spjg)));
            per_query.push(Some(QueryRelevance {
                tables,
                sarg_cols,
                required,
            }));
        }
        let mut sets: HashMap<&BTreeSet<TableId>, u32> = HashMap::new();
        let set_ids: Vec<Option<u32>> = per_query
            .iter()
            .map(|q| {
                q.as_ref().map(|qr| {
                    let next = sets.len() as u32;
                    *sets.entry(&qr.tables).or_insert(next)
                })
            })
            .collect();
        let num_sets = sets.len();
        RelevanceTable {
            per_query,
            blocks,
            view_memo: RefCell::default(),
            set_ids,
            num_sets,
        }
    }

    /// Dense table-set id of query `query` (queries sharing a FROM
    /// table set share an id); `None` for non-SELECT entries.
    pub fn set_id(&self, query: usize) -> Option<u32> {
        self.set_ids.get(query).copied().flatten()
    }

    /// The table-set id range for sizing per-set scratch.
    pub fn num_table_sets(&self) -> usize {
        self.num_sets
    }

    pub fn len(&self) -> usize {
        self.per_query.len()
    }

    pub fn is_empty(&self) -> bool {
        self.per_query.is_empty()
    }

    /// The checkpointable rows.
    pub fn rows(&self) -> &[Option<QueryRelevance>] {
        &self.per_query
    }

    /// Relevance of query `query` (None for entries without a SELECT).
    pub fn query(&self, query: usize) -> Option<&QueryRelevance> {
        self.per_query.get(query).and_then(|q| q.as_ref())
    }

    /// Can `view` ever participate in a plan for `query`? The optimizer
    /// considers a view in exactly two places, and both run the
    /// config-independent [`MaterializedView::try_match`]:
    ///
    /// * the whole-query rewrite, which requires the view's table set
    ///   to equal the query's and the match to succeed; and
    /// * the join-subset rewrite inside DP enumeration, which matches
    ///   views whose table set equals a join subset of two or more
    ///   tables against [`QueryBlock::spjg_for_subset`].
    ///
    /// A view failing both tests contributes no candidate to any plan
    /// for the query under any configuration, so it (and every index
    /// over it) is *irrelevant* — far sharper than the table-visibility
    /// rule, which keeps every view the query could merely see.
    ///
    /// `sig` is the view's signature as its configuration holds it.
    fn view_matchable(&self, query: usize, v: &MaterializedView, sig: u128) -> bool {
        let Some(Some((block, spjg))) = self.blocks.get(query) else {
            // No block (resume path before `build`, or a non-SELECT
            // entry): fall back to the conservative visibility rule.
            return true;
        };
        let key = (query, sig);
        if let Some(&hit) = self.view_memo.borrow().get(&key) {
            return hit;
        }
        let q_tables: BTreeSet<TableId> = block.tables.iter().copied().collect();
        let matchable = if v.def.tables == q_tables {
            v.try_match(spjg).is_some()
        } else if v.def.tables.len() >= 2 && v.def.tables.is_subset(&q_tables) {
            v.try_match(&block.spjg_for_subset(&v.def.tables)).is_some()
        } else {
            false
        };
        self.view_memo.borrow_mut().insert(key, matchable);
        matchable
    }

    /// Project `config` onto the relevant structures of query `query`.
    pub fn projection(&self, query: usize, config: &Configuration) -> Option<Projection> {
        let qr = self.query(query)?;
        let coarse = config.signature_for_tables128(&qr.tables);
        Some(self.project_with(query, qr, config, coarse))
    }

    /// The projection of `config` onto `query` (relevance `qr`) under the
    /// given coarse signature. Structure signatures are the ones the
    /// configuration holds, so nothing here hashes or formats a
    /// structure.
    fn project_with(
        &self,
        query: usize,
        qr: &QueryRelevance,
        config: &Configuration,
        coarse: u128,
    ) -> Projection {
        let mut relevant: Vec<u128> = Vec::new();
        let mut pinned: Vec<u128> = Vec::new();
        let matchable = |v: &MaterializedView, sig: u128| {
            v.def.tables.is_subset(&qr.tables) && self.view_matchable(query, v, sig)
        };
        for (i, s) in config.indexes_with_sigs() {
            let rel = if i.table.is_view() {
                config
                    .view_with_sig(i.table)
                    .is_some_and(|(v, sig)| matchable(v, sig))
            } else {
                qr.tables.contains(&i.table)
                    && (i.clustered
                        || i.key.first().is_some_and(|k| qr.sarg_cols.contains(k))
                        || qr.required.get(&i.table).is_some_and(|req| i.covers(req)))
            };
            if rel {
                relevant.push(s);
                if i.clustered {
                    pinned.push(s);
                }
            }
        }
        for (v, s) in config.views_with_sigs() {
            if matchable(v, s) {
                relevant.push(s);
                pinned.push(s);
            }
        }
        relevant.sort_unstable();
        pinned.sort_unstable();
        let mut h = Tagged128::new();
        for s in &relevant {
            h.hash(s);
        }
        Projection {
            sig: h.finish(),
            coarse,
            relevant: relevant.into(),
            pinned: pinned.into(),
        }
    }
}

/// One configuration's projection context, built once per evaluation.
///
/// Per-structure signatures are not computed here: the configuration
/// computed each one when the structure entered it. What the projector
/// adds over [`RelevanceTable::projection`] is the coarse per-table
/// signature, computed once per distinct FROM table set
/// ([`RelevanceTable::set_id`]) instead of once per query, so
/// [`FlatProjector::project`] returns a bitwise-identical [`Projection`]
/// (debug builds assert the coarse half).
pub struct FlatProjector<'a> {
    rt: &'a RelevanceTable,
    config: &'a Configuration,
    /// Coarse per-table signature per dense table-set id, computed on
    /// first use (a pure function of the configuration and the set).
    coarse: Vec<OnceCell<u128>>,
}

impl<'a> FlatProjector<'a> {
    pub fn new(rt: &'a RelevanceTable, config: &'a Configuration) -> FlatProjector<'a> {
        FlatProjector {
            rt,
            config,
            coarse: (0..rt.num_table_sets()).map(|_| OnceCell::new()).collect(),
        }
    }

    /// [`RelevanceTable::projection`] of the held configuration onto
    /// query `query`, with the coarse signature shared per table set.
    pub fn project(&self, query: usize) -> Option<Projection> {
        let qr = self.rt.query(query)?;
        let coarse = match self.rt.set_id(query) {
            Some(id) => *self.coarse[id as usize]
                .get_or_init(|| self.config.signature_for_tables128(&qr.tables)),
            None => self.config.signature_for_tables128(&qr.tables),
        };
        debug_assert_eq!(coarse, self.config.signature_for_tables128(&qr.tables));
        Some(self.rt.project_with(query, qr, self.config, coarse))
    }
}

/// `a ⊆ b` over sorted, deduplicated slices.
pub fn sorted_subset(a: &[u128], b: &[u128]) -> bool {
    let mut bi = b.iter();
    'outer: for x in a {
        for y in bi.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt_catalog::{ColumnStats, ColumnType};
    use pdt_physical::{index_sig128, Index};
    use pdt_sql::parse_workload;

    fn test_db() -> Database {
        let mut b = Database::builder("t");
        let mk = |name: &str, ndv: f64| pdt_catalog::Column {
            name: name.into(),
            ty: ColumnType::Int,
            stats: ColumnStats::uniform(ndv, 0.0, ndv, 4.0),
        };
        b.add_table(
            "r",
            100_000.0,
            vec![mk("id", 100_000.0), mk("a", 1000.0), mk("b", 100.0)],
            vec![0],
        );
        b.add_table("s", 50_000.0, vec![mk("y", 1000.0), mk("c", 50.0)], vec![0]);
        b.build()
    }

    fn col(db: &Database, table: &str, name: &str) -> ColumnId {
        let t = db.table_by_name(table).unwrap();
        t.column_id(t.column_ordinal(name).unwrap())
    }

    #[test]
    fn relevance_tracks_sargs_and_coverage() {
        let db = test_db();
        let w = Workload::bind(
            &db,
            &parse_workload("SELECT r.b FROM r WHERE r.a = 3").unwrap(),
        )
        .unwrap();
        let rt = RelevanceTable::build(&db, &w);
        let qr = rt.query(0).unwrap();
        assert!(qr.sarg_cols.contains(&col(&db, "r", "a")));
        let r = db.table_by_name("r").unwrap().id;
        assert!(qr.required[&r].contains(&col(&db, "r", "b")));

        let mut config = Configuration::base(&db);
        let seekable = Index::new(r, [col(&db, "r", "a")], []);
        let covering = Index::new(r, [col(&db, "r", "b")], []);
        let useless = Index::new(r, [col(&db, "r", "id")], []);
        let foreign = Index::new(db.table_by_name("s").unwrap().id, [col(&db, "s", "c")], []);
        config.add_index(seekable.clone());
        config.add_index(covering.clone());
        config.add_index(useless.clone());
        config.add_index(foreign.clone());

        let proj = rt.projection(0, &config).unwrap();
        let has = |i: &Index| proj.relevant.binary_search(&index_sig128(i)).is_ok();
        assert!(has(&seekable), "leading sarg column");
        assert!(has(&covering), "covers required columns");
        assert!(!has(&useless), "no sarg, no coverage");
        assert!(!has(&foreign), "wrong table");
        // The base clustered index on r is relevant and pinned.
        let ci = config.clustered_index_on(r).unwrap().clone();
        assert!(has(&ci));
        assert!(proj.pinned.binary_search(&index_sig128(&ci)).is_ok());
    }

    #[test]
    fn irrelevant_structures_do_not_change_the_signature() {
        let db = test_db();
        let w = Workload::bind(
            &db,
            &parse_workload("SELECT r.b FROM r WHERE r.a = 3").unwrap(),
        )
        .unwrap();
        let rt = RelevanceTable::build(&db, &w);
        let r = db.table_by_name("r").unwrap().id;
        let config = Configuration::base(&db);
        let p0 = rt.projection(0, &config).unwrap();

        // An index on r that can serve no request for this query is
        // invisible to the derived key, but changes the coarse one.
        let mut with_useless = config.clone();
        with_useless.add_index(Index::new(r, [col(&db, "r", "id")], []));
        let p1 = rt.projection(0, &with_useless).unwrap();
        assert_eq!(p0.sig, p1.sig);
        assert_ne!(p0.coarse, p1.coarse);

        // A seekable index changes both.
        let mut with_seek = config.clone();
        with_seek.add_index(Index::new(r, [col(&db, "r", "a")], []));
        let p2 = rt.projection(0, &with_seek).unwrap();
        assert_ne!(p0.sig, p2.sig);
    }

    #[test]
    fn flat_projector_matches_reference_projection() {
        let db = test_db();
        let w = Workload::bind(
            &db,
            &parse_workload(
                "SELECT r.b FROM r WHERE r.a = 3;\n\
                 SELECT r.id FROM r WHERE r.b = 1;\n\
                 SELECT s.c FROM s WHERE s.y = 2",
            )
            .unwrap(),
        )
        .unwrap();
        let rt = RelevanceTable::build(&db, &w);
        // Queries 0 and 1 share the {r} table set; query 2 is {s}.
        assert_eq!(rt.set_id(0), rt.set_id(1));
        assert_ne!(rt.set_id(0), rt.set_id(2));
        assert_eq!(rt.num_table_sets(), 2);

        let r = db.table_by_name("r").unwrap().id;
        let mut config = Configuration::base(&db);
        config.add_index(Index::new(r, [col(&db, "r", "a")], []));
        config.add_index(Index::new(r, [col(&db, "r", "b")], [col(&db, "r", "id")]));

        let fp = FlatProjector::new(&rt, &config);
        for q in 0..3 {
            let reference = rt.projection(q, &config).unwrap();
            let flat = fp.project(q).unwrap();
            assert_eq!(flat.sig, reference.sig);
            assert_eq!(flat.coarse, reference.coarse);
            assert_eq!(flat.relevant, reference.relevant);
            assert_eq!(flat.pinned, reference.pinned);
        }
    }

    #[test]
    fn sorted_subset_works() {
        assert!(sorted_subset(&[], &[]));
        assert!(sorted_subset(&[], &[1, 2]));
        assert!(sorted_subset(&[2], &[1, 2, 3]));
        assert!(sorted_subset(&[1, 3], &[1, 2, 3]));
        assert!(!sorted_subset(&[1, 4], &[1, 2, 3]));
        assert!(!sorted_subset(&[0], &[1, 2, 3]));
        assert!(!sorted_subset(&[1], &[]));
    }
}
