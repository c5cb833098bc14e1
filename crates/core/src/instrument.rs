//! Optimizer instrumentation (§2): turn each intercepted request into
//! the physical structure that yields the cheapest sub-plan, and gather
//! the optimal configuration.
//!
//! For an index request `(S, N, O, A)` (§2.1):
//!
//! * Lemmas 1–2 say the optimal plan seeks **one** covering index —
//!   no intersections, no rid lookups. The index keys are the sargable
//!   columns "sorted by selectivity" (equality columns first, then the
//!   most selective range column), with every other referenced column
//!   as suffix.
//! * With a requested order `O`, an alternative index keyed on `O` is
//!   costed too, and the cheaper of the sort/no-sort plans decides
//!   which index is created.
//!
//! For a view request, "the input sub-query itself is the most
//! efficient view": simulate it with a clustered index so a plain scan
//! answers the request.
//!
//! The same per-query information the requests are built from — sarg
//! columns, required output columns, visible tables — also bounds what
//! the optimizer can ever *use* for a query; [`crate::derived`]
//! re-derives it (without running the optimizer) to compute the
//! relevant-structure sets behind derived what-if costing.

use crate::eval::PreparedStatements;
use crate::workload::Workload;
use pdt_catalog::{ColumnId, Database, TableId};
use pdt_expr::Sarg;
use pdt_opt::access::{best_access_choice, sarg_selectivity};
use pdt_opt::{CostModel, IndexRequest, Optimizer, RequestSink, TracingSink, ViewRequest};
use pdt_physical::{Configuration, Index, MaterializedView, PhysicalSchema, SpjgExpr};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The instrumentation sink that builds the optimal configuration.
#[derive(Debug)]
pub struct OptimalSink {
    /// Create materialized views (set false for index-only tuning).
    pub with_views: bool,
    /// Also materialize views for join sub-expression requests (not
    /// just whole-query blocks). Sub-expression views rarely survive
    /// relaxation but inflate the optimal configuration dramatically,
    /// so the default is off; the request *counts* include them either
    /// way.
    pub subset_views: bool,
    /// Structures created so far (diagnostics).
    pub created_indexes: usize,
    pub created_views: usize,
    /// Requests seen (paper Table 1).
    pub index_requests: usize,
    pub view_requests: usize,
    /// Answers given to base-table index requests, by the request's
    /// [`IndexRequest::bit_key`].
    answers: HashMap<Vec<u64>, Vec<Answer>>,
    /// The key of the request being answered: written in place per
    /// request, copied into `answers` only with a new answer.
    key: Vec<u64>,
}

/// The indexes [`optimal_indexes_for_request`] chose for a request
/// (`indexes`), and the indexes on its table it chose them under, by
/// handle (`under`).
#[derive(Debug)]
struct Answer {
    under: Vec<Arc<Index>>,
    indexes: Vec<Index>,
}

impl OptimalSink {
    pub fn new(with_views: bool) -> OptimalSink {
        OptimalSink {
            with_views,
            subset_views: false,
            created_indexes: 0,
            created_views: 0,
            index_requests: 0,
            view_requests: 0,
            answers: HashMap::new(),
            key: Vec::new(),
        }
    }
}

impl RequestSink for OptimalSink {
    /// The answer to a base-table request is a function of the request
    /// and the indexes on its table alone (its statistics come from the
    /// catalog), so a request issued again while its table holds the
    /// same index handles gets the answer it got then. A request over a
    /// view also reads the view's statistics and is answered afresh.
    fn on_index_request(&mut self, req: &IndexRequest, db: &Database, config: &mut Configuration) {
        self.index_requests += 1;
        let fresh;
        let answer: &[Index] = if req.table.is_view() {
            fresh = optimal_indexes_for_request(db, config, req);
            &fresh
        } else {
            req.write_bit_key(&mut self.key);
            if !self.answers.contains_key(self.key.as_slice()) {
                self.answers.insert(self.key.clone(), Vec::new());
            }
            let seen = self.answers.get_mut(self.key.as_slice()).expect("present");
            let under = config.index_handles_on(req.table);
            let at = match seen
                .iter()
                .position(|a| Configuration::same_handles(&a.under, under))
            {
                Some(at) => at,
                None => {
                    seen.push(Answer {
                        under: under.to_vec(),
                        indexes: optimal_indexes_for_request(db, config, req),
                    });
                    seen.len() - 1
                }
            };
            &seen[at].indexes
        };
        for index in answer {
            if !config.contains_index(index) && config.add_index(index.clone()) {
                self.created_indexes += 1;
            }
        }
    }

    fn on_view_request(&mut self, req: &ViewRequest, db: &Database, config: &mut Configuration) {
        self.view_requests += 1;
        if !self.with_views || (!req.top_level && !self.subset_views) {
            return;
        }
        let def = req.spjg();
        // Single-table, predicate-free, ungrouped views are just the
        // base table; everything else is worth materializing.
        let trivial = def.tables.len() == 1
            && !def.is_grouped()
            && def.ranges.is_empty()
            && def.others.is_empty();
        if trivial || def.tables.is_empty() {
            return;
        }
        if config.find_view_by_def(def).is_some() {
            return;
        }
        let (view, clustered) = clustered_view(db, config.allocate_view_id(), def.clone());
        config.add_view(view);
        config.add_index(clustered);
        self.created_views += 1;
    }
}

/// The materialized view of `def` registered as `id`, and the clustered
/// index that stores it: keyed on the grouping columns when present
/// (they are the natural key of a grouped view), else on the first
/// output column.
pub fn clustered_view(db: &Database, id: TableId, def: SpjgExpr) -> (MaterializedView, Index) {
    // A view is defined over base tables, whose statistics no
    // configuration changes.
    let rows = Optimizer::new(db).estimate_view_rows(&Configuration::new(), &def);
    let view = MaterializedView::create(id, def, rows, db);
    let mut key: Vec<ColumnId> = view
        .def
        .group_by
        .iter()
        .filter_map(|g| view.ordinal_of_base(*g, None))
        .map(|ord| ColumnId::new(id, ord))
        .collect();
    if key.is_empty() {
        key.push(ColumnId::new(id, 0));
    }
    let clustered = Index::clustered(id, key);
    (view, clustered)
}

/// The §2.1 optimal index construction: the candidate index (or the
/// order-covering alternative) that minimizes the request's plan cost.
pub fn optimal_indexes_for_request(
    db: &Database,
    config: &Configuration,
    req: &IndexRequest,
) -> Vec<Index> {
    if req.all_columns().is_empty() {
        return Vec::new();
    }
    let schema = PhysicalSchema::new(db, config);

    // Sargable columns sorted by (equality first, then selectivity).
    let mut sarg_cols: Vec<(ColumnId, f64, bool)> = req
        .sargable
        .iter()
        .map(|s| (s.column, sarg_selectivity(&schema, s), s.sarg.is_equality()))
        .collect();
    sarg_cols.sort_by(|a, b| {
        b.2.cmp(&a.2) // equalities first
            .then(a.1.total_cmp(&b.1)) // then most selective
    });

    // Key: all equality columns, then the single most selective range
    // column (further range columns cannot extend the seek — they go to
    // the suffix).
    let mut key: Vec<ColumnId> = Vec::new();
    let mut used_range = false;
    for (c, _, eq) in &sarg_cols {
        if *eq {
            key.push(*c);
        } else if !used_range {
            key.push(*c);
            used_range = true;
        }
    }
    // Everything referenced but not in the key becomes a suffix column
    // (Lemma 2: cover everything, never look up).
    let mut suffix: BTreeSet<ColumnId> = req.all_columns();
    // A point-interval Param sarg contributes its column even when not
    // picked as key.
    for s in &req.sargable {
        if let Sarg::Param { .. } = s.sarg {
            suffix.insert(s.column);
        }
    }

    let mut candidates: Vec<Index> = Vec::new();
    if !key.is_empty() {
        candidates.push(Index::new(req.table, key.clone(), suffix.clone()));
    }

    if !req.order.is_empty() {
        // Order-first alternative (§2.1): key = O; if O ⊆ S append the
        // remaining sargable columns to the key, else everything else
        // is suffix.
        let order_cols: Vec<ColumnId> = req.order.iter().map(|(c, _)| *c).collect();
        let sarg_set: BTreeSet<ColumnId> = sarg_cols.iter().map(|(c, _, _)| *c).collect();
        let o_subset_of_s = order_cols.iter().all(|c| sarg_set.contains(c));
        let mut okey = order_cols.clone();
        if o_subset_of_s {
            for (c, _, _) in &sarg_cols {
                if !okey.contains(c) {
                    okey.push(*c);
                }
            }
        }
        candidates.push(Index::new(req.table, okey, suffix.clone()));
    }

    if candidates.is_empty() {
        // Pure projection request (no sargs, no order): a covering
        // index over the referenced columns, keyed on the first.
        let cols: Vec<ColumnId> = suffix.iter().copied().collect();
        if cols.is_empty() {
            return Vec::new();
        }
        candidates.push(Index::new(req.table, [cols[0]], cols));
    }

    candidates.dedup();
    if candidates.len() == 1 {
        return candidates;
    }

    // Cost both alternatives in isolation (the paper compares the
    // sort-based and sort-free plans and keeps the cheaper), choosing
    // only. A request reads its table's indexes (and, over a view, the
    // view) and nothing else of a configuration, so each trial holds
    // just those and the candidate.
    let model = CostModel::default();
    let table_only = config.restricted_to(req.table);
    let mut best: Option<(f64, Index)> = None;
    for cand in candidates {
        let mut trial = table_only.clone();
        trial.add_index(cand.clone());
        let schema = PhysicalSchema::new(db, &trial);
        let cost = best_access_choice(&model, &schema, req).cost.total();
        if best.as_ref().is_none_or(|(c, _)| cost < *c) {
            best = Some((cost, cand));
        }
    }
    best.map(|(_, i)| vec![i]).unwrap_or_default()
}

/// Run the instrumented optimization pass over a workload (§2): the
/// returned configuration cannot be improved for the SELECT parts.
/// Also returns request counts (Table 1) and the number of optimizer
/// calls made.
pub fn gather_optimal_configuration(
    db: &Database,
    workload: &Workload,
    with_views: bool,
) -> (Configuration, OptimalSink) {
    gather_optimal_configuration_traced(db, workload, with_views, None)
}

/// [`gather_optimal_configuration`] with request interception mirrored
/// into `request.index`/`request.view` trace events. The pass is
/// sequential over workload entries, so the event order is the plan
/// enumeration order — deterministic for a given workload.
pub fn gather_optimal_configuration_traced(
    db: &Database,
    workload: &Workload,
    with_views: bool,
    tracer: Option<&pdt_trace::Tracer>,
) -> (Configuration, OptimalSink) {
    let opt = Optimizer::new(db);
    let prepared = PreparedStatements::new(workload);
    gather_prepared(&opt, workload, &prepared, with_views, tracer)
}

/// [`gather_optimal_configuration_traced`] over the statements
/// `prepared` holds for `workload` (preparing any not prepared yet), so
/// a session's §2 pass and its evaluations prepare each statement once.
pub(crate) fn gather_prepared(
    opt: &Optimizer<'_>,
    workload: &Workload,
    prepared: &PreparedStatements,
    with_views: bool,
    tracer: Option<&pdt_trace::Tracer>,
) -> (Configuration, OptimalSink) {
    let mut config = Configuration::base(opt.db);
    let mut sink = TracingSink::new(OptimalSink::new(with_views), tracer);
    for (i, entry) in workload.entries.iter().enumerate() {
        if let Some(select) = &entry.select {
            let q = prepared.get(opt, i, select);
            opt.observe_prepared_with_sink(&mut config, q, &mut sink);
        }
    }
    (config, sink.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt_catalog::{ColumnStats, ColumnType};
    use pdt_expr::{Interval, SargablePred};
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
            1_000_000.0,
            vec![
                mk("id", 1_000_000.0),
                mk("a", 10_000.0),
                mk("b", 100.0),
                mk("c", 1_000.0),
                mk("d", 50.0),
                mk("e", 500.0),
            ],
            vec![0],
        );
        b.add_table(
            "s",
            10_000.0,
            vec![mk("y", 10_000.0), mk("w", 100.0)],
            vec![0],
        );
        b.build()
    }

    fn cid(db: &Database, t: &str, c: &str) -> ColumnId {
        let table = db.table_by_name(t).unwrap();
        table.column_id(table.column_ordinal(c).unwrap())
    }

    #[test]
    fn paper_request_example_builds_covering_index() {
        // τD ΠD,E σ(A<10 ∧ B<10 ∧ A+C=8)(R): S={A,B}, N={{A,C}},
        // O=[D], A={E}. The optimal index covers everything; key is
        // either the order column D or the best sargable prefix.
        let db = test_db();
        let config = Configuration::base(&db);
        let a = cid(&db, "r", "a");
        let b = cid(&db, "r", "b");
        let c = cid(&db, "r", "c");
        let d = cid(&db, "r", "d");
        let e = cid(&db, "r", "e");
        let req = IndexRequest {
            table: a.table,
            sargable: vec![
                SargablePred {
                    column: a,
                    sarg: Sarg::Range(Interval::at_most(10.0, false)),
                },
                SargablePred {
                    column: b,
                    sarg: Sarg::Range(Interval::at_most(10.0, false)),
                },
            ],
            non_sargable: vec![([a, c].into(), 0.1)],
            order: vec![(d, false)],
            additional: [e].into(),
            input_rows: 1_000_000.0,
        };
        let ixs = optimal_indexes_for_request(&db, &config, &req);
        assert_eq!(ixs.len(), 1);
        let ix = &ixs[0];
        let all = ix.all_columns();
        for col in [a, b, c, d, e] {
            assert!(all.contains(&col), "index must cover {col}: {ix}");
        }
    }

    #[test]
    fn equality_columns_lead_the_key() {
        let db = test_db();
        let config = Configuration::base(&db);
        let a = cid(&db, "r", "a");
        let b = cid(&db, "r", "b");
        let req = IndexRequest {
            table: a.table,
            sargable: vec![
                // range on a (sel 1e-3 of 10k domain? at_most(10) is ~0.1%)
                SargablePred {
                    column: a,
                    sarg: Sarg::Range(Interval::at_most(10.0, false)),
                },
                // equality on b (sel 1%)
                SargablePred {
                    column: b,
                    sarg: Sarg::Range(Interval::point(5.0)),
                },
            ],
            non_sargable: vec![],
            order: vec![],
            additional: BTreeSet::new(),
            input_rows: 1_000_000.0,
        };
        let ixs = optimal_indexes_for_request(&db, &config, &req);
        assert_eq!(ixs[0].key[0], b, "equality column must lead: {}", ixs[0]);
        assert_eq!(ixs[0].key[1], a);
    }

    #[test]
    fn most_selective_equality_first() {
        let db = test_db();
        let config = Configuration::base(&db);
        let a = cid(&db, "r", "a"); // ndv 10k -> eq sel 1e-4
        let b = cid(&db, "r", "b"); // ndv 100 -> eq sel 1e-2
        let req = IndexRequest {
            table: a.table,
            sargable: vec![
                SargablePred {
                    column: b,
                    sarg: Sarg::Range(Interval::point(5.0)),
                },
                SargablePred {
                    column: a,
                    sarg: Sarg::Range(Interval::point(5.0)),
                },
            ],
            non_sargable: vec![],
            order: vec![],
            additional: BTreeSet::new(),
            input_rows: 1_000_000.0,
        };
        let ixs = optimal_indexes_for_request(&db, &config, &req);
        assert_eq!(ixs[0].key[0], a, "most selective equality first");
    }

    #[test]
    fn pure_order_request_keys_on_order() {
        let db = test_db();
        let config = Configuration::base(&db);
        let d = cid(&db, "r", "d");
        let e = cid(&db, "r", "e");
        let req = IndexRequest {
            table: d.table,
            sargable: vec![],
            non_sargable: vec![],
            order: vec![(d, false)],
            additional: [e].into(),
            input_rows: 1_000_000.0,
        };
        let ixs = optimal_indexes_for_request(&db, &config, &req);
        assert_eq!(ixs.len(), 1);
        assert_eq!(ixs[0].key[0], d);
        assert!(ixs[0].covers(&[e]));
    }

    #[test]
    fn gather_produces_optimal_configuration() {
        let db = test_db();
        let stmts = parse_workload(
            "SELECT r.e FROM r WHERE r.a = 7 AND r.b < 50; \
             SELECT r.c FROM r, s WHERE r.a = s.y AND s.w = 3",
        )
        .unwrap();
        let w = Workload::bind(&db, &stmts).unwrap();
        let (config, sink) = gather_optimal_configuration(&db, &w, true);
        assert!(sink.index_requests >= 3, "{sink:?}");
        assert!(config.index_count() > Configuration::base(&db).index_count());

        // The optimal configuration must not be improvable: adding it
        // drops each query's cost to (near) the per-request optimum,
        // and re-optimizing under it finds covering plans without
        // lookups on base tables.
        let opt = Optimizer::new(&db);
        for e in &w.entries {
            let q = e.select.as_ref().unwrap();
            let base_cost = opt.optimize(&Configuration::base(&db), q).cost;
            let opt_cost = opt.optimize(&config, q).cost;
            assert!(
                opt_cost < base_cost,
                "optimal config must improve: {opt_cost} vs {base_cost}"
            );
        }
    }

    #[test]
    fn view_sink_creates_views_with_clustered_index() {
        let db = test_db();
        let stmts =
            parse_workload("SELECT r.b, SUM(r.c) FROM r WHERE r.d = 3 GROUP BY r.b").unwrap();
        let w = Workload::bind(&db, &stmts).unwrap();
        let (config, sink) = gather_optimal_configuration(&db, &w, true);
        assert!(sink.created_views >= 1, "{sink:?}");
        for v in config.views() {
            assert!(
                config.clustered_index_on(v.id).is_some(),
                "every view is materialized via a clustered index"
            );
        }
        // Index-only mode creates none.
        let (config2, sink2) = gather_optimal_configuration(&db, &w, false);
        assert_eq!(sink2.created_views, 0);
        assert_eq!(config2.view_count(), 0);
    }

    #[test]
    fn requests_are_deduplicated() {
        let db = test_db();
        let stmts =
            parse_workload("SELECT r.e FROM r WHERE r.a = 7; SELECT r.e FROM r WHERE r.a = 7")
                .unwrap();
        let w = Workload::bind(&db, &stmts).unwrap();
        let (config, _) = gather_optimal_configuration(&db, &w, false);
        let t = db.table_by_name("r").unwrap().id;
        let non_clustered = config.indexes_on(t).filter(|i| !i.clustered).count();
        assert_eq!(non_clustered, 1, "same request -> same index");
    }

    #[test]
    fn answers_are_reused_only_under_the_same_handles() {
        let db = test_db();
        let mut config = Configuration::base(&db);
        let (a, e) = (cid(&db, "r", "a"), cid(&db, "r", "e"));
        let req = IndexRequest {
            table: a.table,
            sargable: vec![SargablePred {
                column: a,
                sarg: Sarg::Range(Interval::point(7.0)),
            }],
            non_sargable: vec![],
            order: vec![],
            additional: [e].into(),
            input_rows: 1_000_000.0,
        };
        let mut sink = OptimalSink::new(false);
        let answered = |sink: &OptimalSink| sink.answers[&req.bit_key()].len();
        // Answered under the base indexes: the answer adds an index.
        sink.on_index_request(&req, &db, &mut config);
        assert_eq!((answered(&sink), sink.created_indexes), (1, 1));
        // The table's indexes changed: answered afresh, adding nothing.
        sink.on_index_request(&req, &db, &mut config);
        assert_eq!((answered(&sink), sink.created_indexes), (2, 1));
        // Same handles as last time, and an index on another table in
        // between: the answer is reused.
        let y = cid(&db, "s", "y");
        assert!(config.add_index(Index::new(y.table, [y], [])));
        sink.on_index_request(&req, &db, &mut config);
        assert_eq!((answered(&sink), sink.index_requests), (2, 3));
        // A reused answer is the answer a fresh one gives.
        assert_eq!(
            sink.answers[&req.bit_key()][1].indexes,
            optimal_indexes_for_request(&db, &config, &req)
        );
    }
}
