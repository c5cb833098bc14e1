//! # pdt-baseline — a bottom-up physical design advisor (the "CTT")
//!
//! A faithful stand-in for the commercial tools the paper compares
//! against (AutoAdmin / Database Tuning Advisor lineage), implementing
//! the classic three-stage pipeline the paper's introduction describes:
//!
//! 1. **Candidate selection** — "for each query in the workload, find a
//!    good set of candidate structures" by tuning each query in
//!    isolation and keeping the structures its optimal plan uses,
//!    *capped per query* (the caps and per-query myopia are the
//!    documented weaknesses the relaxation approach removes);
//! 2. **Merging** — a single eager pass that pairwise-merges candidates
//!    ("each structure in the initial set is merged at most once",
//!    the restriction of Agrawal et al. the paper quotes);
//! 3. **Enumeration** — bottom-up greedy: start from the base
//!    configuration and repeatedly add the candidate with the best
//!    benefit-per-byte that still fits the budget, re-optimizing only
//!    queries that touch the added structure (the atomic-configuration
//!    approximation).
//!
//! Every trial is priced by the tuner's own evaluation loop
//! ([`evaluate_added_ctx`]): the same what-if cache, prepared
//! statements, shell tables and `eval.commit` events as the relaxation
//! search, with one rule of its own for which queries keep their
//! previous answer — those reading none of the tables the candidate adds
//! structures on. So the two tools' optimizer calls are counted by the
//! same code.
//!
//! The per-addition progress trace reproduces the paper's Figure 3.

use pdt_catalog::{Database, TableId};
use pdt_opt::{Optimizer, TracingSink};
use pdt_physical::{Configuration, Index, MaterializedView, SpjgExpr};
use pdt_trace::Tracer;
use pdt_tuner::cache::CostCache;
use pdt_tuner::eval::{
    evaluate_added_ctx, evaluate_full_ctx, EvalCtx, EvalResult, PreparedStatements,
};
use pdt_tuner::instrument::{clustered_view, OptimalSink};
use pdt_tuner::Workload;
use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// Options for the bottom-up advisor.
#[derive(Debug, Clone)]
pub struct BaselineOptions {
    /// Storage budget in bytes (None = unconstrained).
    pub space_budget: Option<f64>,
    /// Recommend materialized views too.
    pub with_views: bool,
    /// Candidate cap per query (the heuristic cut the paper criticizes).
    pub max_candidates_per_query: usize,
    /// Maximum suffix (included) columns a candidate index may carry —
    /// period-typical tools bounded index width, missing the wide
    /// covering indexes the instrumented approach derives exactly.
    pub max_suffix_cols: usize,
    /// A view candidate for a *wide* join is proposed only when its
    /// FROM-set appears in at least this many workload queries (the
    /// "frequent table-subset" heuristic of the DB2/DTA lineage).
    pub view_table_subset_min_freq: usize,
    /// Queries joining at most this many tables get an exact per-query
    /// view candidate; wider joins only get generalized
    /// (constant-free) candidates via the frequent-subset rule — the
    /// candidate-space pruning the paper's introduction describes
    /// ("today's tools set bounds on the maximum number of structures
    /// to consider per query").
    pub max_view_join_tables: usize,
    /// Optimizer-call budget (the tool's "tuning time").
    pub max_evaluations: usize,
}

impl Default for BaselineOptions {
    fn default() -> Self {
        BaselineOptions {
            space_budget: None,
            with_views: true,
            max_candidates_per_query: 8,
            max_suffix_cols: 4,
            view_table_subset_min_freq: 2,
            max_view_join_tables: 4,
            max_evaluations: 5_000,
        }
    }
}

/// One candidate physical structure (a view travels with its indexes).
#[derive(Debug, Clone)]
pub enum Candidate {
    Index(Index),
    View {
        view: MaterializedView,
        indexes: Vec<Index>,
    },
}

impl Candidate {
    /// Tables whose queries may change when this candidate is added.
    fn affected_tables(&self) -> Vec<TableId> {
        match self {
            Candidate::Index(i) => vec![i.table],
            Candidate::View { view, .. } => view.def.tables.iter().copied().collect(),
        }
    }

    fn add_to(&self, config: &mut Configuration) -> bool {
        match self {
            Candidate::Index(i) => {
                if i.table.is_view() {
                    // An index on a view requires the view to exist.
                    if config.view(i.table).is_none() {
                        return false;
                    }
                }
                config.add_index(i.clone())
            }
            Candidate::View { view, indexes } => {
                if config.find_view_by_def(&view.def).is_some() {
                    return false;
                }
                // Candidates were minted against per-query scratch
                // configurations, so their ids collide across queries:
                // re-register under a fresh id and remap the indexes.
                let fresh = config.allocate_view_id();
                let mut v = view.clone();
                v.id = fresh;
                config.add_view(v);
                for i in indexes {
                    let mut idx = Index::new(
                        fresh,
                        i.key
                            .iter()
                            .map(|c| pdt_catalog::ColumnId::new(fresh, c.ordinal)),
                        i.suffix
                            .iter()
                            .map(|c| pdt_catalog::ColumnId::new(fresh, c.ordinal)),
                    );
                    idx.clustered = i.clustered;
                    config.add_index(idx);
                }
                true
            }
        }
    }

    /// Bytes charged for the indexes [`add_to`](Self::add_to) inserted
    /// into `trial`; a view's sit under the fresh id it got there.
    fn size_bytes(&self, db: &Database, trial: &Configuration) -> f64 {
        let model = pdt_physical::size::SizeModel::default();
        let schema = pdt_physical::PhysicalSchema::new(db, trial);
        match self {
            Candidate::Index(i) => model.index_bytes_charged(&schema, i),
            Candidate::View { view, .. } => {
                let added = trial
                    .find_view_by_def(&view.def)
                    .expect("added to the trial");
                trial
                    .indexes_on(added.id)
                    .map(|i| model.index_bytes_charged(&schema, i))
                    .sum()
            }
        }
    }

    fn signature(&self) -> String {
        match self {
            Candidate::Index(i) => format!("ix:{i}"),
            Candidate::View { view, .. } => format!("view:{:?}", view.def),
        }
    }
}

/// A point of the best-configuration-over-time trace (Fig. 3).
#[derive(Debug, Clone, Copy)]
pub struct ProgressPoint {
    pub optimizer_calls: usize,
    pub best_cost: f64,
}

/// The advisor's output.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    pub initial_cost: f64,
    pub best_config: Configuration,
    pub best_cost: f64,
    pub best_size: f64,
    pub candidate_count: usize,
    pub optimizer_calls: usize,
    /// What-if cost-cache hits/misses.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub progress: Vec<ProgressPoint>,
    /// Roll-up of the structured trace (`Some` only when tuned with a
    /// [`Tracer`]); per-phase `elapsed` is wall-clock, everything else
    /// deterministic.
    pub trace: Option<pdt_trace::TraceSummary>,
    pub elapsed: Duration,
}

impl BaselineReport {
    /// `improvement = 100 · (1 − cost/initial)` (§4).
    pub fn improvement_pct(&self) -> f64 {
        100.0 * (1.0 - self.best_cost / self.initial_cost.max(1e-12))
    }
}

/// The bottom-up advisor.
pub struct BaselineAdvisor<'a> {
    pub db: &'a Database,
    pub options: BaselineOptions,
}

impl<'a> BaselineAdvisor<'a> {
    pub fn new(db: &'a Database, options: BaselineOptions) -> Self {
        BaselineAdvisor { db, options }
    }

    /// Run the three-stage pipeline.
    pub fn tune(&self, workload: &Workload) -> BaselineReport {
        self.tune_traced(workload, None)
    }

    /// [`BaselineAdvisor::tune`] with an optional structured-event
    /// [`Tracer`].
    pub fn tune_traced(&self, workload: &Workload, tracer: Option<&Tracer>) -> BaselineReport {
        let start = Instant::now();
        let opt = Optimizer::new(self.db);
        let base = Configuration::base(self.db);
        let mut calls = 0usize;

        // The generalization of the atomic-configuration shortcut: a
        // query is re-optimized at most once per distinct projection of
        // a trial configuration onto its tables.
        let cache = CostCache::new();
        let prepared = PreparedStatements::new(workload);
        let ctx = EvalCtx {
            cache: Some(&cache),
            tracer,
            prepared: Some(&prepared),
            ..EvalCtx::default()
        };

        if let Some(t) = tracer {
            let mut fields: Vec<(&'static str, pdt_trace::Value)> =
                vec![("entries", workload.entries.len().into())];
            if let Some(b) = self.options.space_budget {
                fields.push(("budget", b.into()));
            }
            t.emit("baseline.begin", fields);
        }
        let setup_span = tracer.map(|t| t.span("setup"));
        let base_eval = evaluate_full_ctx(self.db, &opt, &base, workload, ctx);
        calls += base_eval.optimizer_calls;
        let initial_cost = base_eval.total_cost;
        drop(setup_span);
        let candidates_span = tracer.map(|t| t.span("candidates"));

        // ---- stage 1: per-query candidate selection ------------------
        // Index candidates are plan-derived (the Chaudhuri-Narasayya
        // approach the paper cites), but width-capped; view candidates
        // come from the frequent-table-subset heuristic with
        // constant-generalized definitions — the guesswork the
        // relaxation approach eliminates.
        let mut table_set_freq: HashMap<BTreeSet<TableId>, usize> = HashMap::new();
        for entry in &workload.entries {
            if let Some(q) = &entry.select {
                *table_set_freq
                    .entry(q.tables.iter().copied().collect())
                    .or_insert(0) += 1;
            }
        }
        let mut candidates: Vec<Candidate> = Vec::new();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        for (i, entry) in workload.entries.iter().enumerate() {
            let Some(q) = &entry.select else { continue };
            // Index candidates: tune the query in isolation (the §2
            // pass, indexes only) and keep what its plan uses.
            let stmt = prepared.get(&opt, i, q);
            let mut cfg = base.clone();
            let mut sink = TracingSink::new(OptimalSink::new(false), tracer);
            opt.observe_prepared_with_sink(&mut cfg, stmt, &mut sink);
            calls += 1;
            pdt_trace::incr(tracer, "optimizer.calls", 1);
            let mut used = opt.what_if(&cfg, stmt).index_usages;
            used.sort_by(|a, b| b.access_cost().total_cmp(&a.access_cost()));
            let mut taken = 0usize;
            for u in used {
                if taken >= self.options.max_candidates_per_query {
                    break;
                }
                if base.contains_index(&u.index) || u.index.table.is_view() {
                    continue;
                }
                // Width cap: keep only the first few suffix columns.
                let cap = self.options.max_suffix_cols;
                let suffix = u.index.suffix.iter().copied().take(cap).collect();
                let cand = Candidate::Index(Index { suffix, ..u.index });
                if seen.insert(cand.signature()) {
                    candidates.push(cand);
                }
                taken += 1;
            }

            // View candidate: only for frequent FROM-sets, with the
            // definition generalized (constants dropped) so it can
            // serve sibling queries.
            if self.options.with_views {
                let block = pdt_opt::QueryBlock::from_bound(self.db, q);
                let spjg = block.to_spjg();
                let freq = table_set_freq.get(&spjg.tables).copied().unwrap_or(0);
                let interesting = spjg.tables.len() >= 2 || spjg.is_grouped();
                let def = if !interesting {
                    None
                } else if spjg.tables.len() <= self.options.max_view_join_tables {
                    // Narrow joins: the exact per-query view.
                    Some(spjg)
                } else if freq >= self.options.view_table_subset_min_freq {
                    // Wide joins: only the generalized frequent-subset
                    // candidate.
                    Some(generalize(spjg))
                } else {
                    None
                };
                if let Some(def) = def {
                    // Minted under the first view id; `add_to` re-registers.
                    let (view, clustered) =
                        clustered_view(self.db, TableId(TableId::VIEW_BASE), def);
                    let cand = Candidate::View {
                        view,
                        indexes: vec![clustered],
                    };
                    if seen.insert(cand.signature()) {
                        candidates.push(cand);
                    }
                }
            }
        }

        // ---- stage 2: one-shot pairwise merging ----------------------
        let merged = self.merge_pass(&candidates);
        for m in merged {
            if seen.insert(m.signature()) {
                candidates.push(m);
            }
        }
        let candidate_count = candidates.len();
        pdt_trace::emit(tracer, "baseline.candidates", || {
            vec![("count", candidate_count.into())]
        });
        drop(candidates_span);
        let greedy_span = tracer.map(|t| t.span("greedy"));

        // ---- stage 3: greedy bottom-up enumeration -------------------
        let mut config = base.clone();
        let mut eval = base_eval;
        let mut size = config.size_bytes(self.db);
        let mut progress = vec![ProgressPoint {
            optimizer_calls: calls,
            best_cost: eval.total_cost,
        }];
        let mut remaining: Vec<Candidate> = candidates;

        loop {
            if calls >= self.options.max_evaluations {
                break;
            }
            let mut best_pick: Option<(usize, EvalResult, f64, f64)> = None; // (idx, eval, new_size, score)
            for (i, cand) in remaining.iter().enumerate() {
                if calls >= self.options.max_evaluations {
                    break;
                }
                let mut trial = config.clone();
                if !cand.add_to(&mut trial) {
                    continue;
                }
                let cand_bytes = cand.size_bytes(self.db, &trial);
                let new_size = size + cand_bytes;
                if let Some(budget) = self.options.space_budget {
                    if new_size > budget {
                        continue;
                    }
                }
                // Atomic-configuration approximation: re-optimize only
                // queries touching the candidate's tables.
                let affected = cand.affected_tables();
                let trial_eval =
                    evaluate_added_ctx(self.db, &opt, &trial, workload, &eval, &affected, ctx);
                calls += trial_eval.optimizer_calls;
                let benefit = eval.total_cost - trial_eval.total_cost;
                if benefit <= 0.0 {
                    continue;
                }
                let score = benefit / cand_bytes.max(1.0);
                if best_pick.as_ref().is_none_or(|(_, _, _, s)| score > *s) {
                    best_pick = Some((i, trial_eval, new_size, score));
                }
            }
            let Some((idx, new_eval, new_size, score)) = best_pick else {
                break;
            };
            let cand = remaining.swap_remove(idx);
            pdt_trace::emit(tracer, "baseline.add", || {
                vec![
                    (
                        "kind",
                        match &cand {
                            Candidate::Index(_) => "index".into(),
                            Candidate::View { .. } => "view".into(),
                        },
                    ),
                    ("cost", new_eval.total_cost.into()),
                    ("size", new_size.into()),
                    ("score", score.into()),
                ]
            });
            pdt_trace::incr(tracer, "baseline.additions", 1);
            cand.add_to(&mut config);
            eval = new_eval;
            size = new_size;
            progress.push(ProgressPoint {
                optimizer_calls: calls,
                best_cost: eval.total_cost,
            });
        }
        drop(greedy_span);

        pdt_trace::emit(tracer, "baseline.end", || {
            vec![
                ("cost", eval.total_cost.into()),
                ("optimizer_calls", calls.into()),
            ]
        });
        BaselineReport {
            initial_cost,
            best_cost: eval.total_cost,
            best_size: size,
            best_config: config,
            candidate_count,
            optimizer_calls: calls,
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            progress,
            trace: tracer.map(|t| t.summary()),
            elapsed: start.elapsed(),
        }
    }

    /// Stage 2: each candidate participates in at most one merge.
    fn merge_pass(&self, candidates: &[Candidate]) -> Vec<Candidate> {
        let mut merged = Vec::new();
        let mut used: Vec<bool> = vec![false; candidates.len()];
        for i in 0..candidates.len() {
            if used[i] {
                continue;
            }
            for j in (i + 1)..candidates.len() {
                if used[j] {
                    continue;
                }
                match (&candidates[i], &candidates[j]) {
                    (Candidate::Index(a), Candidate::Index(b)) if a.table == b.table => {
                        if let Some(m) = a.merge(b) {
                            if &m != a && &m != b {
                                merged.push(Candidate::Index(m));
                                used[i] = true;
                                used[j] = true;
                                break;
                            }
                        }
                    }
                    (Candidate::View { view: v1, .. }, Candidate::View { view: v2, .. })
                        if v1.def.tables == v2.def.tables =>
                    {
                        if let Some(def) = pdt_physical::view::merge_views(&v1.def, &v2.def) {
                            let opt = Optimizer::new(self.db);
                            let scratch = Configuration::new();
                            let rows = opt.estimate_view_rows(&scratch, &def);
                            let id = scratch.allocate_view_id();
                            let view = MaterializedView::create(id, def, rows, self.db);
                            let clustered =
                                Index::clustered(id, [pdt_catalog::ColumnId::new(id, 0)]);
                            merged.push(Candidate::View {
                                view,
                                indexes: vec![clustered],
                            });
                            used[i] = true;
                            used[j] = true;
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        merged
    }
}

/// Generalize a query's SPJG definition into a shareable view: drop the
/// range and non-sargable predicates and expose their columns (grouping
/// by them when the view aggregates). AVG-style aggregates become
/// non-derivable under the coarser grouping — one of the characteristic
/// misses of syntactic view selection.
fn generalize(mut def: SpjgExpr) -> SpjgExpr {
    for r in std::mem::take(&mut def.ranges) {
        def.output_cols.insert(r.column);
        if def.is_grouped() {
            def.group_by.insert(r.column);
        }
    }
    for o in std::mem::take(&mut def.others) {
        for c in o.columns() {
            def.output_cols.insert(c);
            if def.is_grouped() {
                def.group_by.insert(c);
            }
        }
    }
    def.canonicalize();
    def
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt_catalog::{ColumnStats, ColumnType};
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
            ],
            vec![0],
        );
        b.add_table(
            "s",
            50_000.0,
            vec![mk("y", 50_000.0), mk("w", 500.0)],
            vec![0],
        );
        b.build()
    }

    fn workload(db: &Database, sql: &str) -> Workload {
        Workload::bind(db, &parse_workload(sql).unwrap()).unwrap()
    }

    const SQL: &str = "\
        SELECT r.c FROM r WHERE r.a = 5; \
        SELECT r.a FROM r WHERE r.b = 9; \
        SELECT r.a, s.w FROM r, s WHERE r.a = s.y AND s.w < 30";

    #[test]
    fn advisor_improves_over_base() {
        let db = test_db();
        let w = workload(&db, SQL);
        let report = BaselineAdvisor::new(&db, BaselineOptions::default()).tune(&w);
        assert!(report.best_cost < report.initial_cost);
        assert!(report.improvement_pct() > 0.0);
        assert!(report.candidate_count > 0);
        assert!(report.best_config.index_count() > Configuration::base(&db).index_count());
    }

    #[test]
    fn budget_is_respected() {
        let db = test_db();
        let w = workload(&db, SQL);
        let free = BaselineAdvisor::new(&db, BaselineOptions::default()).tune(&w);
        // Budget half of the *added* space on top of the mandatory base
        // configuration.
        let base_size = Configuration::base(&db).size_bytes(&db);
        let budget = base_size + (free.best_size - base_size) * 0.5;
        let constrained = BaselineAdvisor::new(
            &db,
            BaselineOptions {
                space_budget: Some(budget),
                ..Default::default()
            },
        )
        .tune(&w);
        assert!(constrained.best_size <= budget + 1.0);
        assert!(constrained.best_cost >= free.best_cost * 0.999);
    }

    #[test]
    fn progress_trace_is_monotone_decreasing() {
        let db = test_db();
        let w = workload(&db, SQL);
        let report = BaselineAdvisor::new(&db, BaselineOptions::default()).tune(&w);
        assert!(report.progress.len() >= 2, "at least base + one addition");
        for pair in report.progress.windows(2) {
            assert!(pair[1].best_cost <= pair[0].best_cost);
            assert!(pair[1].optimizer_calls >= pair[0].optimizer_calls);
        }
    }

    #[test]
    fn evaluation_budget_caps_work() {
        let db = test_db();
        let w = workload(&db, SQL);
        let report = BaselineAdvisor::new(
            &db,
            BaselineOptions {
                max_evaluations: 5,
                ..Default::default()
            },
        )
        .tune(&w);
        assert!(report.optimizer_calls <= 7, "{}", report.optimizer_calls);
    }

    #[test]
    fn candidate_cap_limits_per_query_structures() {
        let db = test_db();
        let w = workload(&db, SQL);
        let tight = BaselineAdvisor::new(
            &db,
            BaselineOptions {
                max_candidates_per_query: 1,
                ..Default::default()
            },
        )
        .tune(&w);
        let loose = BaselineAdvisor::new(&db, BaselineOptions::default()).tune(&w);
        assert!(tight.candidate_count <= loose.candidate_count);
    }

    #[test]
    fn index_only_mode_recommends_no_views() {
        let db = test_db();
        let w = workload(
            &db,
            "SELECT r.b, SUM(r.c) FROM r WHERE r.a < 100 GROUP BY r.b",
        );
        let report = BaselineAdvisor::new(
            &db,
            BaselineOptions {
                with_views: false,
                ..Default::default()
            },
        )
        .tune(&w);
        assert_eq!(report.best_config.view_count(), 0);
    }
}
