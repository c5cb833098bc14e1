//! The optimizer driver: binds blocks, enumerates join orders
//! (left-deep dynamic programming), matches materialized views, and
//! plans aggregation/ordering.
//!
//! A plan search is a pure function of a configuration and a prepared
//! statement, and does work proportional to what it decides. What no
//! configuration changes — the block, its cardinalities, every request
//! of the join enumeration — comes prepared ([`PreparedSelect`]). The
//! join search records *choices* — which access path, which join
//! method, which inner table — with their costs and cardinalities; plan
//! operators and usage records are built once, for the plan that won,
//! and a what-if call builds only the usage records. Each request is
//! answered once per invocation. DESIGN.md ("Plan search") has the
//! rules that keep the output bytes fixed.
//!
//! The §2 pass keeps no plan, so it does not search: [`Walk`] issues
//! the search's requests in the search's order to a [`RequestSink`] —
//! the only code that does — and decides nothing.

use crate::access::{AccessChoice, PreparedRequest};
use crate::card::group_count;
use crate::cost::CostModel;
use crate::plan::{Collect, CostOnly, Emit, IndexUsage, Materialize, Op, PhysPlan, UsagesOnly};
use crate::prepared::{JoinOrder, PreparedSelect, WhatIf};
use crate::request::{IndexRequest, RequestSink, ViewRequest};
use pdt_catalog::{ColumnId, Database, TableId};
use pdt_expr::{BoundSelect, ClassifiedPredicates};
use pdt_physical::{Configuration, MaterializedView, PhysicalSchema, SpjgExpr, ViewMatch};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-global count of *real* plan searches: every
/// [`Optimizer::optimize`], [`Optimizer::optimize_prepared`] and
/// [`Optimizer::what_if`] counts one, whether or not its statement was
/// prepared before. The derived-costing layer keeps its logical
/// counters mode-invariant (so reports stay byte-identical with
/// derivation on or off); this counter is the ground truth beneath
/// them — benches diff it across runs to measure how many plan searches
/// derivation actually skipped. Monotonic; meaningful only as a delta
/// within one process.
static INVOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Current value of the process-global invocation counter.
pub fn invocation_count() -> u64 {
    INVOCATIONS.load(Ordering::Relaxed)
}

/// Exhaustive DP keeps one record per subset of the FROM list, so it is
/// never run above this many tables whatever `max_dp_tables` says.
pub(crate) const DP_TABLE_LIMIT: usize = 16;

/// Optimizer tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerOptions {
    /// Largest FROM-list size optimized with exhaustive left-deep DP
    /// (at most 16); larger queries fall back to a greedy join order.
    pub max_dp_tables: usize,
    /// Whether to issue view requests for proper join subsets (the
    /// paper does; turning it off reproduces index-only tuning).
    pub subset_view_requests: bool,
    /// Cost model constants.
    pub cost: CostModel,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            max_dp_tables: 10,
            subset_view_requests: true,
            cost: CostModel::default(),
        }
    }
}

/// The cost-based optimizer.
pub struct Optimizer<'a> {
    pub db: &'a Database,
    pub opts: OptimizerOptions,
}

impl<'a> Optimizer<'a> {
    pub fn new(db: &'a Database) -> Optimizer<'a> {
        Optimizer {
            db,
            opts: OptimizerOptions::default(),
        }
    }

    pub fn with_options(db: &'a Database, opts: OptimizerOptions) -> Optimizer<'a> {
        Optimizer { db, opts }
    }

    /// Optimize under a fixed configuration (no instrumentation): one
    /// real plan search. The same as preparing `q` and running
    /// [`optimize_prepared`](Self::optimize_prepared) once.
    pub fn optimize(&self, config: &Configuration, q: &BoundSelect) -> PhysPlan {
        self.optimize_prepared(config, &self.prepare(q))
    }

    /// Derive what no configuration changes about optimizing `q`, for
    /// any number of [`what_if`](Self::what_if) or
    /// [`optimize_prepared`](Self::optimize_prepared) calls by this
    /// optimizer (same database, same options). Not a plan search.
    pub fn prepare(&self, q: &BoundSelect) -> PreparedSelect {
        PreparedSelect::new(self, q)
    }

    /// Optimize a prepared statement under a fixed configuration: one
    /// real plan search, bit-identical to [`optimize`](Self::optimize).
    pub fn optimize_prepared(&self, config: &Configuration, q: &PreparedSelect) -> PhysPlan {
        INVOCATIONS.fetch_add(1, Ordering::Relaxed);
        let mut e = Materialize::default();
        let done = Search::new(self, q, config).run(&mut e);
        PhysPlan {
            root: done.node,
            cost: done.cost,
            rows: done.rows,
            index_usages: e.usages,
        }
    }

    /// The tuner's what-if call: one real plan search of a prepared
    /// statement that reads the winner's cost, rows and index usages
    /// and builds no operator tree. Bit-identical to those fields of
    /// [`optimize`](Self::optimize).
    pub fn what_if(&self, config: &Configuration, q: &PreparedSelect) -> WhatIf {
        INVOCATIONS.fetch_add(1, Ordering::Relaxed);
        let mut e = UsagesOnly::default();
        let done = Search::new(self, q, config).run(&mut e);
        WhatIf {
            cost: done.cost,
            rows: done.rows,
            index_usages: e.usages,
        }
    }

    /// The §2 pass over `q` (Fig. 2's suspend/analyze/resume loop):
    /// issue to `sink` every index and view request a plan search of
    /// `q` makes, in its order, each built under the configuration the
    /// sink left behind, and decide nothing. The sink may extend
    /// `config` with hypothetical structures at each request. Not a
    /// plan search.
    pub fn observe_with_sink(
        &self,
        config: &mut Configuration,
        q: &BoundSelect,
        sink: &mut dyn RequestSink,
    ) {
        self.observe_prepared_with_sink(config, &self.prepare(q), sink);
    }

    /// [`observe_with_sink`](Self::observe_with_sink) of a statement
    /// prepared by this optimizer.
    pub fn observe_prepared_with_sink(
        &self,
        config: &mut Configuration,
        q: &PreparedSelect,
        sink: &mut dyn RequestSink,
    ) {
        Walk {
            db: self.db,
            opts: &self.opts,
            prep: q,
            config,
            sink,
        }
        .run();
    }

    /// Estimated output cardinality of an SPJG expression (used when
    /// simulating a view: "we use the cardinality module of the
    /// optimizer itself to estimate the number of tuples returned by
    /// the view definition", §3.3.1).
    pub fn estimate_view_rows(&self, config: &Configuration, def: &SpjgExpr) -> f64 {
        let schema = PhysicalSchema::new(self.db, config);
        let preds = ClassifiedPredicates {
            joins: def.joins.iter().copied().collect(),
            ranges: def.ranges.clone(),
            others: def.others.clone(),
        };
        let rows = crate::card::subset_rows(&schema, &def.tables, &preds);
        if def.is_grouped() {
            group_count(&schema, rows, &def.group_by)
        } else {
            rows
        }
    }
}

/// An access-path request and the choice made for it; the request is
/// kept because building the choice reads it again. Requests of the
/// join enumeration are borrowed from the prepared statement; a
/// request over a matched view is built by the search.
struct Access<'s> {
    request: Cow<'s, PreparedRequest>,
    choice: AccessChoice,
}

impl Access<'_> {
    fn cost(&self) -> f64 {
        self.choice.cost.total()
    }

    fn emit<E: Emit>(&self, e: &mut E, model: &CostModel, schema: &PhysicalSchema<'_>) -> E::Node {
        self.request.emit(e, model, schema, &self.choice)
    }
}

#[derive(Clone, Copy)]
enum JoinMethod {
    /// Hash join over the inner table's plain access path.
    Hash,
    /// Index nested loops: the inner access path is parameterized by
    /// the join columns and runs once per outer row.
    IndexNlj,
}

/// One decided join of a left-deep plan: the outer side is whatever was
/// decided for the remaining tables.
struct Join<'s> {
    /// Position of the inner table in the FROM list.
    inner: usize,
    method: JoinMethod,
    access: Rc<Access<'s>>,
    cost: f64,
    rows: f64,
}

/// The record the join search keeps per subset of tables: how its best
/// plan is reached, and that plan's cost and cardinality.
enum Decision<'s> {
    /// One access path: a single table, or a materialized view standing
    /// in for the whole subset.
    Access(Rc<Access<'s>>),
    Join(Join<'s>),
}

impl Decision<'_> {
    fn cost(&self) -> f64 {
        match self {
            Decision::Access(a) => a.cost(),
            Decision::Join(j) => j.cost,
        }
    }

    fn rows(&self) -> f64 {
        match self {
            Decision::Access(a) => a.choice.rows,
            Decision::Join(j) => j.rows,
        }
    }
}

/// A complete left-deep plan as decisions: a leaf access and the joins
/// above it, bottom-up.
struct LeftDeep<'s> {
    leaf: Rc<Access<'s>>,
    joins: Vec<Join<'s>>,
    /// Order provided by the plan output (satisfied request order for
    /// single-table plans; joins destroy order in this engine).
    provides_order: bool,
}

impl LeftDeep<'_> {
    fn cost(&self) -> f64 {
        self.joins.last().map_or(self.leaf.cost(), |j| j.cost)
    }

    fn rows(&self) -> f64 {
        self.joins.last().map_or(self.leaf.choice.rows, |j| j.rows)
    }
}

/// A sub-plan on its way through grouping, ordering and projection.
struct Stage<N> {
    node: N,
    cost: f64,
    rows: f64,
    ordered: bool,
}

/// `true` when `cost` strictly beats the best decision so far: among
/// equally cheap candidates the first enumerated wins.
fn improves(best: &Option<Decision<'_>>, cost: f64) -> bool {
    best.as_ref().is_none_or(|b| cost < b.cost())
}

/// The state of one plan search. It lives on the stack of the call that
/// created it, so the [`Optimizer`] itself stays shareable between
/// threads.
struct Search<'s> {
    db: &'s Database,
    opts: &'s OptimizerOptions,
    prep: &'s PreparedSelect,
    config: &'s Configuration,
    /// Per prepared request, the access path chosen for it in this
    /// invocation.
    chosen: Vec<Option<Rc<Access<'s>>>>,
}

impl<'s> Search<'s> {
    fn new(
        opt: &'s Optimizer<'_>,
        prep: &'s PreparedSelect,
        config: &'s Configuration,
    ) -> Search<'s> {
        Search {
            db: opt.db,
            opts: &opt.opts,
            prep,
            config,
            chosen: vec![None; prep.requests.len()],
        }
    }

    fn schema(&self) -> PhysicalSchema<'s> {
        PhysicalSchema::new(self.db, self.config)
    }

    /// Search, then send the winner to `e`.
    fn run<E: Collect>(mut self, e: &mut E) -> Stage<E::Node> {
        let prep = self.prep;
        let block = &prep.block;

        // ---- join-order search over base tables ---------------------
        let base = match &prep.order {
            JoinOrder::Single => {
                let leaf = self.table_access(prep.plain[0]);
                LeftDeep {
                    provides_order: leaf.choice.provides_order && !block.order_by.is_empty(),
                    leaf,
                    joins: Vec::new(),
                }
            }
            JoinOrder::Dp { .. } => self.dp_join(),
            JoinOrder::Greedy { .. } => self.greedy_join(),
        };

        // ---- grouping / ordering / projection on the base plan ------
        let mut best_cost = self.finish_base(&mut CostOnly, &base, ()).cost;

        // ---- whole-query view alternatives ---------------------------
        let mut best_view: Option<(ViewMatch, Rc<Access<'s>>)> = None;
        for (m, view_rows) in self.view_matches(None) {
            let Some(req) = prep.view_index_request(&m, view_rows, None) else {
                continue;
            };
            let access = self.view_access(req);
            let cost = self.finish_view(&mut CostOnly, &m, &access, ()).cost;
            if cost < best_cost {
                best_cost = cost;
                best_view = Some((m, access));
            }
        }

        // ---- build the winner ----------------------------------------
        let done = match best_view {
            Some((m, access)) => {
                let node = access.emit(e, &self.opts.cost, &self.schema());
                self.finish_view(e, &m, &access, node)
            }
            None => {
                let node = self.assemble(e, &base);
                self.finish_base(e, &base, node)
            }
        };
        debug_assert_eq!(done.cost.to_bits(), best_cost.to_bits());
        done
    }

    // -----------------------------------------------------------------
    // Requests
    // -----------------------------------------------------------------

    /// Access path for the prepared request `at`, chosen the first
    /// time the search asks for it and reused after that.
    fn table_access(&mut self, at: usize) -> Rc<Access<'s>> {
        if let Some(access) = &self.chosen[at] {
            return access.clone();
        }
        let request = &self.prep.requests[at];
        let choice = request.choose(&self.opts.cost, &self.schema());
        let access = Rc::new(Access {
            request: Cow::Borrowed(request),
            choice,
        });
        self.chosen[at] = Some(access.clone());
        access
    }

    /// The usable views over exactly the tables of `subset` (`None`:
    /// the whole block) that match the block's SPJG expression for
    /// them, with their row counts. The expression is built only if
    /// some view could match it.
    fn view_matches(&self, subset: Option<usize>) -> Vec<(ViewMatch, f64)> {
        let prep = self.prep;
        if !self.config.usable_views().any(|v| prep.spans(v, subset)) {
            return Vec::new();
        }
        prep.view_matches(self.config, &prep.view_request(subset), subset)
    }

    /// Access path for `req`, a request over a matched view.
    fn view_access(&self, req: IndexRequest) -> Rc<Access<'s>> {
        let (model, schema) = (&self.opts.cost, self.schema());
        let request = PreparedRequest::new(model, &schema, req);
        let choice = request.choose(model, &schema);
        Rc::new(Access {
            request: Cow::Owned(request),
            choice,
        })
    }

    // -----------------------------------------------------------------
    // Join enumeration
    // -----------------------------------------------------------------

    /// Cost the two ways of joining an outer plan of `outer_cost` and
    /// `outer_rows` with the table at FROM position `inner` — a hash
    /// join, then (when a join predicate connects them, `params` names
    /// the parameterized request) index nested loops — and keep in
    /// `best` the first strictly cheapest decision. The only copy of
    /// the join cost formulas; the DP and the greedy order both price
    /// through it.
    fn join_candidates(
        &mut self,
        (outer_cost, outer_rows): (f64, f64),
        inner: usize,
        params: Option<usize>,
        out_rows: f64,
        best: &mut Option<Decision<'s>>,
    ) {
        let model = self.opts.cost;
        let mut offer = |method: JoinMethod, access: Rc<Access<'s>>, cost: f64| {
            if improves(best, cost) {
                *best = Some(Decision::Join(Join {
                    inner,
                    method,
                    access,
                    cost,
                    rows: out_rows,
                }));
            }
        };

        // Hash join: full access of inner (local predicates only).
        let access = self.table_access(self.prep.plain[inner]);
        let inner_rows = access.choice.rows;
        let (build_rows, probe_rows) = if inner_rows < outer_rows {
            (inner_rows, outer_rows)
        } else {
            (outer_rows, inner_rows)
        };
        let width = self.schema().row_width(self.prep.block.tables[inner]);
        let jc = model.hash_join(build_rows, probe_rows, width);
        let cost = outer_cost + access.cost() + jc.total() + out_rows * model.cpu_tuple;
        offer(JoinMethod::Hash, access, cost);

        // Index nested-loops: parameterized inner executed per outer row.
        if let Some(at) = params {
            let access = self.table_access(at);
            let cost = outer_cost + outer_rows * access.cost() + out_rows * model.cpu_tuple;
            offer(JoinMethod::IndexNlj, access, cost);
        }
    }

    /// Exhaustive left-deep DP over a table of decisions indexed by
    /// subset mask. Candidates of one subset are enumerated in a fixed
    /// order — matching views, then per inner table (FROM order) hash
    /// join before index nested loops — and the first strictly cheapest
    /// is recorded; the outer side of a candidate is read from the
    /// table, never copied.
    fn dp_join(&mut self) -> LeftDeep<'s> {
        let prep = self.prep;
        let JoinOrder::Dp(order) = &prep.order else {
            unreachable!("dp_join runs on a DP order")
        };
        let full_mask = order.full_mask();
        let mut dp: Vec<Option<Decision<'s>>> = Vec::new();
        dp.resize_with(full_mask + 1, || None);

        for (i, &at) in prep.plain.iter().enumerate() {
            dp[1 << i] = Some(Decision::Access(self.table_access(at)));
        }

        for mask in order.masks() {
            let mut best: Option<Decision<'s>> = None;

            // View request for this SPJG sub-query (paper §2);
            // materialized views covering exactly this subset can
            // replace the whole join sub-expression.
            if self.opts.subset_view_requests && mask != full_mask {
                self.subset_view_candidates(mask, &mut best);
            }

            for (i, param) in order.joins(mask) {
                // Every smaller subset has at least its hash join.
                let outer = dp[mask & !(1 << i)].as_ref().expect("outer side decided");
                let outer = (outer.cost(), outer.rows());
                self.join_candidates(outer, i, param, order.rows[mask], &mut best);
            }
            dp[mask] = best;
        }

        // Walk the decisions down from the full set.
        let mut joins = Vec::with_capacity(prep.plain.len() - 1);
        let mut mask = full_mask;
        let leaf = loop {
            match dp[mask].take().expect("every subset has a hash-join plan") {
                Decision::Join(j) => {
                    mask &= !(1 << j.inner);
                    joins.push(j);
                }
                Decision::Access(leaf) => break leaf,
            }
        };
        joins.reverse();
        LeftDeep {
            leaf,
            joins,
            provides_order: false,
        }
    }

    /// Offer every matched view over exactly the tables of `mask` as a
    /// replacement for the join sub-expression (ungrouped matches only —
    /// grouped views never match subset SPJGs because those carry no
    /// grouping).
    fn subset_view_candidates(&mut self, mask: usize, best: &mut Option<Decision<'s>>) {
        let prep = self.prep;
        for (m, view_rows) in self.view_matches(Some(mask)) {
            let Some(req) = prep.view_index_request(&m, view_rows, Some(mask)) else {
                continue;
            };
            let access = self.view_access(req);
            if improves(best, access.cost()) {
                *best = Some(Decision::Access(access));
            }
        }
    }

    /// The prepared greedy left-deep order, for very large FROM lists.
    fn greedy_join(&mut self) -> LeftDeep<'s> {
        let prep = self.prep;
        let JoinOrder::Greedy { first, steps } = &prep.order else {
            unreachable!("greedy_join runs on a greedy order")
        };
        let leaf = self.table_access(prep.plain[*first]);
        let mut current = (leaf.cost(), leaf.choice.rows);
        let mut joins = Vec::with_capacity(steps.len());
        for step in steps {
            let mut best = None;
            self.join_candidates(current, step.inner, step.params, step.rows, &mut best);
            let Some(Decision::Join(join)) = best else {
                unreachable!("a hash join is always available")
            };
            current = (join.cost, join.rows);
            joins.push(join);
        }
        LeftDeep {
            leaf,
            joins,
            provides_order: false,
        }
    }

    // -----------------------------------------------------------------
    // Building the winner
    // -----------------------------------------------------------------

    /// Send the operators and usage records of a decided left-deep plan
    /// to `e`: usages of the outer side first, then the inner side's,
    /// those of a nested-loops inner scaled to the whole join.
    fn assemble<E: Collect>(&self, e: &mut E, plan: &LeftDeep<'_>) -> E::Node {
        let model = &self.opts.cost;
        let schema = self.schema();
        let mut node = plan.leaf.emit(e, model, &schema);
        let mut outer_rows = plan.leaf.choice.rows;
        for join in &plan.joins {
            let from = e.usages().len();
            let inner = join.access.emit(e, model, &schema);
            let op = match join.method {
                JoinMethod::Hash => Op::HashJoin,
                JoinMethod::IndexNlj => {
                    // Scale the per-execution usage to the whole join.
                    let runs = outer_rows.max(1.0);
                    for u in &mut e.usages()[from..] {
                        u.access_io *= runs;
                        u.access_cpu *= runs;
                        u.rows *= runs;
                        u.resid_filter_cpu *= runs;
                        u.executions *= runs;
                    }
                    Op::NestedLoopJoin
                }
            };
            node = e.binary(op, join.cost, join.rows, node, inner);
            outer_rows = join.rows;
        }
        node
    }

    /// Finish the pre-aggregation plan of the base tables: grouping,
    /// ordering, projection.
    fn finish_base<E: Emit>(
        &self,
        e: &mut E,
        base: &LeftDeep<'_>,
        node: E::Node,
    ) -> Stage<E::Node> {
        let block = &self.prep.block;
        let schema = self.schema();
        let sort_width = block
            .output_cols
            .iter()
            .map(|c| schema.column_width(*c))
            .sum::<f64>()
            .max(8.0);
        let stage = Stage {
            node,
            cost: base.cost(),
            rows: base.rows(),
            ordered: base.provides_order,
        };
        let group_by = block.is_grouped().then_some(&block.group_by);
        self.finish(e, stage, group_by, sort_width)
    }

    /// Finish the plan of a query rewritten over a matched view: the
    /// compensating group-by, ordering, projection.
    fn finish_view<E: Emit>(
        &self,
        e: &mut E,
        m: &ViewMatch,
        access: &Access<'_>,
        node: E::Node,
    ) -> Stage<E::Node> {
        // The request carried the whole ORDER BY or none of it.
        let order_requested = !access.request.req.order.is_empty();
        let stage = Stage {
            node,
            cost: access.cost(),
            rows: access.choice.rows,
            ordered: access.choice.provides_order && order_requested,
        };
        let group_cols: BTreeSet<ColumnId> = m.regroup_cols.iter().copied().collect();
        self.finish(e, stage, m.regroup.then_some(&group_cols), 64.0)
    }

    /// Grouping (when `group_by` is given), a sort of `sort_width`-byte
    /// rows unless the input already has the query's order, the row
    /// limit, and the projection.
    fn finish<E: Emit>(
        &self,
        e: &mut E,
        stage: Stage<E::Node>,
        group_by: Option<&BTreeSet<ColumnId>>,
        sort_width: f64,
    ) -> Stage<E::Node> {
        let block = &self.prep.block;
        let model = &self.opts.cost;
        let Stage {
            mut node,
            mut cost,
            mut rows,
            mut ordered,
        } = stage;

        if let Some(group_by) = group_by {
            let groups = group_count(&self.schema(), rows, group_by);
            cost += model.hash_aggregate(rows, groups).total();
            node = e.unary(
                || Op::HashAggregate {
                    groups: group_by.len(),
                },
                cost,
                groups,
                node,
            );
            rows = groups;
            ordered = false;
        }

        if !block.order_by.is_empty() && !ordered {
            cost += model.sort(rows, sort_width).total();
            node = e.unary(
                || Op::Sort {
                    columns: block.order_by.clone(),
                },
                cost,
                rows,
                node,
            );
        }

        if let Some(k) = block.top {
            rows = rows.min(k as f64);
        }
        cost += rows * model.cpu_tuple;
        node = e.unary(|| Op::Project, cost, rows, node);
        Stage {
            node,
            cost,
            rows,
            ordered,
        }
    }
}

/// The view requests of a plan search and the index requests over the
/// views that match them, built the same way for the search and for
/// the instrumentation walk.
impl PreparedSelect {
    /// True if `view` is defined over exactly the block's tables, or
    /// exactly those at the FROM positions of `subset`.
    fn spans(&self, view: &MaterializedView, subset: Option<usize>) -> bool {
        let block = &self.block;
        let count = subset.map_or(block.tables.len(), |mask| mask.count_ones() as usize);
        view.def.tables.len() == count
            && view.def.tables.iter().all(|t| match subset {
                Some(mask) => self.in_mask(mask, *t),
                None => block.tables.contains(t),
            })
    }

    /// The view request for the SPJG expression over the tables of
    /// `subset` (`None`: the whole block).
    fn view_request(&self, subset: Option<usize>) -> ViewRequest {
        let block = &self.block;
        let spjg = match subset {
            Some(mask) => {
                let tables = block.tables.iter().enumerate();
                let tables = tables.filter(|(i, _)| mask >> i & 1 == 1).map(|(_, t)| *t);
                block.spjg_for_subset(&tables.collect())
            }
            None => block.to_spjg(),
        };
        ViewRequest {
            spjg,
            top_level: subset.is_none(),
        }
    }

    /// The usable views of `config` over exactly the tables of `subset`
    /// that match `req`, its view request, with their row counts.
    fn view_matches(
        &self,
        config: &Configuration,
        req: &ViewRequest,
        subset: Option<usize>,
    ) -> Vec<(ViewMatch, f64)> {
        config
            .usable_views()
            .filter(|v| self.spans(v, subset))
            .filter_map(|v| v.try_match(&req.spjg).map(|m| (m, v.rows)))
            .collect()
    }

    /// The index request over a view matched for `subset`: the
    /// residual predicates of the match, and the view columns the rest
    /// of the plan reads. A whole-query match also carries the query's
    /// aggregates and its order; a join subset's match carries neither,
    /// and one that must be regrouped is not offered at all (`None`):
    /// grouped views never match subset SPJGs, which carry no grouping.
    fn view_index_request(
        &self,
        m: &ViewMatch,
        view_rows: f64,
        subset: Option<usize>,
    ) -> Option<IndexRequest> {
        let whole = subset.is_none();
        if !whole && m.regroup {
            return None;
        }
        let aggregates = m.agg_map.iter().filter(|_| whole).map(|(_, ord)| *ord);
        let additional = m.base_map.iter().map(|(_, ord)| *ord).chain(aggregates);
        Some(IndexRequest {
            table: m.view_id,
            sargable: m.residual_ranges.clone(),
            non_sargable: m
                .residual_others
                .iter()
                .map(|o| (o.columns(), o.selectivity))
                .collect(),
            order: if whole {
                self.view_order(m)
            } else {
                Vec::new()
            },
            additional: additional
                .map(|ord| ColumnId::new(m.view_id, ord))
                .collect(),
            input_rows: view_rows,
        })
    }

    /// The order request of the query, mapped onto a matched view's
    /// columns (empty when the view must be regrouped first, or when
    /// some order column is not in the view).
    fn view_order(&self, m: &ViewMatch) -> Vec<(ColumnId, bool)> {
        if m.regroup {
            return Vec::new();
        }
        let order_by = &self.block.order_by;
        let order: Vec<(ColumnId, bool)> = order_by
            .iter()
            .filter_map(|(c, d)| {
                m.base_map
                    .iter()
                    .find(|(b, _)| b == c)
                    .map(|(_, ord)| (ColumnId::new(m.view_id, *ord), *d))
            })
            .collect();
        if order.len() == order_by.len() {
            order
        } else {
            Vec::new()
        }
    }
}

/// The §2 pass over one prepared statement: every request the plan
/// search makes, in the search's order, each answered by the sink
/// before the next one is built — and nothing chosen, costed or kept.
/// The search's order is read from the same places: the prepared
/// requests, [`DpOrder`](crate::prepared::DpOrder)'s subsets and join
/// candidates, the greedy steps, and the view requests above.
struct Walk<'w> {
    db: &'w Database,
    opts: &'w OptimizerOptions,
    prep: &'w PreparedSelect,
    config: &'w mut Configuration,
    sink: &'w mut dyn RequestSink,
}

impl Walk<'_> {
    fn run(mut self) {
        let prep = self.prep;
        match &prep.order {
            JoinOrder::Single => self.table(prep.plain[0]),
            JoinOrder::Dp(order) => {
                for &at in &prep.plain {
                    self.table(at);
                }
                for mask in order.masks() {
                    if self.opts.subset_view_requests && mask != order.full_mask() {
                        self.views(Some(mask));
                    }
                    for (inner, param) in order.joins(mask) {
                        self.join(inner, param);
                    }
                }
            }
            JoinOrder::Greedy { first, steps } => {
                self.table(prep.plain[*first]);
                for step in steps {
                    self.join(step.inner, step.params);
                }
            }
        }
        self.views(None);
    }

    /// Issue the prepared request `at`.
    fn table(&mut self, at: usize) {
        let req = &self.prep.requests[at].req;
        self.sink.on_index_request(req, self.db, self.config);
    }

    /// The requests of joining the table at FROM position `inner`: its
    /// plain request (the hash join's inner side), then its
    /// parameterized one (index nested loops), in the order
    /// [`Search::join_candidates`] reads them.
    fn join(&mut self, inner: usize, param: Option<usize>) {
        self.table(self.prep.plain[inner]);
        if let Some(at) = param {
            self.table(at);
        }
    }

    /// The view request for `subset` (`None`: the whole block), then an
    /// index request over each view that matches it once answered.
    fn views(&mut self, subset: Option<usize>) {
        let prep = self.prep;
        let req = prep.view_request(subset);
        self.sink.on_view_request(&req, self.db, self.config);
        for (m, view_rows) in prep.view_matches(self.config, &req, subset) {
            if let Some(req) = prep.view_index_request(&m, view_rows, subset) {
                self.sink.on_index_request(&req, self.db, self.config);
            }
        }
    }
}

/// The structure footprint of a plan: 128-bit content signatures of
/// every physical structure its access paths touch — the used indexes,
/// plus (for indexes over views) the views those indexes serve. Matches
/// the per-structure encoding of [`Configuration::signature128`], so a
/// footprint can be tested for survival against any configuration's
/// relevant-structure set. Sorted and deduplicated.
///
/// The signatures are the ones `config` holds for its structures; a
/// plan made under `config` uses no other index (a usage list from
/// another configuration gets its foreign indexes hashed here).
pub fn plan_footprint(usages: &[IndexUsage], config: &Configuration) -> Vec<u128> {
    let mut out: Vec<u128> = Vec::with_capacity(usages.len());
    for u in usages {
        let sig = config.index_sig(&u.index);
        out.push(sig.unwrap_or_else(|| pdt_physical::index_sig128(&u.index)));
        if u.index.table.is_view() {
            if let Some((_, s)) = config.view_with_sig(u.index.table) {
                out.push(s);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// INUM/CoPhy-style plan re-pricing: re-validate a cached plan's access
/// paths against a new configuration and carry its cost over without a
/// plan search. Each used index must still exist, and indexes over
/// views need their view present and usable (clustered index in
/// place). When every access path survives, the §3.3.2-style local
/// patch is empty — no structure the plan reads changed under this
/// catalog model — so the cached cost is returned unchanged. `None`
/// means an access path was invalidated and the caller must fall back
/// to a real optimizer invocation.
pub fn reprice_plan(
    cached_cost: f64,
    usages: &[IndexUsage],
    config: &Configuration,
) -> Option<f64> {
    for u in usages {
        if !config.contains_index(&u.index) {
            return None;
        }
        if u.index.table.is_view()
            && (config.view(u.index.table).is_none()
                || config.clustered_index_on(u.index.table).is_none())
        {
            return None;
        }
    }
    Some(cached_cost)
}

/// Create a materialized view for a definition: estimate its rows with
/// the optimizer's cardinality module and register it (without any
/// index — callers add a clustered index to make it usable).
pub fn simulate_view(opt: &Optimizer<'_>, config: &mut Configuration, def: SpjgExpr) -> TableId {
    if let Some(v) = config.find_view_by_def(&def) {
        return v.id;
    }
    let rows = opt.estimate_view_rows(config, &def);
    let id = config.allocate_view_id();
    config.add_view(MaterializedView::create(id, def, rows, opt.db));
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::QueryBlock;
    use crate::request::CountingSink;
    use pdt_catalog::{ColumnStats, ColumnType};
    use pdt_expr::Binder;
    use pdt_physical::Index;
    use pdt_sql::parse_statement;

    fn test_db() -> Database {
        let mut b = Database::builder("t");
        let mk = |name: &str, ndv: f64| pdt_catalog::Column {
            name: name.into(),
            ty: ColumnType::Int,
            stats: ColumnStats::uniform(ndv, 0.0, ndv, 4.0),
        };
        let fact = b.add_table(
            "fact",
            1_000_000.0,
            vec![
                mk("id", 1_000_000.0),
                mk("fk1", 1_000.0),
                mk("fk2", 100.0),
                mk("v", 10_000.0),
                mk("w", 50.0),
            ],
            vec![0],
        );
        let d1 = b.add_table(
            "dim1",
            1_000.0,
            vec![mk("pk", 1_000.0), mk("attr", 20.0)],
            vec![0],
        );
        let d2 = b.add_table(
            "dim2",
            100.0,
            vec![mk("pk", 100.0), mk("attr", 5.0)],
            vec![0],
        );
        b.add_foreign_key(fact, 1, d1, 0);
        b.add_foreign_key(fact, 2, d2, 0);
        b.build()
    }

    fn plan_sql(db: &Database, config: &Configuration, sql: &str) -> PhysPlan {
        let stmt = parse_statement(sql).unwrap();
        let bound = Binder::new(db).bind(&stmt).unwrap();
        Optimizer::new(db).optimize(config, bound.as_select().unwrap())
    }

    #[test]
    fn single_table_plan_costs_less_with_index() {
        let db = test_db();
        let base = Configuration::base(&db);
        let sql = "SELECT fact.v FROM fact WHERE fact.fk1 = 7";
        let p0 = plan_sql(&db, &base, sql);
        let mut with_ix = base.clone();
        let t = db.table_by_name("fact").unwrap();
        with_ix.add_index(Index::new(t.id, [t.column_id(1)], [t.column_id(3)]));
        let p1 = plan_sql(&db, &with_ix, sql);
        assert!(
            p1.cost < p0.cost / 10.0,
            "index should speed up: {} vs {}",
            p1.cost,
            p0.cost
        );
        assert!(p1.index_usages.iter().any(|u| !u.index.clustered));
    }

    #[test]
    fn join_query_produces_join_plan() {
        let db = test_db();
        let base = Configuration::base(&db);
        let p = plan_sql(
            &db,
            &base,
            "SELECT fact.v, dim1.attr FROM fact, dim1 \
             WHERE fact.fk1 = dim1.pk AND dim1.attr = 3",
        );
        let mut joins = 0;
        p.root.walk(&mut |n| {
            if matches!(n.op, Op::HashJoin | Op::NestedLoopJoin) {
                joins += 1;
            }
        });
        assert_eq!(joins, 1);
        assert!(p.rows > 0.0);
    }

    #[test]
    fn three_way_join_dp() {
        let db = test_db();
        let base = Configuration::base(&db);
        let p = plan_sql(
            &db,
            &base,
            "SELECT fact.v FROM fact, dim1, dim2 \
             WHERE fact.fk1 = dim1.pk AND fact.fk2 = dim2.pk \
             AND dim1.attr = 3 AND dim2.attr = 1",
        );
        let mut joins = 0;
        p.root.walk(&mut |n| {
            if matches!(n.op, Op::HashJoin | Op::NestedLoopJoin) {
                joins += 1;
            }
        });
        assert_eq!(joins, 2);
    }

    #[test]
    fn index_nlj_wins_with_join_index() {
        let db = test_db();
        let mut config = Configuration::base(&db);
        let fact = db.table_by_name("fact").unwrap();
        // Covering join index on the fact foreign key.
        config.add_index(Index::new(
            fact.id,
            [fact.column_id(1)],
            [fact.column_id(3)],
        ));
        let p = plan_sql(
            &db,
            &config,
            "SELECT fact.v FROM fact, dim1 \
             WHERE fact.fk1 = dim1.pk AND dim1.attr = 3",
        );
        let mut has_nlj = false;
        p.root.walk(&mut |n| {
            if matches!(n.op, Op::NestedLoopJoin) {
                has_nlj = true;
            }
        });
        assert!(has_nlj, "expected index NLJ:\n{}", p.explain());
    }

    #[test]
    fn grouped_query_aggregates() {
        let db = test_db();
        let base = Configuration::base(&db);
        let p = plan_sql(
            &db,
            &base,
            "SELECT fact.fk2, SUM(fact.v) FROM fact GROUP BY fact.fk2",
        );
        let mut has_agg = false;
        p.root.walk(&mut |n| {
            if matches!(n.op, Op::HashAggregate { .. }) {
                has_agg = true;
            }
        });
        assert!(has_agg);
        assert!(p.rows <= 100.0 + 1.0);
    }

    #[test]
    fn counting_sink_sees_requests() {
        let db = test_db();
        let mut config = Configuration::base(&db);
        let stmt = parse_statement(
            "SELECT fact.v FROM fact, dim1, dim2 \
             WHERE fact.fk1 = dim1.pk AND fact.fk2 = dim2.pk",
        )
        .unwrap();
        let bound = Binder::new(&db).bind(&stmt).unwrap();
        let mut sink = CountingSink::default();
        Optimizer::new(&db).observe_with_sink(&mut config, bound.as_select().unwrap(), &mut sink);
        // Three leaves, then one hash request per `(mask, inner)` pair
        // (2 + 2 + 2 + 3) and one parameterized request per connected
        // pair (2 + 2 + 0 + 3): the walk issues every one.
        assert_eq!(sink.index_requests, 19, "{:?}", sink);
        // Subsets of size 2 (three of them) plus the full query.
        assert_eq!(sink.view_requests, 4, "{:?}", sink);
    }

    #[test]
    fn exact_view_match_wins() {
        let db = test_db();
        let mut config = Configuration::base(&db);
        let stmt = parse_statement(
            "SELECT fact.fk2, SUM(fact.v) FROM fact WHERE fact.w = 3 GROUP BY fact.fk2",
        )
        .unwrap();
        let bound = Binder::new(&db).bind(&stmt).unwrap();
        let opt = Optimizer::new(&db);
        let baseline = opt.optimize(&config, bound.as_select().unwrap());

        // Simulate exactly this query as a view + clustered index.
        let block = QueryBlock::from_bound(&db, bound.as_select().unwrap());
        let def = block.to_spjg();
        let vid = simulate_view(&opt, &mut config, def);
        config.add_index(Index::clustered(vid, [ColumnId::new(vid, 0)]));

        let with_view = opt.optimize(&config, bound.as_select().unwrap());
        assert!(
            with_view.cost < baseline.cost / 50.0,
            "view should collapse the plan: {} vs {}",
            with_view.cost,
            baseline.cost
        );
        assert!(with_view
            .index_usages
            .iter()
            .any(|u| u.index.table.is_view()));
    }

    #[test]
    fn view_rows_estimated_with_grouping() {
        let db = test_db();
        let config = Configuration::base(&db);
        let opt = Optimizer::new(&db);
        let fact = db.table_by_name("fact").unwrap();
        let def = SpjgExpr {
            tables: [fact.id].into(),
            group_by: [fact.column_id(2)].into(),
            aggregates: vec![],
            output_cols: [fact.column_id(2)].into(),
            ..Default::default()
        };
        let rows = opt.estimate_view_rows(&config, &def);
        assert!((rows - 100.0).abs() < 2.0, "rows={rows}");
    }

    #[test]
    fn order_by_adds_sort_unless_index_provides() {
        let db = test_db();
        let base = Configuration::base(&db);
        let p = plan_sql(
            &db,
            &base,
            "SELECT fact.v FROM fact WHERE fact.fk2 = 5 ORDER BY fact.v",
        );
        let mut has_sort = false;
        p.root.walk(&mut |n| {
            if matches!(n.op, Op::Sort { .. }) {
                has_sort = true;
            }
        });
        assert!(has_sort);

        let mut config = base.clone();
        let fact = db.table_by_name("fact").unwrap();
        config.add_index(Index::new(
            fact.id,
            [fact.column_id(2), fact.column_id(3)],
            [],
        ));
        let p2 = plan_sql(
            &db,
            &config,
            "SELECT fact.v FROM fact WHERE fact.fk2 = 5 ORDER BY fact.v",
        );
        let mut has_sort2 = false;
        p2.root.walk(&mut |n| {
            if matches!(n.op, Op::Sort { .. }) {
                has_sort2 = true;
            }
        });
        assert!(
            !has_sort2,
            "eq-prefix + order column avoids sort:\n{}",
            p2.explain()
        );
        assert!(p2.cost <= p.cost);
    }

    #[test]
    fn greedy_join_handles_many_tables() {
        // 3 tables with max_dp_tables = 2 forces the greedy path.
        let db = test_db();
        let base = Configuration::base(&db);
        let stmt = parse_statement(
            "SELECT fact.v FROM fact, dim1, dim2 \
             WHERE fact.fk1 = dim1.pk AND fact.fk2 = dim2.pk",
        )
        .unwrap();
        let bound = Binder::new(&db).bind(&stmt).unwrap();
        let opt = Optimizer::with_options(
            &db,
            OptimizerOptions {
                max_dp_tables: 2,
                ..Default::default()
            },
        );
        let p = opt.optimize(&base, bound.as_select().unwrap());
        let mut joins = 0;
        p.root.walk(&mut |n| {
            if matches!(n.op, Op::HashJoin | Op::NestedLoopJoin) {
                joins += 1;
            }
        });
        assert_eq!(joins, 2);
    }

    #[test]
    fn wide_from_lists_plan_greedily_whatever_max_dp_tables_says() {
        // 17 tables in a chain with `max_dp_tables: 64`: exhaustive DP
        // would need a 2^17-record table (and a shift overflow at 64),
        // so the clamp sends the block down the greedy path.
        const N: usize = 17;
        let mut b = Database::builder("wide");
        for i in 0..N {
            let col = |name: &str, ndv: f64| pdt_catalog::Column {
                name: name.into(),
                ty: ColumnType::Int,
                stats: ColumnStats::uniform(ndv, 0.0, ndv, 4.0),
            };
            b.add_table(
                format!("t{i}"),
                1_000.0 * (i + 1) as f64,
                vec![col("pk", 1_000.0), col("fk", 500.0)],
                vec![0],
            );
        }
        let db = b.build();
        let from: Vec<String> = (0..N).map(|i| format!("t{i}")).collect();
        let joins: Vec<String> = (1..N).map(|i| format!("t{}.fk = t{i}.pk", i - 1)).collect();
        let sql = format!(
            "SELECT t0.pk FROM {} WHERE {}",
            from.join(", "),
            joins.join(" AND ")
        );
        let bound = Binder::new(&db)
            .bind(&parse_statement(&sql).unwrap())
            .unwrap();
        let opt = Optimizer::with_options(
            &db,
            OptimizerOptions {
                max_dp_tables: 64,
                ..Default::default()
            },
        );
        let p = opt.optimize(&Configuration::base(&db), bound.as_select().unwrap());
        assert!(p.cost.is_finite() && p.cost > 0.0);
        let mut joins = 0;
        p.root.walk(&mut |n| {
            if matches!(n.op, Op::HashJoin | Op::NestedLoopJoin) {
                joins += 1;
            }
        });
        assert_eq!(joins, N - 1);
    }

    #[test]
    fn subset_view_replaces_join_subexpression() {
        // A view over {fact, dim1} should serve the {fact, dim1} part
        // of a three-table query, leaving one join to dim2.
        let db = test_db();
        let mut config = Configuration::base(&db);
        let sql = "SELECT fact.v FROM fact, dim1, dim2 \
                   WHERE fact.fk1 = dim1.pk AND fact.fk2 = dim2.pk AND dim1.attr = 3";
        let stmt = parse_statement(sql).unwrap();
        let bound = Binder::new(&db).bind(&stmt).unwrap();
        let opt = Optimizer::new(&db);
        let without = opt.optimize(&config, bound.as_select().unwrap());

        // Build the exact {fact, dim1} subset SPJG and simulate it.
        let block = QueryBlock::from_bound(&db, bound.as_select().unwrap());
        let fact = db.table_by_name("fact").unwrap().id;
        let dim1 = db.table_by_name("dim1").unwrap().id;
        let sub = block.spjg_for_subset(&[fact, dim1].into());
        let vid = simulate_view(&opt, &mut config, sub);
        config.add_index(Index::clustered(vid, [ColumnId::new(vid, 0)]));

        let with_view = opt.optimize(&config, bound.as_select().unwrap());
        assert!(
            with_view.cost < without.cost,
            "subset view should pay off: {} vs {}",
            with_view.cost,
            without.cost
        );
        assert!(
            with_view.index_usages.iter().any(|u| u.index.table == vid),
            "the plan must read the view:\n{}",
            with_view.explain()
        );
        // Exactly one join remains (view ⋈ dim2).
        let mut joins = 0;
        with_view.root.walk(&mut |n| {
            if matches!(n.op, Op::HashJoin | Op::NestedLoopJoin) {
                joins += 1;
            }
        });
        assert_eq!(joins, 1, "{}", with_view.explain());
    }

    #[test]
    fn nlj_inner_usages_are_scaled_to_the_whole_join() {
        let db = test_db();
        let mut config = Configuration::base(&db);
        let fact = db.table_by_name("fact").unwrap();
        config.add_index(Index::new(
            fact.id,
            [fact.column_id(1)],
            [fact.column_id(3)],
        ));
        let p = plan_sql(
            &db,
            &config,
            "SELECT fact.v FROM fact, dim1 \
             WHERE fact.fk1 = dim1.pk AND dim1.attr = 3",
        );
        let mut has_nlj = false;
        p.root.walk(&mut |n| {
            if matches!(n.op, Op::NestedLoopJoin) {
                has_nlj = true;
            }
        });
        if has_nlj {
            // The inner fact index runs once per outer row; its usage
            // must reflect the total work, not a single execution.
            let usage = p
                .index_usages
                .iter()
                .find(|u| !u.index.clustered && u.index.table == fact.id)
                .expect("join index used");
            assert!(usage.rows > 1.0, "scaled rows expected, got {}", usage.rows);
            assert!(usage.access_cost() > 0.0);
        }
    }

    #[test]
    fn cross_product_falls_back_gracefully() {
        // No join predicate at all: the optimizer must still produce a
        // (cartesian) plan with finite cost.
        let db = test_db();
        let base = Configuration::base(&db);
        let p = plan_sql(&db, &base, "SELECT fact.v, dim2.attr FROM fact, dim2");
        assert!(p.cost.is_finite());
        assert!(p.rows > 1e7, "cartesian cardinality expected: {}", p.rows);
    }

    #[test]
    fn top_limits_projected_rows() {
        let db = test_db();
        let base = Configuration::base(&db);
        let p = plan_sql(&db, &base, "SELECT TOP 7 fact.v FROM fact ORDER BY fact.v");
        assert!(p.rows <= 7.0);
    }
}
