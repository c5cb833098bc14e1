//! The optimizer driver: binds blocks, enumerates join orders
//! (left-deep dynamic programming), matches materialized views, and
//! plans aggregation/ordering — invoking the [`RequestSink`] at every
//! index- and view-request point.

use crate::access::{best_access_path, AccessPath};
use crate::block::QueryBlock;
use crate::card::{group_count, join_selectivity, subset_rows};
use crate::cost::CostModel;
use crate::plan::{IndexUsage, Op, PhysPlan, PlanNode};
use crate::request::{IndexRequest, NullSink, RequestSink, ViewRequest};
use pdt_catalog::{ColumnId, Database, TableId};
use pdt_expr::{BoundSelect, ClassifiedPredicates, Sarg, SargablePred};
use pdt_physical::{Configuration, MaterializedView, PhysicalSchema, SpjgExpr, ViewMatch};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-global count of *real* plan searches ([`Optimizer::optimize`]
/// invocations). The derived-costing layer keeps its logical counters
/// mode-invariant (so reports stay byte-identical with derivation on or
/// off); this counter is the ground truth beneath them — benches diff
/// it across runs to measure how many plan searches derivation actually
/// skipped. Monotonic; meaningful only as a delta within one process.
static INVOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Current value of the process-global invocation counter.
pub fn invocation_count() -> u64 {
    INVOCATIONS.load(Ordering::Relaxed)
}

/// Optimizer tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerOptions {
    /// Largest FROM-list size optimized with exhaustive left-deep DP;
    /// larger queries fall back to a greedy join order.
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

#[derive(Clone)]
struct SubPlan {
    node: PlanNode,
    cost: f64,
    rows: f64,
    usages: Vec<IndexUsage>,
    /// Order provided by the subplan output (satisfied request order
    /// for single-table plans; joins destroy order in this engine).
    provides_order: bool,
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

    /// Optimize under a fixed configuration (no instrumentation).
    pub fn optimize(&self, config: &Configuration, q: &BoundSelect) -> PhysPlan {
        INVOCATIONS.fetch_add(1, Ordering::Relaxed);
        let mut working = config.clone();
        self.optimize_with_sink(&mut working, q, &mut NullSink)
    }

    /// Optimize, invoking `sink` at every index/view request. The sink
    /// may extend `config` with hypothetical structures mid-flight
    /// (Fig. 2's suspend/analyze/resume loop).
    pub fn optimize_with_sink(
        &self,
        config: &mut Configuration,
        q: &BoundSelect,
        sink: &mut dyn RequestSink,
    ) -> PhysPlan {
        let block = QueryBlock::from_bound(self.db, q);
        self.optimize_block(config, &block, sink)
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
        let rows = subset_rows(&schema, &def.tables, &preds);
        if def.is_grouped() {
            group_count(&schema, rows, &def.group_by)
        } else {
            rows
        }
    }

    fn optimize_block(
        &self,
        config: &mut Configuration,
        block: &QueryBlock,
        sink: &mut dyn RequestSink,
    ) -> PhysPlan {
        let n = block.tables.len();

        // ---- join-order search over base tables ---------------------
        let base = if n <= self.opts.max_dp_tables {
            self.dp_join(config, block, sink)
        } else {
            self.greedy_join(config, block, sink)
        };

        // ---- grouping / ordering / projection on the base plan ------
        let mut best = self.finish_plan(config, block, base);

        // ---- whole-query view alternatives ---------------------------
        let full_spjg = block.to_spjg();
        sink.on_view_request(
            &ViewRequest {
                spjg: full_spjg.clone(),
                top_level: true,
            },
            self.db,
            config,
        );
        let matches: Vec<(ViewMatch, f64)> = config
            .usable_views()
            .filter_map(|v| v.try_match(&full_spjg).map(|m| (m, v.rows)))
            .collect();
        for (m, view_rows) in matches {
            if let Some(candidate) = self.view_plan(config, block, &m, view_rows, sink) {
                if candidate.cost < best.cost {
                    best = candidate;
                }
            }
        }
        best
    }

    /// Finish a pre-aggregation subplan: grouping, ordering,
    /// projection. (Plans from exact grouped view matches never pass
    /// through here — `view_plan` finishes those itself.)
    fn finish_plan(&self, config: &Configuration, block: &QueryBlock, sub: SubPlan) -> PhysPlan {
        let schema = PhysicalSchema::new(self.db, config);
        let model = &self.opts.cost;
        let mut node = sub.node;
        let mut cost = node.cost;
        let mut rows = sub.rows;
        let mut ordered = sub.provides_order;

        if block.is_grouped() {
            let groups = group_count(&schema, rows, &block.group_by);
            let agg_cost = model.hash_aggregate(rows, groups);
            cost += agg_cost.total();
            node = PlanNode::unary(
                Op::HashAggregate {
                    groups: block.group_by.len(),
                },
                cost,
                groups,
                node,
            );
            rows = groups;
            ordered = false;
        }

        if !block.order_by.is_empty() && !ordered {
            let width: f64 = block
                .output_cols
                .iter()
                .map(|c| schema.column_width(*c))
                .sum::<f64>()
                .max(8.0);
            let s = model.sort(rows, width);
            cost += s.total();
            node = PlanNode::unary(
                Op::Sort {
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
        node = PlanNode::unary(Op::Project, cost, rows, node);

        PhysPlan {
            root: node,
            cost,
            rows,
            index_usages: sub.usages,
        }
    }

    /// Build the access plan for a query rewritten over a matched view.
    fn view_plan(
        &self,
        config: &mut Configuration,
        block: &QueryBlock,
        m: &ViewMatch,
        view_rows: f64,
        sink: &mut dyn RequestSink,
    ) -> Option<PhysPlan> {
        let model = &self.opts.cost;

        // Columns of the view we need in the output.
        let mut additional: BTreeSet<ColumnId> = m
            .base_map
            .iter()
            .map(|(_, ord)| ColumnId::new(m.view_id, *ord))
            .collect();
        additional.extend(
            m.agg_map
                .iter()
                .map(|(_, ord)| ColumnId::new(m.view_id, *ord)),
        );
        let order: Vec<(ColumnId, bool)> = if m.regroup {
            Vec::new()
        } else {
            block
                .order_by
                .iter()
                .filter_map(|(c, d)| {
                    m.base_map
                        .iter()
                        .find(|(b, _)| b == c)
                        .map(|(_, ord)| (ColumnId::new(m.view_id, *ord), *d))
                })
                .collect()
        };
        let order_complete = order.len() == block.order_by.len();

        let req = IndexRequest {
            table: m.view_id,
            sargable: m.residual_ranges.clone(),
            non_sargable: m
                .residual_others
                .iter()
                .map(|o| (o.columns(), o.selectivity))
                .collect(),
            order: if order_complete { order } else { Vec::new() },
            additional,
            input_rows: view_rows,
        };
        sink.on_index_request(&req, self.db, config);
        let schema = PhysicalSchema::new(self.db, config);
        // The view may have been deleted meanwhile (defensive).
        config.view(m.view_id)?;
        let access = best_access_path(model, &schema, &req);

        let mut node = access.node;
        let mut cost = access.cost.total();
        let mut rows = access.rows;
        let mut ordered = access.provides_order && order_complete && !block.order_by.is_empty();

        if m.regroup {
            let group_cols: BTreeSet<ColumnId> = m.regroup_cols.iter().copied().collect();
            let groups = group_count(&schema, rows, &group_cols);
            let agg = model.hash_aggregate(rows, groups);
            cost += agg.total();
            node = PlanNode::unary(
                Op::HashAggregate {
                    groups: group_cols.len(),
                },
                cost,
                groups,
                node,
            );
            rows = groups;
            ordered = false;
        }

        if !block.order_by.is_empty() && !ordered {
            let s = model.sort(rows, 64.0);
            cost += s.total();
            node = PlanNode::unary(
                Op::Sort {
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
        node = PlanNode::unary(Op::Project, cost, rows, node);

        Some(PhysPlan {
            root: node,
            cost,
            rows,
            index_usages: access.usages,
        })
    }

    // -----------------------------------------------------------------
    // Join enumeration
    // -----------------------------------------------------------------

    /// Build the access-path request for a single table inside the
    /// block, with optional parameterized join sargs (for the inner
    /// side of an index nested-loops join).
    fn table_request(
        &self,
        config: &Configuration,
        block: &QueryBlock,
        table: TableId,
        join_params: &[(ColumnId, f64)],
        order: Vec<(ColumnId, bool)>,
    ) -> IndexRequest {
        let schema = PhysicalSchema::new(self.db, config);
        let mut sargable: Vec<SargablePred> = block.classified.ranges_on(table).cloned().collect();
        for (col, sel) in join_params {
            if !sargable.iter().any(|s| s.column == *col) {
                sargable.push(SargablePred {
                    column: *col,
                    sarg: Sarg::Param { selectivity: *sel },
                });
            }
        }
        let non_sargable = block
            .classified
            .others_local_to(table)
            .map(|o| (o.columns(), o.selectivity))
            .collect();
        IndexRequest {
            table,
            sargable,
            non_sargable,
            order,
            additional: block.required_columns(table),
            input_rows: schema.rows(table),
        }
    }

    /// Access path for one table, issuing the index request first.
    fn table_access(
        &self,
        config: &mut Configuration,
        block: &QueryBlock,
        table: TableId,
        join_params: &[(ColumnId, f64)],
        order: Vec<(ColumnId, bool)>,
        sink: &mut dyn RequestSink,
    ) -> AccessPath {
        let req = self.table_request(config, block, table, join_params, order);
        sink.on_index_request(&req, self.db, config);
        let schema = PhysicalSchema::new(self.db, config);
        best_access_path(&self.opts.cost, &schema, &req)
    }

    /// The order request a single-table plan should try to satisfy:
    /// the ORDER BY for plain queries, the grouping columns for
    /// aggregations (enabling sort-free stream aggregation — modeled
    /// as order-preserving hash aggregation input here).
    fn leaf_order(&self, block: &QueryBlock) -> Vec<(ColumnId, bool)> {
        if block.tables.len() != 1 {
            return Vec::new();
        }
        if block.is_grouped() {
            Vec::new()
        } else {
            block.order_by.clone()
        }
    }

    fn single_table_subplan(
        &self,
        config: &mut Configuration,
        block: &QueryBlock,
        table: TableId,
        sink: &mut dyn RequestSink,
    ) -> SubPlan {
        let order = self.leaf_order(block);
        let access = self.table_access(config, block, table, &[], order, sink);
        SubPlan {
            cost: access.cost.total(),
            rows: access.rows,
            provides_order: access.provides_order && !block.order_by.is_empty(),
            node: access.node,
            usages: access.usages,
        }
    }

    fn dp_join(
        &self,
        config: &mut Configuration,
        block: &QueryBlock,
        sink: &mut dyn RequestSink,
    ) -> SubPlan {
        let n = block.tables.len();
        if n == 1 {
            return self.single_table_subplan(config, block, block.tables[0], sink);
        }
        let full_mask: u64 = (1 << n) - 1;
        let mut dp: HashMap<u64, SubPlan> = HashMap::with_capacity(1 << n);

        for (i, &t) in block.tables.iter().enumerate() {
            let sub = self.single_table_subplan(config, block, t, sink);
            dp.insert(1 << i, sub);
        }

        for mask in 2u64..=full_mask {
            if mask.count_ones() < 2 {
                continue;
            }
            let subset: BTreeSet<TableId> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| block.tables[i])
                .collect();

            // View request for this SPJG sub-query (paper §2).
            let sub_spjg = if self.opts.subset_view_requests && mask != full_mask {
                let spjg = block.spjg_for_subset(&subset);
                sink.on_view_request(
                    &ViewRequest {
                        spjg: spjg.clone(),
                        top_level: false,
                    },
                    self.db,
                    config,
                );
                Some(spjg)
            } else {
                None
            };

            let mut best: Option<SubPlan> = None;

            // Materialized views covering exactly this subset can
            // replace the whole join sub-expression.
            if let Some(spjg) = &sub_spjg {
                let matches: Vec<(pdt_physical::ViewMatch, f64)> = config
                    .usable_views()
                    .filter(|v| v.def.tables == subset)
                    .filter_map(|v| v.try_match(spjg).map(|m| (m, v.rows)))
                    .collect();
                for (m, view_rows) in matches {
                    if let Some(cand) = self.subset_view_subplan(config, &m, view_rows, sink) {
                        if best.as_ref().is_none_or(|b| cand.cost < b.cost) {
                            best = Some(cand);
                        }
                    }
                }
            }
            for i in 0..n {
                let bit = 1u64 << i;
                if mask & bit == 0 {
                    continue;
                }
                let rest = mask & !bit;
                if rest == 0 {
                    continue;
                }
                let Some(outer) = dp.get(&rest).cloned() else {
                    continue;
                };
                let inner_table = block.tables[i];
                // Prefer connected joins; cross products only when the
                // rest has no join edge to this table.
                let join_cols: Vec<(ColumnId, f64)> = {
                    let schema = PhysicalSchema::new(self.db, config);
                    block
                        .classified
                        .joins
                        .iter()
                        .filter_map(|j| {
                            let (lt, rt) = (j.left.table, j.right.table);
                            let rest_tables: BTreeSet<TableId> = (0..n)
                                .filter(|k| rest & (1 << k) != 0)
                                .map(|k| block.tables[k])
                                .collect();
                            if lt == inner_table && rest_tables.contains(&rt) {
                                Some((j.left, join_selectivity(&schema, j.left, j.right)))
                            } else if rt == inner_table && rest_tables.contains(&lt) {
                                Some((j.right, join_selectivity(&schema, j.left, j.right)))
                            } else {
                                None
                            }
                        })
                        .collect()
                };
                let out_rows = subset_rows(
                    &PhysicalSchema::new(self.db, config),
                    &subset,
                    &block.classified,
                );

                for cand in self.join_candidates(
                    config,
                    block,
                    &outer,
                    inner_table,
                    &join_cols,
                    out_rows,
                    sink,
                ) {
                    if best.as_ref().is_none_or(|b| cand.cost < b.cost) {
                        best = Some(cand);
                    }
                }
            }
            if let Some(b) = best {
                dp.insert(mask, b);
            }
        }
        dp.remove(&full_mask).expect("full join plan exists")
    }

    /// Access a matched subset view as a join-subexpression replacement
    /// (ungrouped matches only — grouped views never match subset SPJGs
    /// because those carry no grouping).
    fn subset_view_subplan(
        &self,
        config: &mut Configuration,
        m: &pdt_physical::ViewMatch,
        view_rows: f64,
        sink: &mut dyn RequestSink,
    ) -> Option<SubPlan> {
        if m.regroup {
            return None;
        }
        let additional: BTreeSet<ColumnId> = m
            .base_map
            .iter()
            .map(|(_, ord)| ColumnId::new(m.view_id, *ord))
            .collect();
        let req = IndexRequest {
            table: m.view_id,
            sargable: m.residual_ranges.clone(),
            non_sargable: m
                .residual_others
                .iter()
                .map(|o| (o.columns(), o.selectivity))
                .collect(),
            order: Vec::new(),
            additional,
            input_rows: view_rows,
        };
        sink.on_index_request(&req, self.db, config);
        config.view(m.view_id)?;
        let schema = PhysicalSchema::new(self.db, config);
        let access = best_access_path(&self.opts.cost, &schema, &req);
        Some(SubPlan {
            cost: access.cost.total(),
            rows: access.rows,
            provides_order: false,
            node: access.node,
            usages: access.usages,
        })
    }

    /// Hash-join and index-NLJ candidates for `outer ⋈ inner_table`.
    #[allow(clippy::too_many_arguments)]
    fn join_candidates(
        &self,
        config: &mut Configuration,
        block: &QueryBlock,
        outer: &SubPlan,
        inner_table: TableId,
        join_cols: &[(ColumnId, f64)],
        out_rows: f64,
        sink: &mut dyn RequestSink,
    ) -> Vec<SubPlan> {
        let model = &self.opts.cost;
        let mut cands = Vec::with_capacity(2);

        // Hash join: full access of inner (local predicates only).
        {
            let inner = self.table_access(config, block, inner_table, &[], Vec::new(), sink);
            let (build_rows, probe_rows) = if inner.rows < outer.rows {
                (inner.rows, outer.rows)
            } else {
                (outer.rows, inner.rows)
            };
            let schema = PhysicalSchema::new(self.db, config);
            let jc = model.hash_join(build_rows, probe_rows, schema.row_width(inner_table));
            let cost = outer.cost + inner.cost.total() + jc.total() + out_rows * model.cpu_tuple;
            let mut usages = outer.usages.clone();
            usages.extend(inner.usages);
            cands.push(SubPlan {
                node: PlanNode::binary(
                    Op::HashJoin,
                    cost,
                    out_rows,
                    outer.node.clone(),
                    inner.node,
                ),
                cost,
                rows: out_rows,
                usages,
                provides_order: false,
            });
        }

        // Index nested-loops: parameterized inner executed per outer row.
        if !join_cols.is_empty() {
            let inner = self.table_access(config, block, inner_table, join_cols, Vec::new(), sink);
            let per_exec = inner.cost.total();
            let cost = outer.cost + outer.rows * per_exec + out_rows * model.cpu_tuple;
            let mut usages = outer.usages.clone();
            for mut u in inner.usages {
                // Scale the per-execution usage to the whole join.
                u.access_io *= outer.rows.max(1.0);
                u.access_cpu *= outer.rows.max(1.0);
                u.rows *= outer.rows.max(1.0);
                u.resid_filter_cpu *= outer.rows.max(1.0);
                u.executions *= outer.rows.max(1.0);
                usages.push(u);
            }
            cands.push(SubPlan {
                node: PlanNode::binary(
                    Op::NestedLoopJoin,
                    cost,
                    out_rows,
                    outer.node.clone(),
                    inner.node,
                ),
                cost,
                rows: out_rows,
                usages,
                provides_order: false,
            });
        }
        cands
    }

    /// Greedy left-deep join order for very large FROM lists.
    fn greedy_join(
        &self,
        config: &mut Configuration,
        block: &QueryBlock,
        sink: &mut dyn RequestSink,
    ) -> SubPlan {
        let n = block.tables.len();
        // Start from the table with the smallest filtered cardinality.
        let schema_rows = |config: &Configuration, t: TableId| {
            let schema = PhysicalSchema::new(self.db, config);
            schema.rows(t) * block.classified.local_selectivity(self.db, t)
        };
        let mut remaining: Vec<usize> = (0..n).collect();
        remaining.sort_by(|a, b| {
            schema_rows(config, block.tables[*a]).total_cmp(&schema_rows(config, block.tables[*b]))
        });
        let first = remaining.remove(0);
        let mut joined: BTreeSet<TableId> = [block.tables[first]].into();
        let mut current = self.single_table_subplan(config, block, block.tables[first], sink);

        while !remaining.is_empty() {
            // Next: the connected table minimizing the joined cardinality.
            let mut best_idx = 0usize;
            let mut best_rows = f64::INFINITY;
            for (pos, &i) in remaining.iter().enumerate() {
                let t = block.tables[i];
                let connected = block.classified.joins.iter().any(|j| {
                    (j.left.table == t && joined.contains(&j.right.table))
                        || (j.right.table == t && joined.contains(&j.left.table))
                });
                let mut subset = joined.clone();
                subset.insert(t);
                let schema = PhysicalSchema::new(self.db, config);
                let rows = subset_rows(&schema, &subset, &block.classified)
                    * if connected { 1.0 } else { 1e6 };
                if rows < best_rows {
                    best_rows = rows;
                    best_idx = pos;
                }
            }
            let i = remaining.remove(best_idx);
            let t = block.tables[i];
            let join_cols: Vec<(ColumnId, f64)> = {
                let schema = PhysicalSchema::new(self.db, config);
                block
                    .classified
                    .joins
                    .iter()
                    .filter_map(|j| {
                        if j.left.table == t && joined.contains(&j.right.table) {
                            Some((j.left, join_selectivity(&schema, j.left, j.right)))
                        } else if j.right.table == t && joined.contains(&j.left.table) {
                            Some((j.right, join_selectivity(&schema, j.left, j.right)))
                        } else {
                            None
                        }
                    })
                    .collect()
            };
            joined.insert(t);
            let out_rows = subset_rows(
                &PhysicalSchema::new(self.db, config),
                &joined,
                &block.classified,
            );
            let cands =
                self.join_candidates(config, block, &current, t, &join_cols, out_rows, sink);
            current = cands
                .into_iter()
                .min_by(|a, b| a.cost.total_cmp(&b.cost))
                .expect("hash join always available");
        }
        current
    }
}

/// The structure footprint of a plan: 128-bit content signatures of
/// every physical structure its access paths touch — the used indexes,
/// plus (for indexes over views) the views those indexes serve. Matches
/// the per-structure encoding of [`Configuration::signature128`], so a
/// footprint can be tested for survival against any configuration's
/// relevant-structure set. Sorted and deduplicated.
pub fn plan_footprint(usages: &[IndexUsage], config: &Configuration) -> Vec<u128> {
    let mut out: Vec<u128> = Vec::with_capacity(usages.len());
    for u in usages {
        out.push(pdt_physical::index_sig128(&u.index));
        if u.index.table.is_view() {
            if let Some(v) = config.view(u.index.table) {
                out.push(pdt_physical::view_sig128(v.id, v));
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
        Optimizer::new(&db).optimize_with_sink(&mut config, bound.as_select().unwrap(), &mut sink);
        // Three leaves, then one hash request per `(mask, inner)` pair
        // (2 + 2 + 2 + 3) and one parameterized request per connected
        // pair (2 + 2 + 0 + 3): an observing sink sees every one.
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
