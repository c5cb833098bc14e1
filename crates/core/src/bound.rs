//! Execution-cost upper bounds without optimizer calls (§3.3.2).
//!
//! "We isolate the usage of each physical structure that is removed
//! from the original configuration and estimate (without re-optimizing)
//! how expensive it would be to evaluate those sub-expressions using
//! the physical structures available in the relaxed configuration."
//!
//! For a removed index `I` replaced by `IR`:
//!
//! * scan usage: `cost(I) · size(IR) / size(I)`;
//! * seek usage: `cost(I) · (s_IR · size(IR)) / (s_I · size(I))`, where
//!   `s_IR` is the selectivity of the seek predicates applicable to
//!   `IR`'s key prefix;
//! * plus `rows(I)` rid lookups when `IR` misses provided columns, and
//!   a sort when a relied-upon order is lost.
//!
//! Removed views use the `CBV` fallback: the cost of computing the view
//! from the base configuration plus a scan per former index usage.

use crate::eval::{EvalResult, ShellTable};
use crate::transform::TransformDelta;
use crate::workload::Workload;
use pdt_catalog::{ColumnId, Database, TableId};
use pdt_opt::{CostModel, IndexUsage, UsageKind};
use pdt_physical::size::SizeModel;
use pdt_physical::{Configuration, Index, MaterializedView, PhysicalSchema};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// `(cost, index usages of the rebuild plan)` — the usages name the
/// structures the refined CBV leaned on, so a *served* evaluation can
/// record them and stay honest when one is later removed.
type BuildCostEntry = (f64, Arc<[IndexUsage]>);

/// The `CBV` table of **one configuration**: per view, the cost to
/// (re)compute it from the base tables with that configuration's access
/// paths (§3.3.2: "each time we consider a new view V, we optimize V
/// with respect to the base configuration"; the paper's refinement
/// costs it against `C − {V}`). Entries are computed on first use and
/// are only valid for the configuration the table is used with — a CBV
/// served from a richer ancestor is stale-low and breaks the §3.3.2
/// upper-bound guarantee once the indexes it leaned on are relaxed
/// away. The search therefore gives every node its own table and
/// *carries* entries from parent to child by the exact dependency rule
/// of [`carried`](Self::carried) instead of keying a shared memo by a
/// configuration signature.
#[derive(Debug, Default)]
pub struct ViewBuildCosts {
    costs: RefCell<BTreeMap<TableId, BuildCostEntry>>,
}

impl ViewBuildCosts {
    pub fn new() -> Self {
        Self::default()
    }

    /// CBV for `view`, costed against `config` — the paper's refined
    /// procedure ("estimate the cost to obtain each view V ... with
    /// respect to the smaller configuration C − {V}"): each base table
    /// is accessed through its best available access path (so existing
    /// indexes make the view cheap to recompute), tables are
    /// hash-joined, and grouped views pay one aggregation.
    pub fn get(
        &self,
        db: &Database,
        model: &CostModel,
        config: &Configuration,
        view: TableId,
    ) -> f64 {
        self.get_with_usages(db, model, config, view).0
    }

    /// [`get`](Self::get) plus the rebuild plan's index usages: which
    /// structures each base-table access leaned on, with their real
    /// per-access costs. Empty when every table is answered by its
    /// heap.
    pub fn get_with_usages(
        &self,
        db: &Database,
        model: &CostModel,
        config: &Configuration,
        view: TableId,
    ) -> (f64, Arc<[IndexUsage]>) {
        if let Some(c) = self.costs.borrow().get(&view) {
            return c.clone();
        }
        let entry = match config.view(view) {
            Some(v) => rebuild_cost(db, model, config, v),
            None => (0.0, Vec::new().into()),
        };
        self.costs.borrow_mut().insert(view, entry.clone());
        entry
    }

    /// The table of `child`, one relaxation step (`delta`) away from
    /// this table's configuration: every entry the step provably cannot have
    /// changed is carried over (same cost bits, the same `Arc` of
    /// usages); the rest are left out and recomputed on first use.
    ///
    /// An entry's value is a function of the view and, per base table
    /// of its definition, of [`best_access_path`] over that table's
    /// indexes — a first-strict-minimum argmin over per-index
    /// candidates whose costs do not depend on each other. Removing an
    /// index the winning plan does not use therefore cannot move the
    /// winner, with two exceptions where a removal *creates*
    /// candidates: losing the clustered index turns the base scan into
    /// a heap scan, and the rid-intersection enumeration only pairs the
    /// four most selective seekable indexes, so removing a seekable one
    /// (its leading key column carries one of the view's range
    /// predicates) can promote a fifth into that window. An entry for
    /// view `V` is carried iff
    ///
    /// * `V` survives the step;
    /// * no index was added on a table of `V.def.tables` (an addition
    ///   is a new candidate everywhere); and
    /// * every removed index on a table of `V.def.tables` is outside
    ///   the entry's usages, not clustered, and not seekable for `V`.
    ///
    /// [`best_access_path`]: pdt_opt::access::best_access_path
    pub fn carried(&self, child: &Configuration, delta: &TransformDelta) -> ViewBuildCosts {
        let costs = self
            .costs
            .borrow()
            .iter()
            .filter(|(id, (_, usages))| {
                if delta.removed_views.contains(id) {
                    return false;
                }
                let Some(v) = child.view(**id) else {
                    return false;
                };
                let on_view_table = |i: &Index| v.def.tables.contains(&i.table);
                let invalidates = |r: &Index| {
                    on_view_table(r)
                        && (r.clustered
                            || v.def.ranges.iter().any(|p| p.column == r.key[0])
                            || usages.iter().any(|u| u.index == *r))
                };
                !delta.added_indexes.iter().any(on_view_table)
                    && !delta.removed_indexes.iter().any(invalidates)
            })
            .map(|(id, entry)| (*id, entry.clone()))
            .collect();
        ViewBuildCosts {
            costs: RefCell::new(costs),
        }
    }

    /// Panic unless every entry is bit-equal (cost bits and usages) to
    /// a from-scratch computation against `config` — the differential
    /// check behind [`carried`](Self::carried), part of
    /// [`NodeFacts::assert_matches_scratch`](crate::node::NodeFacts::assert_matches_scratch).
    /// Returns the number of entries verified.
    pub fn assert_matches_scratch(
        &self,
        db: &Database,
        model: &CostModel,
        config: &Configuration,
    ) -> usize {
        let costs = self.costs.borrow();
        for (id, (cost, usages)) in costs.iter() {
            let v = config
                .view(*id)
                .unwrap_or_else(|| panic!("CBV entry for {id}, which the configuration lacks"));
            let (fresh_cost, fresh_usages) = rebuild_cost(db, model, config, v);
            assert!(
                cost.to_bits() == fresh_cost.to_bits() && **usages == *fresh_usages,
                "carried CBV entry for {id} diverged from recomputation: {cost} vs {fresh_cost}"
            );
        }
        costs.len()
    }
}

/// The refined CBV of `v` under `config`, with the rebuild plan's
/// index usages.
fn rebuild_cost(
    db: &Database,
    model: &CostModel,
    config: &Configuration,
    v: &MaterializedView,
) -> BuildCostEntry {
    let schema = PhysicalSchema::new(db, config);
    let mut total = 0.0;
    let mut rows_acc = 1.0f64;
    let mut usages: Vec<IndexUsage> = Vec::new();
    for (i, t) in v.def.tables.iter().enumerate() {
        let req = pdt_opt::IndexRequest {
            table: *t,
            sargable: v
                .def
                .ranges
                .iter()
                .filter(|r| r.column.table == *t)
                .cloned()
                .collect(),
            non_sargable: Vec::new(),
            order: Vec::new(),
            additional: v
                .def
                .output_cols
                .iter()
                .copied()
                .filter(|c| c.table == *t)
                .collect(),
            input_rows: schema.rows(*t),
        };
        let path = pdt_opt::access::best_access_path(model, &schema, &req);
        total += path.cost.total();
        usages.extend(path.usages);
        let rows = path.rows.max(1.0);
        if i > 0 {
            total += model
                .hash_join(rows.min(rows_acc), rows.max(rows_acc), 32.0)
                .total();
        }
        rows_acc = (rows_acc * rows).min(1e12);
    }
    if v.def.is_grouped() {
        total += model.hash_aggregate(rows_acc.min(1e9), v.rows).total();
    }
    (total, usages.into())
}

/// Upper-bound the workload cost under the configuration `delta`
/// relaxes `old_config` into, given the evaluation under `old_config`.
/// No optimizer calls are made, and the relaxed configuration is never
/// built: it is read as `old_config` minus/plus the delta (an
/// [`AppliedTransform`](crate::transform::AppliedTransform) passes as
/// its delta). Update shells are folded from `old_config`'s
/// [`ShellTable`], built here; the search carries one per node and
/// calls [`node_bound`] with it.
#[allow(clippy::too_many_arguments)]
pub fn cost_upper_bound(
    db: &Database,
    model: &CostModel,
    workload: &Workload,
    prev: &EvalResult,
    old_config: &Configuration,
    delta: &TransformDelta,
    view_costs: &ViewBuildCosts,
) -> f64 {
    scratch_bound(
        db, model, workload, prev, old_config, delta, view_costs, false,
    )
}

/// [`cost_upper_bound`] restricted to the affected-query subset: a
/// query whose plan uses none of the removed structures keeps its
/// evaluated `select_cost` verbatim (the patch loop would add nothing).
/// The result is therefore bit-identical to the full computation —
/// asserted against it in debug builds by the search — while the
/// select side costs O(affected) instead of O(workload).
#[allow(clippy::too_many_arguments)]
pub fn cost_upper_bound_restricted(
    db: &Database,
    model: &CostModel,
    workload: &Workload,
    prev: &EvalResult,
    old_config: &Configuration,
    delta: &TransformDelta,
    view_costs: &ViewBuildCosts,
) -> f64 {
    scratch_bound(
        db, model, workload, prev, old_config, delta, view_costs, true,
    )
}

/// [`node_bound`] for a configuration whose shell table is built here.
#[allow(clippy::too_many_arguments)]
fn scratch_bound(
    db: &Database,
    model: &CostModel,
    workload: &Workload,
    prev: &EvalResult,
    old_config: &Configuration,
    delta: &TransformDelta,
    view_costs: &ViewBuildCosts,
    restricted: bool,
) -> f64 {
    let shells = ShellTable::build(model, &PhysicalSchema::new(db, old_config), workload);
    let node = BoundNode {
        prev,
        config: old_config,
        shells: &shells,
        view_costs,
    };
    node_bound(db, model, workload, &node, delta, restricted)
}

/// What the §3.3.2 machinery reads about the configuration a step
/// relaxes: its evaluation, the configuration, and the two tables the
/// search carries for it.
pub(crate) struct BoundNode<'n> {
    pub prev: &'n EvalResult,
    pub config: &'n Configuration,
    pub shells: &'n ShellTable,
    pub view_costs: &'n ViewBuildCosts,
}

/// Synthesize a full [`EvalResult`] for the relaxed configuration from the
/// §3.3.2 bound machinery alone — the *estimate-serving* path of the
/// approximate tier (`TunerOptions::optimizer_call_budget`). No
/// optimizer calls are made.
///
/// Per query, the select cost is the parent's evaluated cost plus the
/// same non-negative replacement patches [`cost_upper_bound`] charges.
/// A usage on a removed structure is *replaced*, not dropped: the
/// synthesized plan records a witness usage on the access path the
/// winning patch scanned (carrying the whole patch as its access
/// cost), so a later transformation that removes the replacement
/// structure still sees the dependency and re-patches it — dropping
/// the usage instead silently turns such removals into "free" steps
/// and breaks the upper-bound guarantee along served chains. A CBV
/// patch (the structure's table vanished and the view is rebuilt)
/// records the rebuild plan's own index usages for the same reason;
/// patches answered by the irremovable table heap record nothing.
/// Update shells are exact (closed form) under the new configuration.
/// The result's `total_cost` is bit-identical to [`cost_upper_bound`]
/// on the same arguments: both fold `weight * (select + shell)` over
/// the workload in entry order.
///
/// The second return value is the **gap** of the sound cost interval
/// the estimate sits in: the weighted sum of the select-side
/// replacement patches. Shells are exact and a relaxation never makes
/// an affected query's re-optimized plan cheaper than its current one
/// (the configuration only gets weaker for it), so the true cost lies
/// in `[total_cost - gap, total_cost]`. A zero gap means the estimate
/// *is* the evaluation; the budget policy serves estimates only while
/// the gap is too small to change a relaxation decision.
pub(crate) fn bound_served_eval(
    db: &Database,
    model: &CostModel,
    workload: &Workload,
    node: &BoundNode<'_>,
    delta: &TransformDelta,
) -> (EvalResult, f64) {
    let BoundNode {
        prev,
        config: old_config,
        shells,
        view_costs,
    } = *node;
    let old_schema = PhysicalSchema::new(db, old_config);
    let new_schema = old_schema.relaxed(&delta.removed_views, delta.added_view.as_ref());
    let new_shells = shells.relaxed(model, &new_schema, old_config, delta);
    let mut per_query = Vec::with_capacity(prev.per_query.len());
    let mut total = 0.0;
    let mut gap = 0.0;

    for (i, (entry, q)) in workload.entries.iter().zip(&prev.per_query).enumerate() {
        let mut select = q.select_cost;
        let affected = q.uses_any(&delta.removed_indexes, &delta.removed_views);
        let usages = if affected {
            let mut kept: Vec<IndexUsage> = Vec::with_capacity(q.usages.len());
            for usage in q.usages.iter() {
                let removed_index = delta.removed_indexes.contains(&usage.index);
                let removed_view = delta.removed_views.contains(&usage.index.table);
                if !removed_index && !removed_view {
                    kept.push(usage.clone());
                    continue;
                }
                let (patch, source) = replacement_cost(
                    db,
                    model,
                    &old_schema,
                    &new_schema,
                    old_config,
                    delta,
                    usage,
                    view_costs,
                );
                select += (patch - usage.access_cost()).max(0.0);
                match source {
                    PatchSource::Structure(w) => kept.push(w),
                    PatchSource::Heap => {}
                    PatchSource::Rebuild(ws) => kept.extend(ws.iter().cloned()),
                }
            }
            kept.into()
        } else {
            q.usages.clone()
        };
        let shell = entry.shell.as_ref().map_or(0.0, |s| new_shells.cost(i, s));
        per_query.push(crate::eval::QueryEval {
            select_cost: select,
            shell_cost: shell,
            usages,
        });
        total += entry.weight * (select + shell);
        gap += entry.weight * (select - q.select_cost);
    }
    (
        EvalResult {
            per_query,
            total_cost: total,
            optimizer_calls: 0,
            poison_repairs: Vec::new(),
        },
        gap,
    )
}

/// The §3.3.2 bound of `delta` applied to `node`'s configuration;
/// `restricted` skips the select-side patch loop for queries the step
/// does not affect (see [`cost_upper_bound_restricted`]). Shells are
/// exact (closed form) under the new configuration, folded from the
/// node's shell table.
pub(crate) fn node_bound(
    db: &Database,
    model: &CostModel,
    workload: &Workload,
    node: &BoundNode<'_>,
    delta: &TransformDelta,
    restricted: bool,
) -> f64 {
    let BoundNode {
        prev,
        config: old_config,
        shells,
        view_costs,
    } = *node;
    let old_schema = PhysicalSchema::new(db, old_config);
    let new_schema = old_schema.relaxed(&delta.removed_views, delta.added_view.as_ref());
    let new_shells = shells.relaxed(model, &new_schema, old_config, delta);
    let mut total = 0.0;

    for (i, (entry, q)) in workload.entries.iter().zip(&prev.per_query).enumerate() {
        let mut select = q.select_cost;
        if !restricted || q.uses_any(&delta.removed_indexes, &delta.removed_views) {
            for usage in q.usages.iter() {
                let removed_index = delta.removed_indexes.contains(&usage.index);
                let removed_view = delta.removed_views.contains(&usage.index.table);
                if !removed_index && !removed_view {
                    continue;
                }
                let (patch, _) = replacement_cost(
                    db,
                    model,
                    &old_schema,
                    &new_schema,
                    old_config,
                    delta,
                    usage,
                    view_costs,
                );
                select += (patch - usage.access_cost()).max(0.0);
            }
        }
        let shell = entry.shell.as_ref().map_or(0.0, |s| new_shells.cost(i, s));
        total += entry.weight * (select + shell);
    }
    total
}

/// What the winning patch plan depends on — the part of the answer a
/// served evaluation must remember so *later* transformations still
/// see the dependency.
//
// The variant sizes are lopsided (a full inline `IndexUsage` vs two
// pointers), but the value is a transient return on the bound-pricing
// hot path — boxing the common variant would trade a stack move for a
// heap allocation per priced usage.
#[allow(clippy::large_enum_variant)]
enum PatchSource {
    /// The patch scans or seeks a removable structure: a witness usage
    /// carrying the whole patch as its access cost, so a subsequent
    /// removal of that structure re-patches at least the increment.
    Structure(IndexUsage),
    /// The patch runs on the table heap — irremovable, nothing to
    /// remember.
    Heap,
    /// The structure's table vanished and the patch rebuilds the view
    /// with the *current* configuration's access paths (the paper's
    /// refined CBV). The rebuild plan's own index usages — real
    /// accesses with real per-access costs — are the dependency: a
    /// served evaluation records them all, and a later removal of any
    /// one re-patches that access through the ordinary §3.3.2
    /// machinery. Empty when the rebuild scans heaps only.
    Rebuild(Arc<[IndexUsage]>),
}

/// Cost of answering one former index usage with the relaxed
/// configuration's structures (the patch plan of Fig. 7), plus the
/// [`PatchSource`] the winning plan depends on.
#[allow(clippy::too_many_arguments)]
fn replacement_cost(
    db: &Database,
    model: &CostModel,
    old_schema: &PhysicalSchema<'_>,
    new_schema: &PhysicalSchema<'_>,
    old_config: &Configuration,
    delta: &TransformDelta,
    usage: &IndexUsage,
    view_costs: &ViewBuildCosts,
) -> (f64, PatchSource) {
    let size_model = SizeModel::default();
    // Map the usage into the merged view's column space if applicable.
    let mapped_table = if usage.index.table.is_view() {
        delta
            .col_map
            .iter()
            .find(|(k, _)| k.table == usage.index.table)
            .map(|(_, v)| v.table)
    } else {
        None
    };
    let target_table = mapped_table.unwrap_or(usage.index.table);

    // The table (or its merged replacement) vanished entirely: CBV
    // fallback — rebuild the view, then scan it per usage.
    let table_alive = !target_table.is_view() || new_schema.view(target_table).is_some();
    if !table_alive {
        let (cbv, rebuild_usages) =
            view_costs.get_with_usages(db, model, old_config, usage.index.table);
        let rows = old_schema.rows(usage.index.table);
        let pages = (rows * old_schema.row_width(usage.index.table) / model.size.page_size)
            .ceil()
            .max(1.0);
        // The view is rebuilt once, but a usage aggregated over
        // nested-loops executions scans it once per run.
        let mut cost = cbv + model.full_scan(pages, rows).total() * usage.executions.max(1.0);
        if usage.provided_order.is_some() {
            cost += model.sort(usage.rows, 64.0).total();
        }
        return (cost, PatchSource::Rebuild(rebuild_usages));
    }

    let map_col = |c: &ColumnId| -> ColumnId { delta.col_map.get(c).copied().unwrap_or(*c) };
    let old_size = size_model
        .index_bytes(old_schema, &usage.index)
        .max(model.size.page_size);
    let needed: Vec<ColumnId> = usage.provided_columns.iter().map(&map_col).collect();
    let seek_sels: Vec<(ColumnId, f64, bool)> = usage
        .seek_col_sels
        .iter()
        .map(|(c, s, eq)| (map_col(c), *s, *eq))
        .collect();
    // A lookup-free replacement must provide the output columns AND
    // every predicate column (consumed seek columns sit in the
    // candidate's key, so including them here is never a false miss).
    let full_needed: Vec<ColumnId> = needed
        .iter()
        .copied()
        .chain(usage.resid_pred_cols.iter().map(&map_col))
        .chain(seek_sels.iter().map(|(c, _, _)| *c))
        .collect();
    let order_cols: Option<Vec<ColumnId>> = usage
        .provided_order
        .as_ref()
        .map(|o| o.iter().map(|(c, _)| map_col(c)).collect());

    let table_rows = new_schema.rows(target_table).max(1.0);
    let table_pages = (table_rows * new_schema.row_width(target_table) / model.size.page_size)
        .ceil()
        .max(1.0);

    // Sorts are charged the way the optimizer charges them: row width =
    // sum of the widths of the columns the access must produce. The
    // old hardcoded 64-byte width undercut wide sorts, and an undercut
    // patch breaks the §3.3.2 upper-bound guarantee.
    let sort_width = needed
        .iter()
        .map(|c| new_schema.column_width(*c))
        .sum::<f64>()
        .max(8.0);

    // View-merge compensation: residual filter and optional re-grouping
    // on top of the patched access (§3.3.2).
    let compensation = |cost: &mut f64| {
        if mapped_table.is_some() {
            *cost += usage.rows * model.cpu_pred;
            if delta.regroup_compensation {
                *cost += model.hash_aggregate(usage.rows * 2.0, usage.rows).total();
            }
        }
    };

    // Filter accounting shared by every patch: a replacement plan
    // re-filters each predicate its access does not consume, at the
    // replacement access's cardinality, while the old plan's residual
    // filter CPU (recorded in the usage) is already part of the carried
    // query cost — so each patch charges its own full filter bill and
    // credits the old one. Undercounting the re-filter is exactly the
    // kind of slack that breaks the §3.3.2 upper-bound guarantee.
    let n_total = usage.total_preds as f64;
    let old_resid_cpu = usage.resid_filter_cpu;
    // A usage aggregated over nested-loops executions recorded E seeks;
    // a scan-shaped replacement cannot answer E probes with one pass,
    // so every scan-and-refilter patch repeats per execution. (The
    // per-execution scan dominates a realizable plan: the same join
    // with the scan as its inner side.)
    let executions = usage.executions.max(1.0);

    // The patch the optimizer can always realize: scan the clustered
    // index (or the heap), re-filter every predicate, and sort if the
    // old plan relied on the index's order. Mirrors the scan branch of
    // `best_access_path`, so the patch never undercuts a plan the
    // optimizer will actually enumerate.
    let candidates = delta.child_indexes_on(old_config, target_table);
    let mut best_src: Option<Index> = None;
    let mut best = {
        let scan = match candidates.iter().copied().find(|i| i.clustered) {
            Some(ci) => {
                best_src = Some(ci.clone());
                model.full_scan(model.index_pages(new_schema, ci), table_rows)
            }
            None => model.full_scan(table_pages, table_rows),
        };
        let mut cost =
            (scan.total() + table_rows * model.cpu_pred * n_total) * executions - old_resid_cpu;
        if usage.provided_order.is_some() {
            cost += model.sort(usage.rows, sort_width).total();
        }
        compensation(&mut cost);
        cost
    };

    for candidate in candidates {
        let new_size = size_model
            .index_bytes(new_schema, candidate)
            .max(model.size.page_size);
        let s_i = usage.selectivity().max(1e-12);
        // Longest candidate key prefix answerable from the recorded
        // seek predicates (set-wise, per the paper). A range predicate
        // consumes its column but stops the prefix — exactly the rule
        // `seek_prefix` applies, so the patched seek is never deeper
        // (more selective) than the one the optimizer can run.
        let (s_ir, any_prefix, used_preds) = {
            let mut s = 1.0f64;
            let mut any = false;
            let mut used = 0usize;
            for kc in &candidate.key {
                match seek_sels.iter().find(|(c, _, _)| c == kc) {
                    Some((_, sel, eq)) => {
                        s *= sel;
                        any = true;
                        used += 1;
                        if !*eq {
                            break;
                        }
                    }
                    None => break,
                }
            }
            (if any { s } else { 1.0 }, any, used)
        };
        let covers = candidate.covers(full_needed.iter());
        let mut cost = match usage.kind {
            // The optimizer scans an index in a scan role only when it
            // covers every referenced column; leaf I/O scales with the
            // replacement's size, per-row CPU does not, and the full
            // filter bill is unchanged between two covering scans.
            UsageKind::Scan => {
                if !covers {
                    continue;
                }
                usage.access_io * new_size / old_size
                    + usage.access_cpu
                    + table_rows * model.cpu_pred * n_total * executions
                    - old_resid_cpu
            }
            // Seek with a usable key prefix: descent plus leaf I/O
            // scaled by the touched-leaf volume, CPU by the output-row
            // ratio (§3.3.2); every predicate the new seek does not
            // consume is re-filtered at the new seek's cardinality.
            UsageKind::Seek { .. } if any_prefix => {
                let resid = (n_total - used_preds as f64).max(0.0);
                // Seek I/O has two parts that scale differently: leaf
                // volume scales with the touched-byte ratio, while the
                // per-descent cost scales with the B-tree level count —
                // and a usage aggregated over nested-loops executions
                // pays the descent once *per execution*. Scaling by the
                // worse of the two ratios dominates both terms.
                let leaf_ratio = (s_ir * new_size) / (s_i * old_size);
                let levels_ratio = model.btree_levels(new_schema, candidate)
                    / model.btree_levels(old_schema, &usage.index).max(1.0);
                let mut c = model.btree_levels(new_schema, candidate) * model.rand_page
                    + usage.access_io * leaf_ratio.max(levels_ratio)
                    + usage.access_cpu * (s_ir / s_i)
                    + new_schema.rows(target_table) * s_ir * model.cpu_pred * resid * executions
                    - old_resid_cpu;
                // Rid lookups when the replacement misses needed
                // columns, at the degraded seek's cardinality. The
                // sequential-rescan cap inside `rid_lookup` only holds
                // within one execution, so charge the per-execution
                // lookup and multiply — exactly what the optimizer
                // charges for the same nested-loops inner.
                if !covers {
                    let per_exec = usage.rows * (s_ir / s_i) / executions;
                    c += executions * model.rid_lookup(per_exec, table_pages).total();
                }
                c
            }
            // No usable key prefix: the only real plan on this index is
            // a covering scan-and-filter.
            UsageKind::Seek { .. } => {
                if !covers {
                    continue;
                }
                (model
                    .full_scan(model.index_pages(new_schema, candidate), table_rows)
                    .total()
                    + table_rows * model.cpu_pred * n_total)
                    * executions
                    - old_resid_cpu
            }
        };
        // Sort when a relied-upon order is lost: key prefixes must
        // match, and a rid lookup returns rows in rid order regardless
        // of the index that fed it.
        if let Some(oc) = &order_cols {
            let compatible =
                covers && candidate.key.len() >= oc.len() && candidate.key[..oc.len()] == oc[..];
            if !compatible {
                cost += model.sort(usage.rows, sort_width).total();
            }
        }
        compensation(&mut cost);
        if cost < best {
            best = cost;
            best_src = Some(candidate.clone());
        }
    }
    // The witness is deliberately coarse: a scan-shaped usage whose
    // access I/O is the *entire* patch. A future removal of the source
    // structure then charges `(next_patch - patch)⁺` on top — never
    // less than the true increment, so the §3.3.2 upper-bound
    // guarantee survives chained servings.
    let source = match best_src {
        None => PatchSource::Heap,
        Some(index) => PatchSource::Structure(IndexUsage {
            index,
            kind: UsageKind::Scan,
            access_io: best.max(0.0),
            access_cpu: 0.0,
            rows: usage.rows,
            provided_order: usage
                .provided_order
                .as_ref()
                .map(|o| o.iter().map(|(c, d)| (map_col(c), *d)).collect()),
            provided_columns: full_needed.iter().copied().collect(),
            followed_by_lookup: false,
            seek_col_sels: Vec::new(),
            total_preds: usage.total_preds,
            resid_pred_cols: BTreeSet::new(),
            resid_filter_cpu: 0.0,
            executions: usage.executions,
        }),
    };
    (best, source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_full;
    use crate::transform::{apply, Transformation};
    use pdt_catalog::{ColumnStats, ColumnType};
    use pdt_opt::Optimizer;
    use pdt_physical::Index;
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
        b.build()
    }

    fn setup(db: &Database, sql: &str) -> (Workload, Configuration, Index, Index) {
        let w = Workload::bind(db, &parse_workload(sql).unwrap()).unwrap();
        let t = db.table_by_name("r").unwrap();
        let i1 = Index::new(t.id, [t.column_id(1)], [t.column_id(3)]);
        let i2 = Index::new(t.id, [t.column_id(2)], [t.column_id(3)]);
        let mut config = Configuration::base(db);
        config.add_index(i1.clone());
        config.add_index(i2.clone());
        (w, config, i1, i2)
    }

    /// The §3.3.2 guarantee: the bound is an upper bound on the true
    /// re-optimized cost, and it is tight enough to be useful (within a
    /// small factor for simple replacements).
    #[test]
    fn bound_dominates_true_cost_for_merges() {
        let db = test_db();
        let (w, config, i1, i2) = setup(
            &db,
            "SELECT r.c FROM r WHERE r.a = 5; SELECT r.c FROM r WHERE r.b = 9",
        );
        let opt = Optimizer::new(&db);
        let eval = evaluate_full(&db, &opt, &config, &w);
        let applied = apply(
            &Transformation::MergeIndexes {
                i1: i1.clone(),
                i2: i2.clone(),
            },
            &config,
            &db,
            &opt,
        )
        .unwrap();
        let vc = ViewBuildCosts::new();
        let bound = cost_upper_bound(
            &db,
            &CostModel::default(),
            &w,
            &eval,
            &config,
            &applied,
            &vc,
        );
        let truth = evaluate_full(&db, &opt, &applied.config, &w).total_cost;
        assert!(
            bound >= truth * 0.999,
            "bound {bound} must dominate true cost {truth}"
        );
        assert!(
            bound <= truth * 20.0 + eval.total_cost,
            "bound {bound} uselessly loose vs {truth}"
        );
    }

    #[test]
    fn bound_dominates_for_removal_and_prefix() {
        let db = test_db();
        let (w, config, i1, _) = setup(&db, "SELECT r.c FROM r WHERE r.a = 5 AND r.b = 9");
        let opt = Optimizer::new(&db);
        let eval = evaluate_full(&db, &opt, &config, &w);
        let vc = ViewBuildCosts::new();
        for t in [
            Transformation::RemoveIndex { index: i1.clone() },
            Transformation::PrefixIndex {
                index: i1.clone(),
                len: 1,
            },
        ] {
            let applied = apply(&t, &config, &db, &opt).unwrap();
            let bound = cost_upper_bound(
                &db,
                &CostModel::default(),
                &w,
                &eval,
                &config,
                &applied,
                &vc,
            );
            let truth = evaluate_full(&db, &opt, &applied.config, &w).total_cost;
            assert!(
                bound >= truth * 0.999,
                "{t:?}: bound {bound} < truth {truth}"
            );
        }
    }

    #[test]
    fn unaffected_queries_keep_their_cost() {
        let db = test_db();
        let (w, config, _, i2) = setup(
            &db,
            "SELECT r.c FROM r WHERE r.a = 5; SELECT r.c FROM r WHERE r.b = 9",
        );
        let opt = Optimizer::new(&db);
        let eval = evaluate_full(&db, &opt, &config, &w);
        // Removing i2 only affects query 2: the bound equals
        // query1 + patched(query2) and query1's term is untouched.
        let applied = apply(
            &Transformation::RemoveIndex { index: i2 },
            &config,
            &db,
            &opt,
        )
        .unwrap();
        let vc = ViewBuildCosts::new();
        let bound = cost_upper_bound(
            &db,
            &CostModel::default(),
            &w,
            &eval,
            &config,
            &applied,
            &vc,
        );
        assert!(bound >= eval.total_cost);
        let q1 = eval.per_query[0].select_cost;
        assert!(bound >= q1, "query 1 cost preserved in the bound");
    }

    #[test]
    fn update_shells_can_lower_the_bound() {
        // §3.6: removing an index can *reduce* total cost because its
        // maintenance vanishes — the bound must see that.
        let db = test_db();
        let stmts = parse_workload("UPDATE r SET c = c + 1 WHERE b BETWEEN 1 AND 90").unwrap();
        let w = Workload::bind(&db, &stmts).unwrap();
        let t = db.table_by_name("r").unwrap();
        // Index on c: maintained by the update, never useful for it.
        let ix = Index::new(t.id, [t.column_id(3)], []);
        let mut config = Configuration::base(&db);
        config.add_index(ix.clone());
        let opt = Optimizer::new(&db);
        let eval = evaluate_full(&db, &opt, &config, &w);
        let applied = apply(
            &Transformation::RemoveIndex { index: ix },
            &config,
            &db,
            &opt,
        )
        .unwrap();
        let vc = ViewBuildCosts::new();
        let bound = cost_upper_bound(
            &db,
            &CostModel::default(),
            &w,
            &eval,
            &config,
            &applied,
            &vc,
        );
        assert!(
            bound < eval.total_cost,
            "dropping a write-only index lowers cost: {bound} vs {}",
            eval.total_cost
        );
    }

    #[test]
    fn view_build_costs_are_cached() {
        let db = test_db();
        let mut config = Configuration::base(&db);
        let r = db.table_by_name("r").unwrap().id;
        let def = pdt_physical::SpjgExpr {
            tables: [r].into(),
            output_cols: [ColumnId::new(r, 1)].into(),
            ranges: vec![pdt_expr::SargablePred {
                column: ColumnId::new(r, 2),
                sarg: pdt_expr::Sarg::Range(pdt_expr::Interval::at_most(10.0, true)),
            }],
            ..Default::default()
        };
        let vid = config.allocate_view_id();
        config.add_view(pdt_physical::MaterializedView::create(
            vid, def, 1000.0, &db,
        ));
        let model = CostModel::default();
        let vc = ViewBuildCosts::new();
        let a = vc.get(&db, &model, &config, vid);
        let b = vc.get(&db, &model, &config, vid);
        assert!(a > 0.0);
        assert_eq!(a, b);
    }
}
