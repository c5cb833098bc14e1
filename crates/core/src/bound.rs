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
//! with the access paths of the configuration being relaxed (the paper's
//! refinement, which costs it against `C − {V}` rather than the base
//! configuration), plus a scan per former index usage.

use crate::eval::{EvalResult, ShellTable};
use crate::transform::{TransformDelta, Transformation};
use crate::workload::Workload;
use pdt_catalog::{ColumnId, Database, TableId};
use pdt_opt::{CostModel, IndexUsage, UsageKind};
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
    /// of its definition, of [`best_access_usages`] over that table's
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
    /// [`best_access_usages`]: pdt_opt::access::best_access_usages
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
                !delta.added_indexes.iter().any(on_view_table)
                    && !delta
                        .removed_indexes
                        .iter()
                        .any(|r| rebuild_reads(v, usages, r))
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

/// The removal arm of [`ViewBuildCosts::carried`]: whether removing `r`
/// can change the CBV of `v` whose rebuild plan leaned on `usages` —
/// `r` is on a table of `v`'s definition and is used by the rebuild,
/// clustered, or seekable for `v`.
fn rebuild_reads(v: &MaterializedView, usages: &[IndexUsage], r: &Index) -> bool {
    v.def.tables.contains(&r.table)
        && (r.clustered
            || v.def.ranges.iter().any(|p| p.column == r.key[0])
            || usages.iter().any(|u| u.index == *r))
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
        let (choice, used) = pdt_opt::access::best_access_usages(model, &schema, &req);
        total += choice.cost.total();
        usages.extend(used);
        let rows = choice.rows.max(1.0);
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

impl BoundNode<'_> {
    /// Entry `entry`'s own term, `weight · (select + shell)` under this
    /// configuration: its term in the bound of every step that does not
    /// touch it ([`touched_terms`]).
    pub fn term(&self, workload: &Workload, entry: usize) -> f64 {
        workload.entries[entry].weight
            * (self.prev.per_query[entry].select_cost + self.shells.fold(entry))
    }

    /// [`term`](Self::term) of every entry, in entry order.
    pub fn terms(&self, workload: &Workload) -> Vec<f64> {
        (0..workload.entries.len())
            .map(|i| self.term(workload, i))
            .collect()
    }
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
                    PatchSource::Structure(w) => kept.push(witness(usage, delta, w, patch)),
                    PatchSource::Heap(_) => {}
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

/// The §3.3.2 bound of `delta` applied to `node`'s configuration: the
/// fold of its touched terms over the node's own ([`touched_terms`],
/// [`fold_touched`]). Restricted, only the entries the step touches are
/// priced, O(touched) instead of O(workload); unrestricted, every entry
/// is — the from-scratch form behind [`cost_upper_bound`], which reads
/// none of the node's own terms. Both add `weight · (select + shell)`
/// in entry order, and an untouched entry's term is the node's own bit
/// for bit, so the two agree exactly.
pub(crate) fn node_bound(
    db: &Database,
    model: &CostModel,
    workload: &Workload,
    node: &BoundNode<'_>,
    delta: &TransformDelta,
    restricted: bool,
) -> f64 {
    let terms = touched_terms(db, model, workload, node, delta, restricted, None);
    fold_touched(workload.entries.len(), |i| node.term(workload, i), &terms)
}

/// The entries `delta` *touches* on `node`, each with its term
/// `weight · (select + shell)` under the relaxed configuration, in
/// entry order. An entry is touched when its plan uses a structure the
/// step removes (its select side is patched), or when the step can
/// change its shell fold: its shell row holds a removed index, the step
/// adds an index, or the step flips whether the configuration has any
/// index (the fold's `+0.0`, see `ShellTable`). Every other entry's
/// term under the step is [`BoundNode::term`] bit for bit. Unrestricted,
/// every entry counts as touched.
///
/// With `deps`, each patch also records what it read beyond its entry
/// ([`PatchDep`]), once per distinct dependency.
#[allow(clippy::too_many_arguments)]
pub(crate) fn touched_terms(
    db: &Database,
    model: &CostModel,
    workload: &Workload,
    node: &BoundNode<'_>,
    delta: &TransformDelta,
    restricted: bool,
    mut deps: Option<&mut Vec<PatchDep>>,
) -> Vec<(usize, f64)> {
    let BoundNode {
        prev,
        config: old_config,
        shells,
        view_costs,
    } = *node;
    let old_schema = PhysicalSchema::new(db, old_config);
    let new_schema = old_schema.relaxed(&delta.removed_views, delta.added_view.as_ref());
    let new_shells = shells.relaxed(model, &new_schema, old_config, delta);
    let removed = &delta.removed_indexes;
    let any_index =
        !delta.added_indexes.is_empty() || old_config.indexes().any(|i| !removed.contains(i));
    let every_shell = !delta.added_indexes.is_empty() || any_index != shells.any_index();
    let mut terms = Vec::new();
    for (i, (entry, q)) in workload.entries.iter().zip(&prev.per_query).enumerate() {
        let patched = q.uses_any(removed, &delta.removed_views);
        let reshelled = entry.shell.is_some()
            && (every_shell || shells.terms(i).iter().any(|(x, _)| removed.contains(x)));
        if restricted && !patched && !reshelled {
            continue;
        }
        let mut select = q.select_cost;
        if patched {
            for usage in q.usages.iter() {
                if !removed.contains(&usage.index)
                    && !delta.removed_views.contains(&usage.index.table)
                {
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
                if let Some(deps) = deps.as_deref_mut() {
                    let dep = source.dep(usage);
                    if !deps.contains(&dep) {
                        deps.push(dep);
                    }
                }
            }
        }
        let shell = entry.shell.as_ref().map_or(0.0, |s| new_shells.cost(i, s));
        terms.push((i, entry.weight * (select + shell)));
    }
    terms
}

/// `Σ_i term_i` in entry order over `entries` entries: the touched
/// entries' terms from `touched` (sorted by entry), every other entry's
/// from `node_term`. The additions and their order do not depend on
/// which entries are touched, so a restricted fold is the unrestricted
/// one bit for bit whenever the untouched terms are.
pub(crate) fn fold_touched(
    entries: usize,
    node_term: impl Fn(usize) -> f64,
    touched: &[(usize, f64)],
) -> f64 {
    let mut touched = touched.iter().peekable();
    let mut total = 0.0;
    for i in 0..entries {
        total += match touched.next_if(|(at, _)| *at == i) {
            Some((_, term)) => *term,
            None => node_term(i),
        };
    }
    total
}

/// A step's §3.3 estimates `(ΔT, ΔS)` from its bound's ΔT and the space
/// it frees; `None` when it neither frees space nor lowers the bound.
pub(crate) fn estimates(delta_t: f64, delta_bytes: f64) -> Option<(f64, f64)> {
    if delta_bytes <= 0.0 && delta_t >= 0.0 {
        return None;
    }
    Some((delta_t, delta_bytes))
}

/// What a §3.3.2 patch read beyond its entry's evaluation and shell
/// row: removing one of the structures it names can change the patch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PatchDep {
    /// A patch over `table`'s surviving structures, won by `source`
    /// (`None`: the heap). The patch is a first-strict-minimum argmin
    /// over per-index candidates whose costs do not depend on one
    /// another, plus a scan baseline through the clustered index: only
    /// removing the winner or the clustered index can move it.
    Source {
        table: TableId,
        source: Option<Index>,
    },
    /// A CBV patch: `view` rebuilt through `usages` (the rebuild plan's
    /// index usages). It reads what the view's CBV entry reads
    /// ([`ViewBuildCosts::carried`]).
    Rebuild {
        view: TableId,
        usages: Arc<[IndexUsage]>,
    },
}

impl PatchDep {
    /// Whether removing `removed` from `config` can change the patch.
    fn reads(&self, config: &Configuration, removed: &Index) -> bool {
        match self {
            PatchDep::Source { table, source } => {
                removed.table == *table && (removed.clustered || source.as_ref() == Some(removed))
            }
            PatchDep::Rebuild { view, usages } => config
                .view(*view)
                .is_none_or(|v| rebuild_reads(v, usages, removed)),
        }
    }
}

/// A pre-pass removal's §3.3.2 score ingredients, carried from step to
/// step beside the removal list (DESIGN.md §13, "Node facts"): its
/// space delta, its touched terms ([`touched_terms`]) and what its
/// patches read. The score on any node the ingredients are valid for is
/// their fold over the node's own terms ([`score`](Self::score)), which
/// is the restricted bound bit for bit. After a step,
/// [`stale`](Self::stale) says whether the step can have changed them.
#[derive(Debug, Clone)]
pub(crate) struct RemovalScore {
    delta_bytes: f64,
    terms: Vec<(usize, f64)>,
    deps: Vec<PatchDep>,
    /// How many indexes the removal drops.
    removed_indexes: usize,
    /// How many indexes the configuration it was priced on had.
    node_indexes: usize,
}

/// Why a step can have changed a carried [`RemovalScore`]: the arms of
/// the carry rule, in the order [`RemovalScore::stale`] tries them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stale {
    /// (a) The removal touches an entry the step touched: that entry
    /// was re-evaluated, or its shell row lost a term.
    SharedEntry,
    /// (b) The step removed an index one of the removal's patches read
    /// ([`PatchDep`]).
    PatchInput,
    /// (b′) The removal drops a view and the step removed one of that
    /// view's indexes: the removal itself changed.
    ViewIndex,
    /// (c) An entry the step re-evaluated now uses a structure the
    /// removal drops.
    NewUse,
    /// (d) The step flipped whether the configuration, or the
    /// removal's relaxation of it, has any index.
    IndexFlag,
}

impl Stale {
    const ARMS: [Stale; 5] = [
        Stale::SharedEntry,
        Stale::PatchInput,
        Stale::ViewIndex,
        Stale::NewUse,
        Stale::IndexFlag,
    ];
}

/// A removal step just applied, as [`RemovalScore::stale`] reads it:
/// its score on the node it was applied to, its delta, and the child's
/// configuration and evaluation.
pub(crate) struct RemovalStep<'s> {
    pub score: &'s RemovalScore,
    pub delta: &'s TransformDelta,
    pub config: &'s Configuration,
    pub eval: &'s EvalResult,
}

impl RemovalScore {
    /// Price the removal `delta` (described against `node.config`)
    /// from scratch.
    pub(crate) fn price(
        db: &Database,
        model: &CostModel,
        workload: &Workload,
        node: &BoundNode<'_>,
        delta: &TransformDelta,
    ) -> RemovalScore {
        debug_assert!(
            delta.added_indexes.is_empty() && delta.added_view.is_none(),
            "a carried pre-pass score prices a removal"
        );
        let mut deps = Vec::new();
        let terms = touched_terms(db, model, workload, node, delta, true, Some(&mut deps));
        RemovalScore {
            delta_bytes: delta.delta_bytes,
            terms,
            deps,
            removed_indexes: delta.removed_indexes.len(),
            node_indexes: node.config.index_count(),
        }
    }

    /// The removal's [`estimates`] on a node whose own terms are
    /// `node_terms` and whose cost is `node_cost`.
    pub(crate) fn score(&self, node_terms: &[f64], node_cost: f64) -> Option<(f64, f64)> {
        let bound = fold_touched(node_terms.len(), |i| node_terms[i], &self.terms);
        estimates(bound - node_cost, self.delta_bytes)
    }

    /// The arms of the carry rule under which `step` can have changed
    /// the ingredients of `removal` (whose score this is, priced on the
    /// node `step` was applied to or carried to it): empty iff they are
    /// still exact for the child. Beyond the touched entries, a touched
    /// term reads only the structures its patches name, so nothing
    /// else can move it.
    pub(crate) fn stale<'s>(
        &'s self,
        removal: &'s Transformation,
        step: &'s RemovalStep<'s>,
    ) -> impl Iterator<Item = Stale> + 's {
        debug_assert!(
            step.delta.added_indexes.is_empty() && step.delta.added_view.is_none(),
            "the pre-pass steps by removals"
        );
        Stale::ARMS
            .into_iter()
            .filter(move |arm| self.holds(*arm, removal, step))
    }

    fn holds(&self, arm: Stale, removal: &Transformation, step: &RemovalStep<'_>) -> bool {
        let removed = &step.delta.removed_indexes;
        match arm {
            Stale::SharedEntry => shares_entry(&self.terms, &step.score.terms),
            Stale::PatchInput => self
                .deps
                .iter()
                .any(|d| removed.iter().any(|x| d.reads(step.config, x))),
            Stale::ViewIndex => match removal {
                Transformation::RemoveView { view } => removed.iter().any(|x| x.table == *view),
                _ => false,
            },
            Stale::NewUse => step.score.terms.iter().any(|(i, _)| {
                step.eval.per_query[*i]
                    .usages
                    .iter()
                    .any(|u| drops(removal, u))
            }),
            Stale::IndexFlag => {
                let flags = |n: usize| (n > 0, n > self.removed_indexes);
                flags(self.node_indexes) != flags(step.config.index_count())
            }
        }
    }

    /// Panic unless these ingredients equal `fresh`, a scratch pricing
    /// of the same removal on the same node, bit for bit: the check
    /// behind [`stale`](Self::stale).
    pub(crate) fn assert_matches(&self, fresh: &RemovalScore, removal: &Transformation) {
        assert!(
            self.matches(fresh),
            "carried pre-pass score of {removal} diverged from scratch pricing"
        );
    }

    fn matches(&self, fresh: &RemovalScore) -> bool {
        let same_terms = self.terms.len() == fresh.terms.len()
            && self
                .terms
                .iter()
                .zip(&fresh.terms)
                .all(|((i, t), (j, u))| i == j && t.to_bits() == u.to_bits());
        same_terms
            && self.deps == fresh.deps
            && self.delta_bytes.to_bits() == fresh.delta_bytes.to_bits()
            && self.removed_indexes == fresh.removed_indexes
    }
}

/// Whether two entry-sorted term lists share an entry.
fn shares_entry(a: &[(usize, f64)], b: &[(usize, f64)]) -> bool {
    a.iter()
        .any(|(i, _)| b.binary_search_by_key(i, |(j, _)| *j).is_ok())
}

/// Whether `usage` is on a structure `removal` drops — the test
/// [`touched_terms`] applies to a plan (`QueryEval::uses_any` over the
/// removal's delta).
fn drops(removal: &Transformation, usage: &IndexUsage) -> bool {
    match removal {
        Transformation::RemoveIndex { index } => usage.index == *index,
        Transformation::RemoveView { view } => usage.index.table == *view,
        _ => true,
    }
}

/// What the winning patch plan depends on — the part of the answer a
/// served evaluation must remember so *later* transformations still
/// see the dependency.
enum PatchSource<'a> {
    /// The patch scans or seeks a removable structure; a served
    /// evaluation records a [`witness`] usage on it.
    Structure(&'a Index),
    /// The patch runs on the heap of the table — irremovable, nothing
    /// to remember.
    Heap(TableId),
    /// The structure's table vanished and the patch rebuilds the view
    /// with the *current* configuration's access paths (the paper's
    /// refined CBV). The rebuild plan's own index usages — real
    /// accesses with real per-access costs — are the dependency: a
    /// served evaluation records them all, and a later removal of any
    /// one re-patches that access through the ordinary §3.3.2
    /// machinery. Empty when the rebuild scans heaps only.
    Rebuild(Arc<[IndexUsage]>),
}

impl PatchSource<'_> {
    /// The [`PatchDep`] of the patch of `usage` this source won.
    fn dep(self, usage: &IndexUsage) -> PatchDep {
        match self {
            PatchSource::Structure(index) => PatchDep::Source {
                table: index.table,
                source: Some(index.clone()),
            },
            PatchSource::Heap(table) => PatchDep::Source {
                table,
                source: None,
            },
            PatchSource::Rebuild(usages) => PatchDep::Rebuild {
                view: usage.index.table,
                usages,
            },
        }
    }
}

/// The usage a served evaluation records for a patch of `usage` that
/// costs `patch` and was won by `index`. It is deliberately coarse: a
/// scan-shaped usage whose access I/O is the *entire* patch. A future
/// removal of `index` then charges `(next_patch - patch)⁺` on top —
/// never less than the true increment, so the §3.3.2 upper-bound
/// guarantee survives chained servings.
fn witness(usage: &IndexUsage, delta: &TransformDelta, index: &Index, patch: f64) -> IndexUsage {
    let map_col = |c: &ColumnId| -> ColumnId { delta.col_map.get(c).copied().unwrap_or(*c) };
    IndexUsage {
        index: index.clone(),
        kind: UsageKind::Scan,
        access_io: patch.max(0.0),
        access_cpu: 0.0,
        rows: usage.rows,
        provided_order: usage
            .provided_order
            .as_ref()
            .map(|o| o.iter().map(|(c, d)| (map_col(c), *d)).collect()),
        // What a lookup-free replacement must provide: the output
        // columns and every predicate column.
        provided_columns: usage
            .provided_columns
            .iter()
            .chain(&usage.resid_pred_cols)
            .chain(usage.seek_col_sels.iter().map(|(c, _, _)| c))
            .map(map_col)
            .collect(),
        followed_by_lookup: false,
        seek_col_sels: Vec::new(),
        total_preds: usage.total_preds,
        resid_pred_cols: BTreeSet::new(),
        resid_filter_cpu: 0.0,
        executions: usage.executions,
    }
}

/// Cost of answering one former index usage with the relaxed
/// configuration's structures (the patch plan of Fig. 7), plus the
/// [`PatchSource`] the winning plan depends on.
#[allow(clippy::too_many_arguments)]
fn replacement_cost<'a>(
    db: &Database,
    model: &CostModel,
    old_schema: &PhysicalSchema<'_>,
    new_schema: &PhysicalSchema<'a>,
    old_config: &'a Configuration,
    delta: &'a TransformDelta,
    usage: &IndexUsage,
    view_costs: &ViewBuildCosts,
) -> (f64, PatchSource<'a>) {
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
    // The old index's pages, and each candidate's below, are priced
    // once: its size and its levels derive from them. A usage holds a
    // copy of its index, never one of the configuration's handles, so
    // no page memo can serve it.
    let old_pages = model.size.compute_index_pages(old_schema, &usage.index);
    let old_size = (old_pages * model.size.page_size).max(model.size.page_size);
    let old_levels = model.levels_of(old_pages).max(1.0);
    // The usage's columns in the relaxed configuration's column space,
    // mapped where they are read (no per-usage copies).
    let needed = || usage.provided_columns.iter().map(map_col);
    let seek_sels = || {
        usage
            .seek_col_sels
            .iter()
            .map(|(c, s, eq)| (map_col(c), *s, *eq))
    };

    let table_rows = new_schema.rows(target_table).max(1.0);
    let table_pages = (table_rows * new_schema.row_width(target_table) / model.size.page_size)
        .ceil()
        .max(1.0);

    // Sorts are charged the way the optimizer charges them: row width =
    // sum of the widths of the columns the access must produce. The
    // old hardcoded 64-byte width undercut wide sorts, and an undercut
    // patch breaks the §3.3.2 upper-bound guarantee.
    let sort_width = needed()
        .map(|c| new_schema.column_width(c))
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
    let candidates = delta.child_indexes_on(new_schema, target_table);
    let pages = |index: &Index, slot| model.size.index_pages_at(new_schema, index, slot);
    let mut best_src: Option<&Index> = None;
    let mut best = {
        let scan = match candidates.iter().copied().find(|(i, _)| i.clustered) {
            Some((ci, slot)) => {
                best_src = Some(ci);
                model.full_scan(pages(ci, slot), table_rows)
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

    for (candidate, slot) in candidates {
        let new_pages = pages(candidate, slot);
        let new_size = (new_pages * model.size.page_size).max(model.size.page_size);
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
                match seek_sels().find(|(c, _, _)| c == kc) {
                    Some((_, sel, eq)) => {
                        s *= sel;
                        any = true;
                        used += 1;
                        if !eq {
                            break;
                        }
                    }
                    None => break,
                }
            }
            (if any { s } else { 1.0 }, any, used)
        };
        // A lookup-free replacement must provide the output columns AND
        // every predicate column (consumed seek columns sit in the
        // candidate's key, so including them here is never a false miss).
        let covers = candidate.clustered
            || needed()
                .chain(usage.resid_pred_cols.iter().map(map_col))
                .chain(seek_sels().map(|(c, _, _)| c))
                .all(|c| candidate.key.contains(&c) || candidate.suffix.contains(&c));
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
                let new_levels = model.levels_of(new_pages);
                let levels_ratio = new_levels / old_levels;
                let mut c = new_levels * model.rand_page
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
                (model.full_scan(new_pages, table_rows).total()
                    + table_rows * model.cpu_pred * n_total)
                    * executions
                    - old_resid_cpu
            }
        };
        // Sort when a relied-upon order is lost: key prefixes must
        // match, and a rid lookup returns rows in rid order regardless
        // of the index that fed it.
        if let Some(order) = &usage.provided_order {
            let compatible = covers
                && candidate.key.len() >= order.len()
                && candidate
                    .key
                    .iter()
                    .zip(order)
                    .all(|(k, (c, _))| *k == map_col(c));
            if !compatible {
                cost += model.sort(usage.rows, sort_width).total();
            }
        }
        compensation(&mut cost);
        if cost < best {
            best = cost;
            best_src = Some(candidate);
        }
    }
    let source = match best_src {
        None => PatchSource::Heap(target_table),
        Some(index) => PatchSource::Structure(index),
    };
    (best, source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate_full, evaluate_incremental_ctx, EvalCtx};
    use crate::transform::{apply, describe};
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

    /// One table `h(a, b, c)` of a million rows and no primary key: its
    /// base configuration has no index, so a clustered index on it is
    /// removable and a removal can leave the configuration index-free.
    fn heap_db() -> Database {
        let mut b = Database::builder("h");
        let mk = |name: &str, ndv: f64| pdt_catalog::Column {
            name: name.into(),
            ty: ColumnType::Int,
            stats: ColumnStats::uniform(ndv, 0.0, ndv, 4.0),
        };
        b.add_table(
            "h",
            1_000_000.0,
            vec![mk("a", 10_000.0), mk("b", 100.0), mk("c", 1_000.0)],
            vec![],
        );
        b.build()
    }

    /// One pre-pass step in miniature: price `removal` on `config`, step
    /// by `winner`, re-evaluate incrementally, and price `removal` again
    /// on the child. Returns the carry rule's arms for `removal` and
    /// whether its carried ingredients still equal the fresh ones. The
    /// fresh score is checked against the unrestricted bound on the way.
    fn carry_step(
        db: &Database,
        sql: &str,
        config: &Configuration,
        winner: Transformation,
        removal: Transformation,
    ) -> (Vec<Stale>, bool) {
        let w = Workload::bind(db, &parse_workload(sql).unwrap()).unwrap();
        let opt = Optimizer::new(db);
        let model = CostModel::default();
        let price = |config: &Configuration, eval: &EvalResult, t: &Transformation| {
            let shells = ShellTable::build(&model, &PhysicalSchema::new(db, config), &w);
            let vc = ViewBuildCosts::new();
            let node = BoundNode {
                prev: eval,
                config,
                shells: &shells,
                view_costs: &vc,
            };
            let delta = describe(t, config, db, &opt).unwrap();
            let score = RemovalScore::price(db, &model, &w, &node, &delta);
            let full = node_bound(db, &model, &w, &node, &delta, false);
            let folded = fold_touched(w.entries.len(), |i| node.term(&w, i), &score.terms);
            assert_eq!(folded.to_bits(), full.to_bits(), "{t}: fold vs full bound");
            score
        };
        let eval = evaluate_full(db, &opt, config, &w);
        let won = price(config, &eval, &winner);
        let carried = price(config, &eval, &removal);
        let step = apply(&winner, config, db, &opt).unwrap();
        let child_eval = evaluate_incremental_ctx(
            db,
            &opt,
            &step.config,
            &w,
            &eval,
            &step.removed_indexes,
            &step.removed_views,
            None,
            EvalCtx::default(),
        )
        .unwrap();
        let arms = carried
            .stale(
                &removal,
                &RemovalStep {
                    score: &won,
                    delta: &step.delta,
                    config: &step.config,
                    eval: &child_eval,
                },
            )
            .collect();
        let fresh = price(&step.config, &child_eval, &removal);
        (arms, carried.matches(&fresh))
    }

    fn remove(index: &Index) -> Transformation {
        Transformation::RemoveIndex {
            index: index.clone(),
        }
    }

    /// A view over `r` with `b <= 10`, output `c`, and a clustered index
    /// on its first column, added to `config`.
    fn add_view(db: &Database, config: &mut Configuration) -> (TableId, Index) {
        let r = db.table_by_name("r").unwrap().id;
        let def = pdt_physical::SpjgExpr {
            tables: [r].into(),
            output_cols: [ColumnId::new(r, 3)].into(),
            ranges: vec![pdt_expr::SargablePred {
                column: ColumnId::new(r, 2),
                sarg: pdt_expr::Sarg::Range(pdt_expr::Interval::at_most(10.0, true)),
            }],
            ..Default::default()
        };
        let vid = config.allocate_view_id();
        config.add_view(MaterializedView::create(vid, def, 100_000.0, db));
        let clustered = Index::clustered(vid, [ColumnId::new(vid, 0)]);
        config.add_index(clustered.clone());
        (vid, clustered)
    }

    #[test]
    fn a_removal_the_step_cannot_reach_is_carried() {
        let db = test_db();
        let sql = "SELECT r.c FROM r WHERE r.a = 5; SELECT r.c FROM r WHERE r.b = 9";
        let (_, config, i1, i2) = setup(&db, sql);
        let case = carry_step(&db, sql, &config, remove(&i1), remove(&i2));
        assert_eq!(case, (vec![], true));
    }

    #[test]
    fn carry_arm_a_shared_entry() {
        // Both indexes are maintained by the update and read by no plan:
        // removing one drops a term from the shell row the other's
        // score folded.
        let db = test_db();
        let t = db.table_by_name("r").unwrap();
        let a = Index::new(t.id, [t.column_id(3)], []);
        let b = Index::new(t.id, [t.column_id(3), t.column_id(1)], []);
        let mut config = Configuration::base(&db);
        config.add_index(a.clone());
        config.add_index(b.clone());
        let case = carry_step(
            &db,
            "UPDATE r SET c = c + 1 WHERE b = 7",
            &config,
            remove(&a),
            remove(&b),
        );
        assert_eq!(case, (vec![Stale::SharedEntry], false));
    }

    #[test]
    fn carry_arm_b_patch_source() {
        // Removing (a, b) patches the query through (a); removing (a),
        // which no plan reads, moves that patch to the clustered scan.
        let db = test_db();
        let t = db.table_by_name("r").unwrap();
        let ab = Index::new(t.id, [t.column_id(1), t.column_id(2)], [t.column_id(3)]);
        let a = Index::new(t.id, [t.column_id(1)], [t.column_id(3)]);
        let mut config = Configuration::base(&db);
        config.add_index(ab.clone());
        config.add_index(a.clone());
        let case = carry_step(
            &db,
            "SELECT r.c FROM r WHERE r.a = 5 AND r.b = 9",
            &config,
            remove(&a),
            remove(&ab),
        );
        assert_eq!(case, (vec![Stale::PatchInput], false));
    }

    #[test]
    fn carry_arm_b_clustered_baseline() {
        // The patch of the covering seek is won by the narrower,
        // non-covering seek on `a`, which beats the scan through the
        // clustered index but not a heap scan: removing the clustered
        // index, which is not the source, lets the heap scan win.
        let db = heap_db();
        let t = db.table_by_name("h").unwrap();
        let clustered = Index::clustered(t.id, [t.column_id(1)]);
        let covering = Index::new(t.id, [t.column_id(0)], [t.column_id(2)]);
        let narrow = Index::new(t.id, [t.column_id(0)], []);
        let mut config = Configuration::base(&db);
        for i in [&clustered, &covering, &narrow] {
            config.add_index(i.clone());
        }
        let case = carry_step(
            &db,
            "SELECT h.c FROM h WHERE h.a BETWEEN 0 AND 4000",
            &config,
            remove(&clustered),
            remove(&covering),
        );
        assert_eq!(case, (vec![Stale::PatchInput], false));
    }

    #[test]
    fn carry_arm_b_view_rebuild() {
        // The query reads the view; removing the view patches it with a
        // rebuild that seeks (b). Removing (b), which no plan reads,
        // moves the rebuild to a scan.
        let db = test_db();
        let t = db.table_by_name("r").unwrap();
        let mut config = Configuration::base(&db);
        let (view, _) = add_view(&db, &mut config);
        let b = Index::new(t.id, [t.column_id(2)], [t.column_id(3)]);
        config.add_index(b.clone());
        let case = carry_step(
            &db,
            "SELECT r.c FROM r WHERE r.b <= 10",
            &config,
            remove(&b),
            Transformation::RemoveView { view },
        );
        assert_eq!(case, (vec![Stale::PatchInput], false));
    }

    #[test]
    fn carry_arm_b_prime_view_index() {
        // Removing one of the view's own indexes changes what removing
        // the view drops, and so the space it frees. (The index on `a`
        // keeps the configuration's index count clear of arm (d).)
        let db = test_db();
        let t = db.table_by_name("r").unwrap();
        let mut config = Configuration::base(&db);
        config.add_index(Index::new(t.id, [t.column_id(1)], []));
        let (view, _) = add_view(&db, &mut config);
        let secondary = Index::new(view, [ColumnId::new(view, 0)], []);
        config.add_index(secondary.clone());
        let case = carry_step(
            &db,
            "SELECT r.a FROM r WHERE r.a = 5",
            &config,
            remove(&secondary),
            Transformation::RemoveView { view },
        );
        assert_eq!(case, (vec![Stale::ViewIndex], false));
    }

    #[test]
    fn carry_arm_c_new_use() {
        // No plan reads (a, b) until (a) is removed: the re-evaluated
        // query then leans on it, so its removal now patches that query.
        let db = test_db();
        let t = db.table_by_name("r").unwrap();
        let a = Index::new(t.id, [t.column_id(1)], [t.column_id(3)]);
        let ab = Index::new(t.id, [t.column_id(1), t.column_id(2)], [t.column_id(3)]);
        let mut config = Configuration::base(&db);
        config.add_index(a.clone());
        config.add_index(ab.clone());
        let case = carry_step(
            &db,
            "SELECT r.c FROM r WHERE r.a = 5",
            &config,
            remove(&a),
            remove(&ab),
        );
        assert_eq!(case, (vec![Stale::NewUse], false));
    }

    #[test]
    fn carry_arm_d_index_flag() {
        // With no base index, removing (c) leaves (b) the only index:
        // removing (b) now empties the configuration, and every shell
        // fold loses its `+0.0`.
        let db = heap_db();
        let t = db.table_by_name("h").unwrap();
        let c = Index::new(t.id, [t.column_id(2)], []);
        let b = Index::new(t.id, [t.column_id(1)], []);
        let mut config = Configuration::base(&db);
        config.add_index(c.clone());
        config.add_index(b.clone());
        let case = carry_step(
            &db,
            "UPDATE h SET c = c + 1 WHERE a = 3; SELECT h.b FROM h WHERE h.b = 5",
            &config,
            remove(&c),
            remove(&b),
        );
        assert_eq!(case, (vec![Stale::IndexFlag], false));
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
