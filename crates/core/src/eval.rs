//! Workload cost evaluation with minimal re-optimization.
//!
//! Every evaluation runs one loop over the workload entries. An
//! incremental one starts from the previous configuration's answers and
//! a [`Change`] naming what differs; an entry the change cannot reach
//! keeps its previous answer:
//!
//! * the relaxation search only ever *shrinks* configurations, so a
//!   query whose plan used none of the removed structures keeps its
//!   plan ("we only need to re-optimize queries that used some of the
//!   relaxed structures", §3);
//! * the bottom-up baseline only ever *adds* structures, so a SELECT
//!   that reads none of the tables they sit on keeps its answer (the
//!   atomic-configuration shortcut).
//!
//! Update shells are costed in closed form — no optimizer calls (§3.6).
//!
//! Evaluation is cache-aware: entries are optimized in entry order and
//! what-if answers are memoized in the session's [`CostCache`] as they
//! arrive. Hit/miss tallies commit only after the whole evaluation
//! succeeds, so a shortcut-aborted evaluation keeps its answers but
//! counts nothing.
//!
//! A real what-if call runs the entry's prepared statement
//! ([`PreparedStatements`]) and reads the winning plan's cost and
//! usages only ([`Optimizer::what_if`]).

#![deny(clippy::too_many_lines)]

use crate::cache::{CacheEntry, CostCache, DerivedTally, Served};
use crate::derived::{sorted_subset, FlatProjector, Projection, RelevanceTable};
use crate::fault::FaultSite;
use crate::stop::StopCheck;
use crate::transform::TransformDelta;
use crate::workload::{UpdateShell, Workload, WorkloadEntry};
use pdt_catalog::{Database, TableId};
use pdt_expr::BoundSelect;
use pdt_opt::{CostModel, IndexUsage, Optimizer, PreparedSelect, WhatIf};
use pdt_physical::{Configuration, Index, PhysicalSchema};
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Evaluation of one workload entry under a configuration.
#[derive(Debug, Clone)]
pub struct QueryEval {
    /// Cost of the SELECT component (0 for pure INSERT shells).
    pub select_cost: f64,
    /// Closed-form maintenance cost of the update shell (0 for SELECTs).
    pub shell_cost: f64,
    /// Index usages of the SELECT plan (§3.3.2's explain records).
    /// Shared: unaffected queries reuse their plan across the many
    /// configurations the search evaluates, so reuse is a pointer copy.
    pub usages: Arc<[IndexUsage]>,
}

impl QueryEval {
    pub fn total(&self) -> f64 {
        self.select_cost + self.shell_cost
    }

    /// True if the plan used any of the given structures.
    pub fn uses_any(&self, removed_indexes: &[Index], removed_views: &[TableId]) -> bool {
        self.usages
            .iter()
            .any(|u| removed_indexes.contains(&u.index) || removed_views.contains(&u.index.table))
    }
}

/// Evaluation of a whole workload under a configuration.
#[derive(Debug, Clone)]
pub struct EvalResult {
    pub per_query: Vec<QueryEval>,
    /// Weighted total cost.
    pub total_cost: f64,
    /// Optimizer invocations needed to produce this result (cache hits
    /// excluded — they invoke nothing).
    pub optimizer_calls: usize,
    /// Entry indexes whose cached cost was found corrupt (non-finite or
    /// negative) and recomputed. Empty outside fault scenarios; the
    /// search records each as a contained `CachePoison` fault.
    pub poison_repairs: Vec<usize>,
}

/// What changed between the configuration an evaluation's previous
/// answers were computed under and the one being evaluated: it decides
/// which entries keep their previous answer.
#[derive(Debug, Clone, Copy)]
pub enum Change<'a> {
    /// Structures were removed (a relaxation): a plan that used none of
    /// them is kept.
    Removed {
        indexes: &'a [Index],
        views: &'a [TableId],
    },
    /// Structures were added on these tables (the bottom-up baseline):
    /// a SELECT that reads none of them is kept.
    AddedOn(&'a [TableId]),
}

impl Change<'_> {
    /// Whether entry `entry`'s previous answer `prev` still holds.
    fn keeps(&self, prev: &QueryEval, entry: &WorkloadEntry) -> bool {
        match *self {
            Change::Removed { indexes, views } => !prev.uses_any(indexes, views),
            Change::AddedOn(tables) => entry
                .select
                .as_ref()
                .is_none_or(|q| !q.tables.iter().any(|t| tables.contains(t))),
        }
    }
}

/// How an evaluation runs: the what-if cache and the session's
/// tiers around it. The default — no cache — reproduces the plain
/// evaluation exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalCtx<'c> {
    /// Ignored. Retained only because the frozen `pdt-benchmark` crate
    /// names it; the next benchmark PR drops it.
    pub threads: usize,
    /// Shared memo of optimizer answers, keyed per query by the
    /// configuration projected onto the query's tables.
    pub cache: Option<&'c CostCache>,
    /// Trace sink for `eval.commit`/`eval.abort` events and the
    /// `optimizer.calls`/`cache.*` counters. Emission happens only at
    /// the commit point.
    pub tracer: Option<&'c pdt_trace::Tracer>,
    /// Cooperative cancellation, checked between entries. A stopped
    /// evaluation returns `None` and, like a shortcut abort, commits
    /// nothing.
    pub stop: Option<&'c StopCheck<'c>>,
    /// Deterministic fault injection for this evaluation's pipeline
    /// site; `None` outside fault-injection runs.
    pub faults: Option<FaultSite<'c>>,
    /// Per-query relevant-structure sets. When present, cache keys are
    /// relevant-subset signatures and keyed misses may be served by
    /// plan reuse ([`CostCache::plan_probe`]); when absent, keys fall
    /// back to the coarse per-table projection and no derived serving
    /// happens.
    pub relevance: Option<&'c RelevanceTable>,
    /// Whether derived serves (beyond-coarse keyed hits and plan-reuse
    /// answers) may skip the real optimizer invocation. With `false`
    /// (the [`crate::Reference::Costs`] oracle) every derived serve is
    /// still *accounted* identically — same keys, probes, counters,
    /// cache contents — but is backed by a fresh optimizer call whose
    /// answer is used, so any unsoundness in the relevance derivation
    /// would surface as a byte-level divergence between the two modes.
    /// Debug builds additionally cross-validate every derived serve in
    /// both modes.
    pub derived: bool,
    /// Ignored. Once selected between the per-evaluation
    /// [`FlatProjector`] and per-entry [`RelevanceTable::projection`];
    /// the projector is now built whenever `relevance` is present
    /// (projections are bitwise-identical either way). Retained only
    /// because the frozen `pdt-benchmark` crate names the field; the
    /// next benchmark PR drops it.
    pub flat: bool,
    /// Daemon-wide shared what-if store: a probe tier after the cost
    /// cache, consulted (and fed) only on the real-invocation path and
    /// only in derived mode. Serves carry bitwise-identical answers
    /// keyed by session-portable content signatures ([`crate::shared`]),
    /// so the tier is invisible to every logical counter and to the
    /// trace; debug builds cross-validate each serve with a real call.
    /// `None` outside serve mode.
    pub shared: Option<crate::shared::SharedCtx<'c>>,
    /// The session's prepared statements, one per workload entry; real
    /// what-if calls run them. `None` prepares each call's statement
    /// afresh (the same answer, plus the configuration-independent
    /// work).
    pub prepared: Option<&'c PreparedStatements>,
}

/// Each workload entry's [`PreparedSelect`], derived the first time the
/// entry's SELECT is really optimized and run by every later what-if
/// call of the session. Belongs to one workload and one optimizer, like
/// the cost cache's entry indexes.
pub struct PreparedStatements {
    slots: Vec<OnceCell<PreparedSelect>>,
}

impl PreparedStatements {
    pub fn new(workload: &Workload) -> PreparedStatements {
        PreparedStatements {
            slots: workload.entries.iter().map(|_| OnceCell::new()).collect(),
        }
    }

    /// Entry `i`'s prepared statement, preparing `q` on first use.
    pub fn get(&self, opt: &Optimizer<'_>, i: usize, q: &BoundSelect) -> &PreparedSelect {
        self.slots[i].get_or_init(|| opt.prepare(q))
    }
}

impl fmt::Debug for PreparedStatements {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prepared = self.slots.iter().filter(|s| s.get().is_some()).count();
        f.debug_struct("PreparedStatements")
            .field("entries", &self.slots.len())
            .field("prepared", &prepared)
            .finish()
    }
}

/// Delta maintenance multiplies an index's per-row cost when the index
/// is over a materialized view referencing the written table.
const VIEW_MAINTENANCE_FACTOR: f64 = 2.0;

/// The factor at which `shell` must maintain `index` under `schema`:
/// 1 for an affected base-table index, [`VIEW_MAINTENANCE_FACTOR`] for an
/// index over a view that joins the written table, `None` when the
/// shell leaves the index alone.
fn maintenance_factor(
    schema: &PhysicalSchema<'_>,
    shell: &UpdateShell,
    index: &Index,
) -> Option<f64> {
    if index.table.is_view() {
        match schema.view(index.table) {
            Some(v) if v.def.tables.contains(&shell.table) => Some(VIEW_MAINTENANCE_FACTOR),
            _ => None,
        }
    } else {
        shell.affects(index).then_some(1.0)
    }
}

/// Cost of maintaining `index` for one modified row, whatever the
/// shell: descend the tree and write the leaf entry.
fn per_row_maintenance(model: &CostModel, schema: &PhysicalSchema<'_>, index: &Index) -> f64 {
    let levels = model.btree_levels(schema, index);
    (levels + 1.0) * model.rand_page * 0.5 + 2.0 * model.cpu_tuple
}

/// Maintenance cost of one update shell against one index: descend the
/// tree and write the leaf entry, per modified row. Indexes over
/// materialized views referencing the written table pay a delta-
/// maintenance surcharge.
pub fn shell_index_cost(
    model: &CostModel,
    schema: &PhysicalSchema<'_>,
    shell: &UpdateShell,
    index: &Index,
) -> f64 {
    match maintenance_factor(schema, shell, index) {
        Some(factor) => shell.rows * per_row_maintenance(model, schema, index) * factor,
        None => 0.0,
    }
}

/// Total shell cost of one entry under a configuration: the definition
/// [`ShellTable`] folds, and its oracle.
pub fn shell_cost(model: &CostModel, schema: &PhysicalSchema<'_>, shell: &UpdateShell) -> f64 {
    shell_cost_over(model, schema, shell, schema.config.indexes())
}

/// [`shell_cost`] over an explicit index list (in configuration order):
/// the oracle for a relaxed configuration that is never built.
fn shell_cost_over<'a>(
    model: &CostModel,
    schema: &PhysicalSchema<'_>,
    shell: &UpdateShell,
    indexes: impl Iterator<Item = &'a Index>,
) -> f64 {
    indexes
        .map(|i| shell_index_cost(model, schema, shell, i))
        .sum()
}

/// [`shell_cost`]'s sum from the terms of the indexes a shell maintains
/// alone. `shell_cost` adds one term per configuration index, a `+0.0`
/// for each index the shell leaves alone. Every term is non-negative,
/// and `x + 0.0 == x` bit for bit for every `x` but `-0.0` — the start
/// of `f64`'s `Sum`, which any first term replaces — so dropping the
/// zeros changes nothing but the sign of a sum left with no term: one
/// `+0.0` stands in for them whenever the configuration has an index.
fn fold_terms(any_index: bool, terms: impl Iterator<Item = f64>) -> f64 {
    std::iter::once(0.0)
        .filter(|_| any_index)
        .chain(terms)
        .sum()
}

/// The union of two sequences sorted by index, in index order.
fn merge_sorted<K: Ord, T>(
    a: impl Iterator<Item = (K, T)>,
    b: impl Iterator<Item = (K, T)>,
) -> impl Iterator<Item = (K, T)> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if y.0 < x.0 => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

/// One shell's terms: `(index, shell_index_cost)` in configuration
/// order.
type ShellRow = Vec<(Arc<Index>, f64)>;

/// One configuration's update-shell maintenance terms: per workload
/// entry with a shell, `(index, shell_index_cost)` for every index the
/// shell maintains, in configuration order. Folding a row
/// ([`ShellTable::fold`]) is [`shell_cost`] bit for bit at the cost of
/// the terms that are not zero, and each index's B-tree levels are
/// computed once, not once per shell.
///
/// Like a node's `ViewBuildCosts`, a child configuration's table is
/// derived from its parent's ([`ShellTable::child`], one of the
/// [`NodeFacts`](crate::node::NodeFacts)): a term depends only
/// on its index, the shell, and — for an index over a view — that view,
/// which lives exactly as long as its indexes do. So every term of a
/// surviving index carries over unchanged, removed indexes drop out and
/// added ones are priced fresh.
#[derive(Debug, Clone, Default)]
pub struct ShellTable {
    /// Indexed by workload entry: `None` for entries without a shell.
    /// Empty when no entry has one.
    rows: Vec<Option<ShellRow>>,
    /// Whether the configuration has any index; see [`fold_terms`].
    any_index: bool,
}

impl ShellTable {
    /// The table of `schema.config`, computed from scratch.
    pub fn build(
        model: &CostModel,
        schema: &PhysicalSchema<'_>,
        workload: &Workload,
    ) -> ShellTable {
        let handles = schema.config.index_handles();
        let mut table = ShellTable {
            rows: Vec::new(),
            any_index: !handles.is_empty(),
        };
        if workload.has_updates() {
            table.rows = workload
                .entries
                .iter()
                .map(|e| e.shell.as_ref().map(|_| Vec::new()))
                .collect();
            table.add_terms(model, schema, workload, handles.iter());
        }
        table
    }

    /// Insert the terms of `added` (handles of `schema.config`'s
    /// indexes, not yet in the table) in configuration order.
    fn add_terms<'h>(
        &mut self,
        model: &CostModel,
        schema: &PhysicalSchema<'_>,
        workload: &Workload,
        added: impl Iterator<Item = &'h Arc<Index>>,
    ) {
        for handle in added {
            let mut per_row = None;
            for (row, entry) in self.rows.iter_mut().zip(&workload.entries) {
                let (Some(row), Some(shell)) = (row, &entry.shell) else {
                    continue;
                };
                if let Some(factor) = maintenance_factor(schema, shell, handle) {
                    let per_row =
                        *per_row.get_or_insert_with(|| per_row_maintenance(model, schema, handle));
                    let at = row.partition_point(|(i, _)| i < handle);
                    row.insert(at, (handle.clone(), shell.rows * per_row * factor));
                }
            }
        }
    }

    /// The table of `schema.config`, one step (`delta`) away from this
    /// table's configuration: the removed indexes' terms drop out, the
    /// added ones are priced under `schema`.
    pub fn child(
        &self,
        model: &CostModel,
        schema: &PhysicalSchema<'_>,
        workload: &Workload,
        delta: &TransformDelta,
    ) -> ShellTable {
        let (removed, added) = (&delta.removed_indexes, &delta.added_indexes);
        self.stepped(model, schema, workload, removed, added)
    }

    /// The table of `schema.config`, this table's configuration plus
    /// the indexes `added` (the bottom-up baseline's greedy trials):
    /// only they are priced.
    pub fn with_added(
        &self,
        model: &CostModel,
        schema: &PhysicalSchema<'_>,
        workload: &Workload,
        added: &[Index],
    ) -> ShellTable {
        self.stepped(model, schema, workload, &[], added)
    }

    /// The table of `schema.config`, this table's configuration less
    /// `removed` plus `added`.
    fn stepped(
        &self,
        model: &CostModel,
        schema: &PhysicalSchema<'_>,
        workload: &Workload,
        removed: &[Index],
        added: &[Index],
    ) -> ShellTable {
        let config = schema.config;
        let mut table = ShellTable {
            rows: self.rows.clone(),
            any_index: config.index_count() > 0,
        };
        if table.rows.is_empty() {
            return table;
        }
        if !removed.is_empty() {
            for row in table.rows.iter_mut().flatten() {
                row.retain(|(i, _)| !removed.contains(i));
            }
        }
        let handles = added.iter().map(|a| {
            config
                .index_handles_on(a.table)
                .iter()
                .find(|h| ***h == *a)
                .expect("an added index is in the child configuration")
        });
        table.add_terms(model, schema, workload, handles);
        table
    }

    /// Panic unless this table is, bit for bit, the table of
    /// `schema.config` built from scratch: the check behind
    /// [`child`](Self::child).
    pub(crate) fn assert_matches_scratch(
        &self,
        model: &CostModel,
        schema: &PhysicalSchema<'_>,
        workload: &Workload,
    ) {
        let scratch = ShellTable::build(model, schema, workload);
        let same = |row: &ShellRow, want: &ShellRow| {
            row.len() == want.len()
                && row
                    .iter()
                    .zip(want)
                    .all(|((i, t), (j, u))| i == j && t.to_bits() == u.to_bits())
        };
        assert_eq!(
            self.any_index, scratch.any_index,
            "shell table's index flag"
        );
        assert_eq!(self.rows.len(), scratch.rows.len(), "shell table's rows");
        for (entry, (row, want)) in self.rows.iter().zip(&scratch.rows).enumerate() {
            let matches = match (row, want) {
                (Some(row), Some(want)) => same(row, want),
                (row, want) => row.is_none() && want.is_none(),
            };
            assert!(
                matches,
                "shell table entry {entry} diverged from a fresh build"
            );
        }
    }

    /// [`shell_cost`] of entry `entry`'s shell under this table's
    /// configuration; `0.0` for an entry without a shell.
    pub fn fold(&self, entry: usize) -> f64 {
        match self.rows.get(entry) {
            Some(Some(row)) => fold_terms(self.any_index, row.iter().map(|(_, t)| *t)),
            _ => 0.0,
        }
    }

    /// Whether any workload entry has a shell: without one, every fold
    /// is `0.0`.
    pub(crate) fn has_rows(&self) -> bool {
        !self.rows.is_empty()
    }

    /// Whether the table's configuration has any index: the flag its
    /// folds put a `+0.0` in for ([`fold_terms`]).
    pub fn any_index(&self) -> bool {
        self.any_index
    }

    /// Entry `entry`'s terms: the indexes its shell maintains, in
    /// configuration order, with their costs (none for an entry without
    /// a shell).
    pub fn terms(&self, entry: usize) -> &[(Arc<Index>, f64)] {
        match self.rows.get(entry) {
            Some(Some(row)) => row,
            _ => &[],
        }
    }

    /// The shell costs of the configuration `delta` relaxes `parent`
    /// (this table's configuration) into, read from this table without
    /// building that configuration or its table; `schema` is its
    /// relaxed schema.
    pub fn relaxed<'a>(
        &'a self,
        model: &'a CostModel,
        schema: &'a PhysicalSchema<'a>,
        parent: &'a Configuration,
        delta: &'a TransformDelta,
    ) -> RelaxedShells<'a> {
        RelaxedShells {
            table: self,
            model,
            schema,
            parent,
            delta,
            added: std::cell::OnceCell::new(),
        }
    }
}

/// [`ShellTable::relaxed`]: [`ShellTable::child`]'s folds for one
/// relaxation step, computed per shell on demand.
pub struct RelaxedShells<'a> {
    table: &'a ShellTable,
    model: &'a CostModel,
    schema: &'a PhysicalSchema<'a>,
    parent: &'a Configuration,
    delta: &'a TransformDelta,
    /// The added indexes with their per-row cost, in index order;
    /// computed for the first shell that asks.
    added: std::cell::OnceCell<Vec<(&'a Index, f64)>>,
}

impl RelaxedShells<'_> {
    /// [`shell_cost`] of entry `entry`'s `shell` under the relaxed
    /// configuration.
    pub fn cost(&self, entry: usize, shell: &UpdateShell) -> f64 {
        let removed = &self.delta.removed_indexes;
        let added = self.added.get_or_init(|| {
            let mut added: Vec<(&Index, f64)> = self
                .delta
                .added_indexes
                .iter()
                .map(|i| (i, per_row_maintenance(self.model, self.schema, i)))
                .collect();
            added.sort_by(|a, b| a.0.cmp(b.0));
            added
        });
        let kept = self.table.terms(entry).iter();
        let kept = kept
            .filter(|(i, _)| !removed.contains(i))
            .map(|(i, t)| (&**i, *t));
        let fresh = added.iter().filter_map(|&(i, per_row)| {
            maintenance_factor(self.schema, shell, i).map(|f| (i, shell.rows * per_row * f))
        });
        let any_index = !self.delta.added_indexes.is_empty()
            || self.parent.indexes().any(|i| !removed.contains(i));
        let cost = fold_terms(any_index, merge_sorted(kept, fresh).map(|(_, t)| t));
        if cfg!(debug_assertions) {
            let indexes = self.delta.child_indexes(self.parent);
            let full = shell_cost_over(self.model, self.schema, shell, indexes.into_iter());
            debug_assert_eq!(
                cost.to_bits(),
                full.to_bits(),
                "relaxed shell fold of entry {entry} diverged from the full sum"
            );
        }
        cost
    }
}

/// Evaluate the full workload from scratch.
pub fn evaluate_full(
    db: &Database,
    opt: &Optimizer<'_>,
    config: &Configuration,
    workload: &Workload,
) -> EvalResult {
    evaluate_full_ctx(db, opt, config, workload, EvalCtx::default())
}

/// [`evaluate_full`] with an explicit cache context.
pub fn evaluate_full_ctx(
    db: &Database,
    opt: &Optimizer<'_>,
    config: &Configuration,
    workload: &Workload,
    ctx: EvalCtx<'_>,
) -> EvalResult {
    // Full evaluations are all-or-nothing: they establish reference
    // costs (setup, baselines, resume replay), so a partial answer is
    // useless. Stripping any stop token here makes the invariant
    // structural: `evaluate_entries` returns `None` only on a shortcut
    // abort (requires `shortcut_limit`, passed as `None`) or a
    // cooperative stop (requires `ctx.stop`, cleared below). Injected
    // faults cannot reach this expect either — they panic (caught by
    // the isolation layer upstream) or poison the cache (repaired
    // in-line as a miss); neither produces a `None`.
    let ctx = EvalCtx { stop: None, ..ctx };
    evaluate_entries(db, opt, config, workload, None, None, ctx, None)
        .expect("no shortcut limit and no stop token, cannot abort")
}

/// Re-evaluate after adding structures on `tables` (the bottom-up
/// baseline's greedy trials): only SELECTs that read one of those
/// tables are re-optimized; shells are folded from `shells`, `config`'s
/// table ([`ShellTable::with_added`]). Runs to the end, like
/// [`evaluate_full_ctx`].
#[allow(clippy::too_many_arguments)]
pub fn evaluate_added_ctx(
    db: &Database,
    opt: &Optimizer<'_>,
    config: &Configuration,
    workload: &Workload,
    prev: &EvalResult,
    tables: &[TableId],
    ctx: EvalCtx<'_>,
    shells: &ShellTable,
) -> EvalResult {
    let prev = Some((prev, Change::AddedOn(tables)));
    let ctx = EvalCtx { stop: None, ..ctx };
    evaluate_entries(db, opt, config, workload, prev, None, ctx, Some(shells))
        .expect("no shortcut limit and no stop token, cannot abort")
}

/// Re-evaluate after a relaxation: only queries whose plans used one of
/// the removed structures are re-optimized; shells are recomputed in
/// closed form. With `shortcut_limit` set (§3.5 shortcut evaluation),
/// returns `None` as soon as the accumulated cost exceeds the limit.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_incremental_ctx(
    db: &Database,
    opt: &Optimizer<'_>,
    config: &Configuration,
    workload: &Workload,
    prev: &EvalResult,
    removed_indexes: &[Index],
    removed_views: &[TableId],
    shortcut_limit: Option<f64>,
    ctx: EvalCtx<'_>,
) -> Option<EvalResult> {
    let change = Change::Removed {
        indexes: removed_indexes,
        views: removed_views,
    };
    let prev = Some((prev, change));
    evaluate_entries(db, opt, config, workload, prev, shortcut_limit, ctx, None)
}

/// One entry's evaluation plus its tally, committed only if the whole
/// evaluation survives the shortcut check.
struct EntryEval {
    q: QueryEval,
    tally: EntryTally,
}

/// How one entry's SELECT was answered; folded into the evaluation's
/// counters at the commit point.
#[derive(Default)]
struct EntryTally {
    /// Logical optimizer calls (0 or 1) — a shared-store serve still
    /// counts, so the total does not depend on what that store holds.
    calls: usize,
    hit: bool,
    miss: bool,
    repaired: bool,
    /// This entry was a derived serve: a keyed hit beyond the coarse
    /// projection, or a plan-reuse answer. The exact engine would have
    /// paid an optimizer call here.
    avoided: bool,
    /// Served by plan reuse after a keyed miss.
    plan_hit: bool,
    /// Keyed miss whose plan probe found nothing servable.
    plan_miss: bool,
    /// Plan-reuse serve that re-priced a non-empty footprint.
    repriced: bool,
}

/// Everything the entries of one evaluation share.
struct EvalEnv<'a> {
    opt: &'a Optimizer<'a>,
    config: &'a Configuration,
    workload: &'a Workload,
    prev: Option<(&'a EvalResult, Change<'a>)>,
    /// Per-structure signature work hoisted out of the per-entry loop;
    /// present iff the context carries a relevance table.
    projector: Option<FlatProjector<'a>>,
    /// The configuration's shell terms.
    shells: &'a ShellTable,
    ctx: EvalCtx<'a>,
}

/// One SELECT being priced: its entry index, the bound query, and how
/// the cache tiers address it.
struct Probe<'a> {
    i: usize,
    q: &'a BoundSelect,
    /// The relevant-subset projection; `None` without a relevance table.
    proj: Option<Projection>,
    /// The keyed cache and this probe's key in it (the projection
    /// signature, or the coarse per-table one); `None` without a cache.
    cached: Option<(&'a CostCache, u128)>,
}

/// One real what-if call for `probe`'s SELECT under `env.config`.
fn what_if(env: &EvalEnv<'_>, probe: &Probe<'_>) -> WhatIf {
    match env.ctx.prepared {
        Some(prepared) => {
            let q = prepared.get(env.opt, probe.i, probe.q);
            env.opt.what_if(env.config, q)
        }
        None => env.opt.what_if(env.config, &env.opt.prepare(probe.q)),
    }
}

/// Evaluate entry `i`: re-optimize its SELECT if the change reaches it
/// (always, for a full evaluation), and re-cost its shell.
fn evaluate_entry(env: &EvalEnv<'_>, i: usize) -> EntryEval {
    let entry = &env.workload.entries[i];
    // Incremental only: an answer the change cannot reach is kept — a
    // pointer copy of the previous usages.
    let unaffected = env.prev.and_then(|(p, change)| {
        let pe = &p.per_query[i];
        change.keeps(pe, entry).then_some(pe)
    });
    let mut tally = EntryTally::default();
    let (select_cost, usages): (f64, Arc<[IndexUsage]>) = match (unaffected, &entry.select) {
        (Some(pe), _) => (pe.select_cost, pe.usages.clone()),
        (None, Some(q)) => price_select(env, i, q, &mut tally),
        (None, None) => (0.0, Vec::new().into()),
    };
    let shell = env.shells.fold(i);
    EntryEval {
        q: QueryEval {
            select_cost,
            shell_cost: shell,
            usages,
        },
        tally,
    }
}

/// Price one SELECT by walking the serving tiers in order: cost cache
/// → shared store → real optimizer call. The cost cache is the only
/// tier the logical counters see; the shared store converts a logical
/// miss's real invocation into a bitwise-identical serve.
fn price_select(
    env: &EvalEnv<'_>,
    i: usize,
    q: &BoundSelect,
    tally: &mut EntryTally,
) -> (f64, Arc<[IndexUsage]>) {
    let ctx = &env.ctx;
    // Injected panic: simulates a what-if evaluation failing; caught by
    // the isolation layer upstream.
    if let Some(f) = ctx.faults {
        f.maybe_panic(i);
    }
    // With a relevance table, key by the relevant-subset signature;
    // otherwise by the coarse per-table one.
    let proj = env.projector.as_ref().and_then(|fp| fp.project(i));
    let cached = ctx.cache.map(|cache| {
        let sig = match &proj {
            Some(p) => p.sig,
            None => {
                let tables: BTreeSet<TableId> = q.tables.iter().copied().collect();
                env.config.signature_for_tables128(&tables)
            }
        };
        (cache, sig)
    });
    let probe = Probe { i, q, proj, cached };

    // The cost cache: the exact entry, or — on a keyed miss with
    // relevance — a surviving cached plan. Classification is
    // identical in both derived modes; only the backing invocation
    // differs.
    let keyed = probe
        .cached
        .and_then(|(cache, sig)| cache.probe(i, sig, probe.proj.as_ref(), env.config));
    match keyed {
        // Validate before trusting: a poisoned entry is discarded and
        // the entry recomputed as a plain miss — no plan probe —
        // overwriting the corrupt value.
        Some(Served::Exact(e)) if e.is_poisoned() => {
            tally.repaired = true;
            price_miss(env, &probe, tally)
        }
        Some(Served::Exact(e)) => {
            tally.hit = true;
            // A stored coarse projection different from the probe's
            // marks a hit the coarse-keyed engine would have missed: an
            // optimizer call avoided.
            tally.avoided = probe.proj.as_ref().is_some_and(|p| e.coarse != p.coarse);
            serve_keyed(env, &probe, e, tally)
        }
        Some(Served::Repriced(e)) => {
            tally.hit = true;
            tally.avoided = true;
            tally.plan_hit = true;
            tally.repriced = !e.footprint.is_empty();
            serve_keyed(env, &probe, e, tally)
        }
        None => {
            tally.plan_miss = probe.cached.is_some() && probe.proj.is_some();
            price_miss(env, &probe, tally)
        }
    }
}

/// The cache entry for `plan` under projection `p`: the projection's
/// sets plus the plan's footprint.
fn derived_entry(
    env: &EvalEnv<'_>,
    i: usize,
    p: &Projection,
    cost: f64,
    usages: &Arc<[IndexUsage]>,
) -> CacheEntry {
    let footprint: Arc<[u128]> = pdt_opt::plan_footprint(usages, env.config).into();
    debug_assert!(
        sorted_subset(&footprint, &p.relevant),
        "plan for query {i} uses a structure outside its relevant set"
    );
    CacheEntry {
        cost,
        usages: usages.clone(),
        coarse: p.coarse,
        relevant: p.relevant.clone(),
        footprint,
        pinned: p.pinned.clone(),
    }
}

/// Answer a probe from the keyed-cache entry `e` (exact or re-priced).
fn serve_keyed(
    env: &EvalEnv<'_>,
    probe: &Probe<'_>,
    e: CacheEntry,
    tally: &mut EntryTally,
) -> (f64, Arc<[IndexUsage]>) {
    let i = probe.i;
    let (mut cost, mut usages) = (e.cost, e.usages);
    // Cross-validate derived serves: reference mode (and every debug
    // build) re-asks the optimizer. The invocation is validation
    // overhead, not a logical call — `calls` stays 0 so counters agree
    // across modes. Reference mode then *uses* the fresh answer, so an
    // unsound relevance derivation would surface as byte-level
    // divergence between the two modes.
    if tally.avoided && (!env.ctx.derived || cfg!(debug_assertions)) {
        let plan = what_if(env, probe);
        debug_assert_eq!(
            plan.cost.to_bits(),
            cost.to_bits(),
            "derived cost diverged from the optimizer for query {i}"
        );
        debug_assert_eq!(
            plan.index_usages.as_slice(),
            usages.as_ref(),
            "derived plan diverged from the optimizer for query {i}"
        );
        if !env.ctx.derived {
            cost = plan.cost;
            usages = plan.index_usages.into();
        }
    }
    // A plan-reuse serve memoizes itself at the probe's key, turning
    // the next identical probe into a keyed hit.
    if let (true, Some((cache, sig)), Some(p)) = (tally.plan_hit, probe.cached, &probe.proj) {
        cache.insert(i, sig, derived_entry(env, i, p, cost, &usages));
    }
    (cost, usages)
}

/// Answer a logical miss: the shared store, then a real call.
fn price_miss(
    env: &EvalEnv<'_>,
    probe: &Probe<'_>,
    tally: &mut EntryTally,
) -> (f64, Arc<[IndexUsage]>) {
    let (i, ctx) = (probe.i, &env.ctx);
    // Derived mode consults the daemon-wide shared store before paying
    // a real plan search, addressed by session-portable content
    // signatures: another tenant's answer is bitwise-identical by key
    // purity. A serve is invisible to every counter (this stays a plain
    // logical miss); debug builds re-invoke and check, and the
    // reference engine always re-invokes.
    let stored = probe.cached.filter(|_| ctx.derived).and_then(|(_, sig)| {
        ctx.shared
            .as_ref()?
            .probe(i, sig, probe.proj.as_ref(), env.config)
    });
    let (plan_cost, usages): (f64, Arc<[IndexUsage]>) = match stored {
        Some(e) => {
            #[cfg(debug_assertions)]
            {
                let fresh = what_if(env, probe);
                debug_assert_eq!(
                    fresh.cost.to_bits(),
                    e.cost.to_bits(),
                    "shared answer diverged for query {i}"
                );
                debug_assert_eq!(
                    fresh.index_usages.as_slice(),
                    e.usages.as_ref(),
                    "shared plan diverged for query {i}"
                );
            }
            (e.cost, e.usages)
        }
        None => {
            let plan = what_if(env, probe);
            (plan.cost, plan.index_usages.into())
        }
    };
    tally.calls = 1;
    if let Some((cache, sig)) = probe.cached {
        tally.miss = true;
        let true_entry = match probe.proj.as_ref() {
            Some(p) => derived_entry(env, i, p, plan_cost, &usages),
            None => CacheEntry::plain(plan_cost, usages.clone(), sig),
        };
        // Publish the real answer under its portable key so other
        // tenants (and this daemon's next session) can serve it.
        if let Some(s) = ctx.shared.as_ref().filter(|_| ctx.derived) {
            s.record(i, sig, &true_entry);
        }
        // Injected poisoning: write a NaN cost so a later lookup must
        // repair it (the shared store keeps the true answer — poison is
        // a cache fault, not an optimizer fault).
        let ce = if ctx.faults.is_some_and(|f| f.poison_roll(i)) {
            CacheEntry {
                cost: f64::NAN,
                ..true_entry
            }
        } else {
            true_entry
        };
        cache.insert(i, sig, ce);
    }
    (plan_cost, usages)
}

/// Evaluate every entry in order, aborting the moment the running
/// total exceeds `shortcut_limit` (the paper's §3.5 shortcut). `None`
/// on a shortcut abort (after emitting `eval.abort`) or a cooperative
/// stop (silent).
fn run_entries(env: &EvalEnv<'_>, shortcut_limit: Option<f64>) -> Option<Vec<EntryEval>> {
    let ctx = &env.ctx;
    let entries = &env.workload.entries;
    let mut evals = Vec::with_capacity(entries.len());
    let mut running = 0.0;
    for (i, entry) in entries.iter().enumerate() {
        // Cooperative stop between entries: silent (no eval.abort
        // event) — the stopped session's trace ends at the last
        // committed evaluation.
        if ctx.stop.is_some_and(|s| s.is_stopped()) {
            return None;
        }
        let e = evaluate_entry(env, i);
        running += entry.weight * e.q.total();
        if shortcut_limit.is_some_and(|l| running > l) {
            pdt_trace::emit(ctx.tracer, "eval.abort", Vec::new);
            return None;
        }
        evals.push(e);
    }
    Some(evals)
}

/// The common core of full and incremental evaluation. `shells` is
/// `config`'s shell table when the caller carries one (the search
/// derives each node's from its parent's); `None` builds it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_entries(
    db: &Database,
    opt: &Optimizer<'_>,
    config: &Configuration,
    workload: &Workload,
    prev: Option<(&EvalResult, Change<'_>)>,
    shortcut_limit: Option<f64>,
    ctx: EvalCtx<'_>,
    shells: Option<&ShellTable>,
) -> Option<EvalResult> {
    let built;
    let shells = match shells {
        Some(table) => table,
        None => {
            built = ShellTable::build(&opt.opts.cost, &PhysicalSchema::new(db, config), workload);
            &built
        }
    };
    debug_assert!(
        ctx.prepared
            .is_none_or(|p| p.slots.len() == workload.entries.len()),
        "prepared statements of another workload"
    );
    let env = EvalEnv {
        opt,
        config,
        workload,
        prev,
        projector: ctx.relevance.map(|rt| FlatProjector::new(rt, config)),
        shells,
        ctx,
    };
    let evals = run_entries(&env, shortcut_limit)?;

    // Assemble in entry order; `run_entries` summed the same terms in
    // the same order, so the shortcut has already been decided.
    let entries = &workload.entries;
    let mut per_query = Vec::with_capacity(evals.len());
    let mut total = 0.0;
    let mut calls = 0;
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut tally = DerivedTally::default();
    let mut poison_repairs: Vec<usize> = Vec::new();
    for (i, EntryEval { q, tally: t }) in evals.into_iter().enumerate() {
        total += entries[i].weight * q.total();
        calls += t.calls;
        hits += u64::from(t.hit);
        misses += u64::from(t.miss);
        tally.avoided += u64::from(t.avoided);
        tally.plan_hits += u64::from(t.plan_hit);
        tally.plan_misses += u64::from(t.plan_miss);
        tally.repriced += u64::from(t.repriced);
        if t.repaired {
            poison_repairs.push(i);
        }
        per_query.push(q);
    }
    // Counters commit on success only: an aborted evaluation's answers
    // stay cached but count nothing (see the `cache` module docs).
    if let Some(cache) = ctx.cache {
        cache.record_traced(hits, misses, ctx.tracer);
        if ctx.relevance.is_some() {
            cache.record_derived(tally);
            pdt_trace::incr(ctx.tracer, "optimizer.calls_avoided", tally.avoided);
            pdt_trace::incr(ctx.tracer, "plan_cache.hits", tally.plan_hits);
            pdt_trace::incr(ctx.tracer, "plan_cache.misses", tally.plan_misses);
            pdt_trace::incr(ctx.tracer, "plan_cache.repriced", tally.repriced);
        }
    }
    // Repairs are reported in entry order at the commit point.
    for &i in &poison_repairs {
        pdt_trace::emit(ctx.tracer, "cache.repair", || vec![("query", i.into())]);
    }
    if !poison_repairs.is_empty() {
        pdt_trace::incr(ctx.tracer, "cache.repairs", poison_repairs.len() as u64);
    }
    pdt_trace::incr(ctx.tracer, "optimizer.calls", calls as u64);
    pdt_trace::emit(ctx.tracer, "eval.commit", || {
        vec![
            ("entries", per_query.len().into()),
            ("calls", calls.into()),
            ("hits", hits.into()),
            ("misses", misses.into()),
            ("avoided", tally.avoided.into()),
            ("plan_hits", tally.plan_hits.into()),
            ("plan_misses", tally.plan_misses.into()),
            ("cost", total.into()),
        ]
    });
    Some(EvalResult {
        per_query,
        total_cost: total,
        optimizer_calls: calls,
        poison_repairs,
    })
}

/// Structures of `config` not used by any plan in `eval` (§3.5
/// "shrinking configurations").
pub fn unused_structures(
    config: &Configuration,
    base: &Configuration,
    eval: &EvalResult,
) -> (Vec<Index>, Vec<TableId>) {
    let mut used_indexes: BTreeSet<&Index> = BTreeSet::new();
    let mut used_views: BTreeSet<TableId> = BTreeSet::new();
    for q in &eval.per_query {
        for u in q.usages.iter() {
            used_indexes.insert(&u.index);
            if u.index.table.is_view() {
                used_views.insert(u.index.table);
            }
        }
    }
    let unused_ix: Vec<Index> = config
        .indexes()
        .filter(|i| !used_indexes.contains(*i) && !base.contains_index(i) && !i.table.is_view())
        .cloned()
        .collect();
    let unused_views: Vec<TableId> = config
        .views()
        .map(|v| v.id)
        .filter(|id| !used_views.contains(id))
        .collect();
    (unused_ix, unused_views)
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
            500_000.0,
            vec![
                mk("id", 500_000.0),
                mk("a", 5_000.0),
                mk("b", 100.0),
                mk("c", 1_000.0),
            ],
            vec![0],
        );
        b.build()
    }

    fn workload(db: &Database, sql: &str) -> Workload {
        Workload::bind(db, &parse_workload(sql).unwrap()).unwrap()
    }

    #[test]
    fn full_eval_counts_calls_and_costs() {
        let db = test_db();
        let w = workload(
            &db,
            "SELECT r.c FROM r WHERE r.a = 5; SELECT r.b FROM r WHERE r.b < 10",
        );
        let opt = Optimizer::new(&db);
        let config = Configuration::base(&db);
        let e = evaluate_full(&db, &opt, &config, &w);
        assert_eq!(e.per_query.len(), 2);
        assert_eq!(e.optimizer_calls, 2);
        assert!(e.total_cost > 0.0);
    }

    #[test]
    fn incremental_skips_unaffected_queries() {
        let db = test_db();
        let w = workload(
            &db,
            "SELECT r.c FROM r WHERE r.a = 5; SELECT r.b FROM r WHERE r.b < 10",
        );
        let opt = Optimizer::new(&db);
        let mut config = Configuration::base(&db);
        let t = db.table_by_name("r").unwrap();
        let ix_a = Index::new(t.id, [t.column_id(1)], [t.column_id(3)]);
        config.add_index(ix_a.clone());
        let e0 = evaluate_full(&db, &opt, &config, &w);

        let mut smaller = config.clone();
        smaller.remove_index(&ix_a);
        let ctx = EvalCtx::default();
        let e1 = evaluate_incremental_ctx(&db, &opt, &smaller, &w, &e0, &[ix_a], &[], None, ctx)
            .expect("no shortcut");
        // Only query 1 used ix_a, so exactly one re-optimization.
        assert_eq!(e1.optimizer_calls, 1);
        assert!(e1.total_cost >= e0.total_cost);
        // Query 2's cached cost is identical, and its usages are the
        // same allocation (pointer copy, not a deep clone).
        assert_eq!(e1.per_query[1].select_cost, e0.per_query[1].select_cost);
        assert!(Arc::ptr_eq(
            &e1.per_query[1].usages,
            &e0.per_query[1].usages
        ));
    }

    #[test]
    fn shortcut_aborts_expensive_configs() {
        let db = test_db();
        let w = workload(&db, "SELECT r.c FROM r WHERE r.a = 5");
        let opt = Optimizer::new(&db);
        let mut config = Configuration::base(&db);
        let t = db.table_by_name("r").unwrap();
        let ix = Index::new(t.id, [t.column_id(1)], [t.column_id(3)]);
        config.add_index(ix.clone());
        let e0 = evaluate_full(&db, &opt, &config, &w);
        let mut smaller = config.clone();
        smaller.remove_index(&ix);
        // A limit below the base cost must trigger the shortcut.
        let r = evaluate_incremental_ctx(
            &db,
            &opt,
            &smaller,
            &w,
            &e0,
            &[ix],
            &[],
            Some(e0.total_cost),
            EvalCtx::default(),
        );
        assert!(r.is_none(), "removal makes it worse than the limit");
    }

    #[test]
    fn shell_costs_scale_with_index_count() {
        let db = test_db();
        let w = workload(&db, "UPDATE r SET a = 1 WHERE b < 10");
        let opt = Optimizer::new(&db);
        let base = Configuration::base(&db);
        let e_base = evaluate_full(&db, &opt, &base, &w);
        let mut more = base.clone();
        let t = db.table_by_name("r").unwrap();
        more.add_index(Index::new(t.id, [t.column_id(1)], []));
        let e_more = evaluate_full(&db, &opt, &more, &w);
        assert!(
            e_more.per_query[0].shell_cost > e_base.per_query[0].shell_cost,
            "extra index on written column must cost maintenance"
        );
        // An index on an untouched column costs nothing extra.
        let mut unrelated = base.clone();
        unrelated.add_index(Index::new(t.id, [t.column_id(3)], []));
        let e_unrel = evaluate_full(&db, &opt, &unrelated, &w);
        assert_eq!(
            e_unrel.per_query[0].shell_cost,
            e_base.per_query[0].shell_cost
        );
    }

    /// A baseline trial's table, derived from the accepted
    /// configuration's by pricing only what the trial adds, is the
    /// trial's table built from scratch, and its evaluation is the
    /// evaluation that builds one.
    #[test]
    fn a_table_with_added_indexes_is_built_from_scratch() {
        let db = test_db();
        let w = workload(
            &db,
            "UPDATE r SET a = 1 WHERE b < 10; SELECT r.c FROM r WHERE r.a = 5; \
             UPDATE r SET c = 2 WHERE a = 3",
        );
        let (opt, model) = (Optimizer::new(&db), CostModel::default());
        let t = db.table_by_name("r").unwrap();
        let mut config = Configuration::base(&db);
        config.add_index(Index::new(t.id, [t.column_id(3)], []));
        let shells = ShellTable::build(&model, &PhysicalSchema::new(&db, &config), &w);
        let eval = evaluate_full(&db, &opt, &config, &w);
        let added = [
            Index::new(t.id, [t.column_id(1)], [t.column_id(3)]),
            Index::new(t.id, [t.column_id(2)], []),
        ];
        let mut trial = config.clone();
        for index in &added {
            assert!(trial.add_index(index.clone()));
        }
        let schema = PhysicalSchema::new(&db, &trial);
        let derived = shells.with_added(&model, &schema, &w, &added);
        derived.assert_matches_scratch(&model, &schema, &w);
        let ctx = EvalCtx::default();
        let kept = evaluate_added_ctx(&db, &opt, &trial, &w, &eval, &[t.id], ctx, &derived);
        let fresh = evaluate_full(&db, &opt, &trial, &w);
        assert_eq!(kept.total_cost.to_bits(), fresh.total_cost.to_bits());
    }

    #[test]
    fn unused_structures_detected() {
        let db = test_db();
        let w = workload(&db, "SELECT r.c FROM r WHERE r.a = 5");
        let opt = Optimizer::new(&db);
        let base = Configuration::base(&db);
        let mut config = base.clone();
        let t = db.table_by_name("r").unwrap();
        let useful = Index::new(t.id, [t.column_id(1)], [t.column_id(3)]);
        let useless = Index::new(t.id, [t.column_id(2)], []);
        config.add_index(useful.clone());
        config.add_index(useless.clone());
        let e = evaluate_full(&db, &opt, &config, &w);
        let (unused_ix, unused_views) = unused_structures(&config, &base, &e);
        assert!(unused_ix.contains(&useless));
        assert!(!unused_ix.contains(&useful));
        assert!(unused_views.is_empty());
    }

    #[test]
    fn cache_is_transparent_and_counts() {
        let db = test_db();
        let w = workload(
            &db,
            "SELECT r.c FROM r WHERE r.a = 5; SELECT r.b FROM r WHERE r.b < 10",
        );
        let opt = Optimizer::new(&db);
        let config = Configuration::base(&db);
        let plain = evaluate_full(&db, &opt, &config, &w);

        let cache = CostCache::new();
        let ctx = EvalCtx {
            cache: Some(&cache),
            ..EvalCtx::default()
        };
        let first = evaluate_full_ctx(&db, &opt, &config, &w, ctx);
        assert_eq!(first.total_cost, plain.total_cost);
        assert_eq!(first.optimizer_calls, 2);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));

        // Same configuration again: pure hits, zero optimizer calls.
        let second = evaluate_full_ctx(&db, &opt, &config, &w, ctx);
        assert_eq!(second.total_cost, plain.total_cost);
        assert_eq!(second.optimizer_calls, 0);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }

    #[test]
    fn aborted_evaluations_keep_answers_but_count_nothing() {
        let db = test_db();
        let w = workload(&db, "SELECT r.c FROM r WHERE r.a = 5");
        let opt = Optimizer::new(&db);
        let mut config = Configuration::base(&db);
        let t = db.table_by_name("r").unwrap();
        let ix = Index::new(t.id, [t.column_id(1)], [t.column_id(3)]);
        config.add_index(ix.clone());
        let e0 = evaluate_full(&db, &opt, &config, &w);
        let mut smaller = config.clone();
        smaller.remove_index(&ix);
        let cache = CostCache::new();
        let ctx = EvalCtx {
            cache: Some(&cache),
            ..EvalCtx::default()
        };
        let r = evaluate_incremental_ctx(
            &db,
            &opt,
            &smaller,
            &w,
            &e0,
            std::slice::from_ref(&ix),
            &[],
            Some(e0.total_cost),
            ctx,
        );
        assert!(r.is_none());
        assert_eq!(cache.len(), 1, "the aborted eval's answer is kept");
        assert_eq!((cache.hits(), cache.misses()), (0, 0), "but not counted");
        // Re-running it un-shortcut is all hits: no optimizer call.
        let kept = evaluate_incremental_ctx(
            &db,
            &opt,
            &smaller,
            &w,
            &e0,
            std::slice::from_ref(&ix),
            &[],
            None,
            ctx,
        )
        .unwrap();
        assert_eq!(kept.optimizer_calls, 0);
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
        let fresh = evaluate_full(&db, &opt, &smaller, &w);
        assert_eq!(kept.total_cost.to_bits(), fresh.total_cost.to_bits());
    }

    #[test]
    fn poisoned_cache_entries_are_repaired() {
        let db = test_db();
        let w = workload(
            &db,
            "SELECT r.c FROM r WHERE r.a = 5; SELECT r.b FROM r WHERE r.b < 10",
        );
        let opt = Optimizer::new(&db);
        let config = Configuration::base(&db);
        let plain = evaluate_full(&db, &opt, &config, &w);

        let cache = CostCache::new();
        let ctx = EvalCtx {
            cache: Some(&cache),
            ..EvalCtx::default()
        };
        let first = evaluate_full_ctx(&db, &opt, &config, &w, ctx);
        assert!(first.poison_repairs.is_empty());

        // Corrupt one entry in place, as the injector would.
        let ((q, sig), mut entry) = cache.snapshot().into_iter().next().unwrap();
        entry.cost = f64::NAN;
        cache.insert(q, sig, entry);

        let second = evaluate_full_ctx(&db, &opt, &config, &w, ctx);
        assert_eq!(second.poison_repairs, vec![q]);
        assert_eq!(second.total_cost, plain.total_cost, "repair restores cost");
        assert_eq!(
            second.optimizer_calls, 1,
            "only the poisoned entry recomputes"
        );
        // The repaired entry is clean again: a third pass is all hits.
        let third = evaluate_full_ctx(&db, &opt, &config, &w, ctx);
        assert!(third.poison_repairs.is_empty());
        assert_eq!(third.optimizer_calls, 0);
    }

    #[test]
    fn derived_relevance_avoids_reoptimization() {
        let db = test_db();
        let w = workload(&db, "SELECT r.c FROM r WHERE r.a = 5");
        let opt = Optimizer::new(&db);
        let t = db.table_by_name("r").unwrap();
        let rt = crate::derived::RelevanceTable::build(&db, &w);
        let base = Configuration::base(&db);
        // Key [b]: not sargable for this query and covers nothing it
        // needs — irrelevant, though it lives on the query's table.
        let mut with_irrelevant = base.clone();
        with_irrelevant.add_index(Index::new(t.id, [t.column_id(2)], []));

        for derived in [true, false] {
            let cache = CostCache::new();
            let ctx = EvalCtx {
                cache: Some(&cache),
                relevance: Some(&rt),
                derived,
                ..EvalCtx::default()
            };
            let e0 = evaluate_full_ctx(&db, &opt, &base, &w, ctx);
            assert_eq!(e0.optimizer_calls, 1);
            // Adding the irrelevant index leaves the relevant subset —
            // and the cache key — unchanged: a hit the coarse-keyed
            // engine would have missed, in both modes.
            let e1 = evaluate_full_ctx(&db, &opt, &with_irrelevant, &w, ctx);
            assert_eq!(e1.optimizer_calls, 0, "derived={derived}");
            assert_eq!(e1.total_cost.to_bits(), e0.total_cost.to_bits());
            assert_eq!((cache.hits(), cache.misses()), (1, 1));
            assert_eq!(cache.avoided(), 1);
        }
    }

    #[test]
    fn plan_reuse_reprices_surviving_plans() {
        let db = test_db();
        let w = workload(&db, "SELECT r.c FROM r WHERE r.a = 5");
        let opt = Optimizer::new(&db);
        let t = db.table_by_name("r").unwrap();
        let rt = crate::derived::RelevanceTable::build(&db, &w);
        // Both indexes are relevant (seekable on `a`), but the covering
        // one wins the plan; the other is dead weight the search might
        // relax away.
        let covering = Index::new(t.id, [t.column_id(1)], [t.column_id(3)]);
        let extra = Index::new(t.id, [t.column_id(1)], [t.column_id(2)]);
        let mut small = Configuration::base(&db);
        small.add_index(covering);
        let mut big = small.clone();
        big.add_index(extra);

        for derived in [true, false] {
            let cache = CostCache::new();
            let ctx = EvalCtx {
                cache: Some(&cache),
                relevance: Some(&rt),
                derived,
                ..EvalCtx::default()
            };
            let e_big = evaluate_full_ctx(&db, &opt, &big, &w, ctx);
            assert_eq!(e_big.optimizer_calls, 1);
            // `small` shrinks the relevant subset without touching the
            // cached plan's footprint: served by plan reuse, no call.
            let e_small = evaluate_full_ctx(&db, &opt, &small, &w, ctx);
            assert_eq!(e_small.optimizer_calls, 0, "derived={derived}");
            assert_eq!(cache.plan_hits(), 1);
            assert_eq!(cache.repriced(), 1);
            assert_eq!(cache.avoided(), 1);
            // The reused answer is bit-identical to a fresh one.
            let fresh = evaluate_full(&db, &opt, &small, &w);
            assert_eq!(e_small.total_cost.to_bits(), fresh.total_cost.to_bits());
            // The serve memoized itself at the probe's key: probing
            // again is a keyed (non-derived) hit, not another reuse.
            let e_again = evaluate_full_ctx(&db, &opt, &small, &w, ctx);
            assert_eq!(e_again.optimizer_calls, 0);
            assert_eq!(cache.plan_hits(), 1);
            assert_eq!(cache.avoided(), 1);
            assert_eq!(e_again.total_cost.to_bits(), e_small.total_cost.to_bits());
        }
    }

    #[test]
    fn stopped_evaluations_return_none_and_commit_nothing() {
        use crate::stop::{StopCheck, StopReason, StopToken};
        let db = test_db();
        let w = workload(
            &db,
            "SELECT r.c FROM r WHERE r.a = 5; SELECT r.b FROM r WHERE r.b < 10",
        );
        let opt = Optimizer::new(&db);
        let config = Configuration::base(&db);
        let e0 = evaluate_full(&db, &opt, &config, &w);
        let token = StopToken::new();
        token.trip(StopReason::Interrupted);
        let check = StopCheck::new(&token, None);
        let cache = CostCache::new();
        let ctx = EvalCtx {
            cache: Some(&cache),
            stop: Some(&check),
            ..EvalCtx::default()
        };
        let r = evaluate_entries(
            &db,
            &opt,
            &config,
            &w,
            Some((
                &e0,
                Change::Removed {
                    indexes: &[],
                    views: &[],
                },
            )),
            None,
            ctx,
            None,
        );
        assert!(r.is_none(), "tripped token must abort");
        assert!(cache.is_empty());
        // Full evaluation ignores the stop token by design.
        let ctx = EvalCtx {
            stop: Some(&check),
            ..EvalCtx::default()
        };
        let full = evaluate_full_ctx(&db, &opt, &config, &w, ctx);
        assert_eq!(full.total_cost, e0.total_cost);
    }
}
