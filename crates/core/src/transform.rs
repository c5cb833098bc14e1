//! The relaxation transformations of §3.1.
//!
//! Each transformation replaces one or two structures with smaller,
//! generally less efficient ones. `candidates` enumerates every
//! applicable transformation of a configuration; `describe` produces
//! the bookkeeping the cost-bound machinery needs (what is removed and
//! added and, for view merges, the column remapping) and `apply`
//! additionally builds the relaxed configuration.

use pdt_catalog::{ColumnId, Database, TableId};
use pdt_opt::Optimizer;
use pdt_physical::size::SizeModel;
use pdt_physical::view::merge_views;
use pdt_physical::{Configuration, Index, MaterializedView, PhysicalSchema};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// One §3.1 transformation.
#[derive(Debug, Clone, PartialEq)]
pub enum Transformation {
    /// Ordered index merge: replace `{i1, i2}` with `merge(i1, i2)`.
    MergeIndexes { i1: Index, i2: Index },
    /// Index split: replace `{i1, i2}` with the common and residual
    /// indexes.
    SplitIndexes { i1: Index, i2: Index },
    /// Replace an index with a key prefix of it.
    PrefixIndex { index: Index, len: usize },
    /// Replace a secondary index with a clustered index on its key.
    PromoteToClustered { index: Index },
    /// Drop an index.
    RemoveIndex { index: Index },
    /// Merge two views (and promote their indexes onto the result).
    MergeViews { v1: TableId, v2: TableId },
    /// Drop a view and all indexes over it.
    RemoveView { view: TableId },
}

impl fmt::Display for Transformation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transformation::MergeIndexes { i1, i2 } => write!(f, "merge({i1}, {i2})"),
            Transformation::SplitIndexes { i1, i2 } => write!(f, "split({i1}, {i2})"),
            Transformation::PrefixIndex { index, len } => write!(f, "prefix({index}, {len})"),
            Transformation::PromoteToClustered { index } => write!(f, "promote({index})"),
            Transformation::RemoveIndex { index } => write!(f, "remove({index})"),
            Transformation::MergeViews { v1, v2 } => write!(f, "merge-views({v1}, {v2})"),
            Transformation::RemoveView { view } => write!(f, "remove-view({view})"),
        }
    }
}

/// What a transformation changes, described against the configuration
/// it relaxes — everything the §3.3 estimates need, so a candidate is
/// priced from `(parent configuration, delta)` without building the
/// relaxed configuration.
#[derive(Debug, Clone)]
pub struct TransformDelta {
    /// Indexes present before but not after (including cascades from
    /// view removal/merging).
    pub removed_indexes: Vec<Index>,
    /// Views removed (by id).
    pub removed_views: Vec<TableId>,
    /// Indexes added by the transformation.
    pub added_indexes: Vec<Index>,
    /// The merged view (view merges only).
    pub added_view: Option<MaterializedView>,
    /// Old-view-column -> merged-view-column map (view merges only).
    pub col_map: HashMap<ColumnId, ColumnId>,
    /// True if replacing a merged-away grouped view requires a
    /// compensating group-by (§3.3.2 view transformations).
    pub regroup_compensation: bool,
    /// Space freed in bytes (charged model): Σ removed − Σ added.
    pub delta_bytes: f64,
}

/// The result of applying a transformation: the relaxed configuration
/// plus the [`TransformDelta`] that produced it, whose fields read
/// through (`applied.removed_indexes`).
#[derive(Debug, Clone)]
pub struct AppliedTransform {
    pub config: Configuration,
    pub delta: TransformDelta,
}

impl std::ops::Deref for AppliedTransform {
    type Target = TransformDelta;

    fn deref(&self) -> &TransformDelta {
        &self.delta
    }
}

impl TransformDelta {
    /// The relaxed configuration's indexes on `table`, in configuration
    /// order.
    pub(crate) fn child_indexes_on<'a>(
        &'a self,
        parent: &'a Configuration,
        table: TableId,
    ) -> Vec<&'a Index> {
        self.merge_added(
            parent.indexes_on(table),
            self.added_indexes.iter().filter(|a| a.table == table),
        )
    }

    /// All of the relaxed configuration's indexes, in configuration
    /// order.
    pub(crate) fn child_indexes<'a>(&'a self, parent: &'a Configuration) -> Vec<&'a Index> {
        self.merge_added(parent.indexes(), self.added_indexes.iter())
    }

    fn merge_added<'a>(
        &'a self,
        kept: impl Iterator<Item = &'a Index>,
        added: impl Iterator<Item = &'a Index>,
    ) -> Vec<&'a Index> {
        let mut out: Vec<&Index> = kept.filter(|i| !self.removed_indexes.contains(i)).collect();
        let sorted_len = out.len();
        out.extend(added);
        if out.len() > sorted_len {
            out.sort();
        }
        out
    }

    /// The step that drops `indexes` and changes nothing else: the §3.5
    /// shrink of a configuration's unused indexes. No bound prices a
    /// shrink, so its `delta_bytes` is left at zero.
    pub fn removing(indexes: Vec<Index>) -> TransformDelta {
        TransformDelta {
            delta_bytes: 0.0,
            removed_indexes: indexes,
            removed_views: Vec::new(),
            added_indexes: Vec::new(),
            added_view: None,
            col_map: HashMap::new(),
            regroup_compensation: false,
        }
    }

    /// This step followed by `later`, a step from the configuration it
    /// relaxes into that only removes indexes (a §3.5 shrink), as one
    /// net step: a later removal of an index this step added cancels
    /// the addition, and any other counts as removed. The net step keeps
    /// this step's `delta_bytes`: only the candidate and shell rules
    /// read a net step, and they read its structure lists.
    pub(crate) fn then(&self, later: &TransformDelta) -> TransformDelta {
        debug_assert!(
            later.added_indexes.is_empty()
                && later.removed_views.is_empty()
                && later.added_view.is_none(),
            "only index removals fold into a step"
        );
        let mut net = self.clone();
        for i in &later.removed_indexes {
            match net.added_indexes.iter().position(|a| a == i) {
                Some(at) => {
                    net.added_indexes.remove(at);
                }
                None => net.removed_indexes.push(i.clone()),
            }
        }
        net
    }

    /// Build the relaxed configuration this delta describes.
    pub fn materialize(self, parent: &Configuration) -> AppliedTransform {
        let mut config = parent.clone();
        for i in &self.removed_indexes {
            config.remove_index(i);
        }
        for v in &self.removed_views {
            config.remove_view(*v);
        }
        if let Some(v) = &self.added_view {
            config.add_view(v.clone());
        }
        for i in &self.added_indexes {
            let added = config.add_index(i.clone());
            debug_assert!(added, "described addition {i} was rejected");
        }
        AppliedTransform {
            config,
            delta: self,
        }
    }
}

/// Enumerate every §3.1 transformation applicable to `config`.
/// Structures in `base` (constraint-enforcing indexes) are never
/// touched.
pub fn candidates(config: &Configuration, base: &Configuration) -> Vec<Transformation> {
    let mut out = Vec::new();
    let tunable: Vec<&Index> = config
        .indexes()
        .filter(|i| !base.contains_index(i))
        .collect();

    // Group by table for pairwise transformations. BTreeMap so the
    // candidate list has one deterministic order: consumers sample and
    // tie-break by position.
    let mut by_table: BTreeMap<TableId, Vec<&Index>> = BTreeMap::new();
    for i in &tunable {
        by_table.entry(i.table).or_default().push(i);
    }

    for indexes in by_table.values() {
        for (a_pos, a) in indexes.iter().enumerate() {
            for (b_pos, b) in indexes.iter().enumerate() {
                if a_pos == b_pos {
                    continue;
                }
                if !a.clustered && !b.clustered {
                    // Ordered merging: both directions are distinct.
                    // Pairs without any common column are skipped: the
                    // merge would concatenate unrelated indexes, which
                    // frees almost no space at a large cost increase
                    // and is never chosen by the penalty heuristic.
                    let a_cols = a.all_columns();
                    if b.all_columns().iter().any(|c| a_cols.contains(c)) {
                        out.push(Transformation::MergeIndexes {
                            i1: (*a).clone(),
                            i2: (*b).clone(),
                        });
                    }
                    // Splitting is symmetric: enumerate once.
                    if a_pos < b_pos && a.split(b).is_some() {
                        out.push(Transformation::SplitIndexes {
                            i1: (*a).clone(),
                            i2: (*b).clone(),
                        });
                    }
                }
            }
        }
        for i in indexes {
            if !i.clustered {
                for len in 1..=i.key.len() {
                    if i.prefix(len).is_some() {
                        out.push(Transformation::PrefixIndex {
                            index: (*i).clone(),
                            len,
                        });
                    }
                }
                if config.clustered_index_on(i.table).is_none() {
                    out.push(Transformation::PromoteToClustered {
                        index: (*i).clone(),
                    });
                }
                out.push(Transformation::RemoveIndex {
                    index: (*i).clone(),
                });
            }
        }
    }

    // View transformations.
    let views: Vec<&MaterializedView> = config.views().collect();
    for (i, v1) in views.iter().enumerate() {
        for v2 in views.iter().skip(i + 1) {
            if v1.def.tables == v2.def.tables {
                out.push(Transformation::MergeViews {
                    v1: v1.id,
                    v2: v2.id,
                });
            }
        }
        out.push(Transformation::RemoveView { view: v1.id });
    }
    out
}

/// The removal subset of [`candidates`], enumerated directly in
/// `O(structures)` instead of generating all `O(n²)` pairwise
/// transformations and filtering. The pruning pre-pass (§3.5) only
/// scores removals, so it calls this once per pass instead of paying
/// the full enumeration; the emission order is element-for-element
/// identical to the filtered full list —
/// removals appear per table in `BTreeMap` order after that table's
/// pairwise/unary candidates (which the filter drops), then views in
/// declaration order — asserted against the filtered enumeration in
/// debug builds.
pub fn removal_candidates(config: &Configuration, base: &Configuration) -> Vec<Transformation> {
    let mut by_table: BTreeMap<TableId, Vec<&Index>> = BTreeMap::new();
    for i in config.indexes().filter(|i| !base.contains_index(i)) {
        by_table.entry(i.table).or_default().push(i);
    }
    let mut out = Vec::new();
    for indexes in by_table.values() {
        for i in indexes {
            if !i.clustered {
                out.push(Transformation::RemoveIndex {
                    index: (*i).clone(),
                });
            }
        }
    }
    for v in config.views() {
        out.push(Transformation::RemoveView { view: v.id });
    }
    #[cfg(debug_assertions)]
    {
        let filtered: Vec<Transformation> = candidates(config, base)
            .into_iter()
            .filter(|t| {
                matches!(
                    t,
                    Transformation::RemoveIndex { .. } | Transformation::RemoveView { .. }
                )
            })
            .collect();
        debug_assert_eq!(
            out, filtered,
            "direct removal enumeration diverged from the filtered full enumeration"
        );
    }
    out
}

/// The inheritance half of the candidate rule: a candidate of the parent
/// configuration is still a candidate of the `child` that `delta`
/// relaxes it into iff it names no removed structure and, for a
/// promotion, the child still has no clustered index on the table. (The
/// other forms depend only on the structures they name.)
pub fn inherits(t: &Transformation, delta: &TransformDelta, child: &Configuration) -> bool {
    let gone = |i: &Index| delta.removed_indexes.contains(i);
    let view_gone = |v: &TableId| delta.removed_views.contains(v);
    match t {
        Transformation::MergeIndexes { i1, i2 } | Transformation::SplitIndexes { i1, i2 } => {
            !gone(i1) && !gone(i2)
        }
        Transformation::PrefixIndex { index, .. } | Transformation::RemoveIndex { index } => {
            !gone(index)
        }
        Transformation::PromoteToClustered { index } => {
            !gone(index) && child.clustered_index_on(index.table).is_none()
        }
        Transformation::MergeViews { v1, v2 } => !view_gone(v1) && !view_gone(v2),
        Transformation::RemoveView { view } => !view_gone(view),
    }
}

/// Derive the candidate list of `config` from its parent's instead of
/// re-running [`candidates`] from scratch; `delta` is the net step from
/// the parent.
///
/// The candidate rule (see DESIGN.md): every parent candidate the child
/// [`inherits`], plus the *fresh* candidates — exactly those involving
/// an added structure, plus promotions re-enabled when a clustered
/// index was removed without replacement. The combined list is sorted
/// by the canonical enumeration key, so the result is element for
/// element `candidates(config, base)`.
///
/// `parent` is the parent's full candidate list paired with interned
/// transformation signatures (in parent enumeration order); the result
/// keeps inherited signatures and interns fresh ones.
pub fn candidates_delta(
    config: &Configuration,
    base: &Configuration,
    parent: &[(Transformation, u64)],
    delta: &TransformDelta,
    interner: &crate::incremental::Interner,
) -> Vec<(Transformation, u64)> {
    use std::collections::HashSet;
    let added = |i: &Index| delta.added_indexes.contains(i);
    let added_view = |v: TableId| delta.added_view.as_ref().is_some_and(|a| a.id == v);

    // 1. Inherit every parent candidate untouched by the delta.
    let mut out: Vec<(Transformation, u64)> = Vec::with_capacity(parent.len());
    out.extend(
        parent
            .iter()
            .filter(|(t, _)| inherits(t, delta, config))
            .cloned(),
    );

    // 2. Generate fresh candidates: only those involving an added
    // structure, plus promotions unlocked by a clustered removal.
    // The per-table grouping mirrors `candidates` exactly so positions
    // (and hence the canonical sort below) match its emission order.
    let tunable: Vec<&Index> = config
        .indexes()
        .filter(|i| !base.contains_index(i))
        .collect();
    let mut by_table: BTreeMap<TableId, Vec<&Index>> = BTreeMap::new();
    for i in &tunable {
        by_table.entry(i.table).or_default().push(i);
    }

    let mut fresh: Vec<Transformation> = Vec::new();
    for (table, indexes) in &by_table {
        let any_added = indexes.iter().any(|i| added(i));
        // A clustered index vanished with no replacement: promotions on
        // this table were invalid at the parent and are now legal.
        let lost_clustered = config.clustered_index_on(*table).is_none()
            && delta
                .removed_indexes
                .iter()
                .any(|r| r.clustered && r.table == *table);
        if !any_added && !lost_clustered {
            continue;
        }
        if any_added {
            for (a_pos, a) in indexes.iter().enumerate() {
                for (b_pos, b) in indexes.iter().enumerate() {
                    if a_pos == b_pos || !(added(a) || added(b)) {
                        continue;
                    }
                    if !a.clustered && !b.clustered {
                        let a_cols = a.all_columns();
                        if b.all_columns().iter().any(|c| a_cols.contains(c)) {
                            fresh.push(Transformation::MergeIndexes {
                                i1: (*a).clone(),
                                i2: (*b).clone(),
                            });
                        }
                        if a_pos < b_pos && a.split(b).is_some() {
                            fresh.push(Transformation::SplitIndexes {
                                i1: (*a).clone(),
                                i2: (*b).clone(),
                            });
                        }
                    }
                }
            }
        }
        for i in indexes {
            if i.clustered {
                continue;
            }
            if added(i) {
                for len in 1..=i.key.len() {
                    if i.prefix(len).is_some() {
                        fresh.push(Transformation::PrefixIndex {
                            index: (*i).clone(),
                            len,
                        });
                    }
                }
                if config.clustered_index_on(i.table).is_none() {
                    fresh.push(Transformation::PromoteToClustered {
                        index: (*i).clone(),
                    });
                }
                fresh.push(Transformation::RemoveIndex {
                    index: (*i).clone(),
                });
            } else if lost_clustered {
                fresh.push(Transformation::PromoteToClustered {
                    index: (*i).clone(),
                });
            }
        }
    }

    // View candidates involving an added view (each unordered pair
    // visited once, mirroring the i < j loop in `candidates`).
    let views: Vec<&MaterializedView> = config.views().collect();
    for (i, v1) in views.iter().enumerate() {
        let v1_added = added_view(v1.id);
        for v2 in views.iter().skip(i + 1) {
            if (v1_added || added_view(v2.id)) && v1.def.tables == v2.def.tables {
                fresh.push(Transformation::MergeViews {
                    v1: v1.id,
                    v2: v2.id,
                });
            }
        }
        if v1_added {
            fresh.push(Transformation::RemoveView { view: v1.id });
        }
    }

    // 3. Combine (deduplicating by signature — inherited and fresh are
    // disjoint by construction, this is insurance) and restore the
    // canonical enumeration order.
    let mut seen: HashSet<u64> = out.iter().map(|(_, s)| *s).collect();
    for t in fresh {
        let sig = interner.transform_sig(&t);
        if seen.insert(sig) {
            out.push((t, sig));
        }
    }

    // Canonical key reproducing `candidates`' emission order:
    // (section, table rank, pairs-before-unary phase, positions, kind).
    let mut table_rank: HashMap<TableId, usize> = HashMap::new();
    let mut index_pos: HashMap<&Index, usize> = HashMap::new();
    for (r, (tid, list)) in by_table.iter().enumerate() {
        table_rank.insert(*tid, r);
        for (p, i) in list.iter().enumerate() {
            index_pos.insert(*i, p);
        }
    }
    let view_pos: HashMap<TableId, usize> =
        views.iter().enumerate().map(|(p, v)| (v.id, p)).collect();
    let ipos = |i: &Index| -> usize {
        *index_pos
            .get(i)
            .expect("candidate references an index missing from the child configuration")
    };
    let trank = |i: &Index| -> usize {
        *table_rank
            .get(&i.table)
            .expect("candidate references a table with no tunable indexes")
    };
    let vpos = |v: &TableId| -> usize {
        *view_pos
            .get(v)
            .expect("candidate references a view missing from the child configuration")
    };
    out.sort_by_key(|(t, _)| match t {
        Transformation::MergeIndexes { i1, i2 } => (0u8, trank(i1), 0u8, ipos(i1), ipos(i2), 0u8),
        Transformation::SplitIndexes { i1, i2 } => (0, trank(i1), 0, ipos(i1), ipos(i2), 1),
        Transformation::PrefixIndex { index, len } => (0, trank(index), 1, ipos(index), *len, 0),
        Transformation::PromoteToClustered { index } => {
            (0, trank(index), 1, ipos(index), usize::MAX - 1, 0)
        }
        Transformation::RemoveIndex { index } => (0, trank(index), 1, ipos(index), usize::MAX, 0),
        Transformation::MergeViews { v1, v2 } => (1, 0, 0, vpos(v1), vpos(v2), 0),
        Transformation::RemoveView { view } => (1, 0, 0, vpos(view), usize::MAX, 0),
    });
    out
}

/// Apply a transformation to `config`: [`describe`] the change, then
/// [`materialize`](TransformDelta::materialize) the relaxed
/// configuration. Returns `None` when the transformation no longer
/// applies (structures disappeared) or would be a no-op.
pub fn apply(
    t: &Transformation,
    config: &Configuration,
    db: &Database,
    opt: &Optimizer<'_>,
) -> Option<AppliedTransform> {
    describe(t, config, db, opt).map(|delta| delta.materialize(config))
}

/// Describe what applying `t` to `config` changes, without building the
/// relaxed configuration — `O(what the transformation touches)`, which
/// is all candidate pricing needs. Returns `None` when the
/// transformation no longer applies or would be a no-op.
pub fn describe(
    t: &Transformation,
    config: &Configuration,
    db: &Database,
    opt: &Optimizer<'_>,
) -> Option<TransformDelta> {
    let model = SizeModel::default();
    let mut removed_indexes: Vec<Index> = Vec::new();
    let mut removed_views = Vec::new();
    let mut added_indexes: Vec<Index> = Vec::new();
    let mut added_view = None;
    let mut col_map = HashMap::new();
    let mut regroup_compensation = false;

    // `Configuration::add_index` on the relaxed configuration built so
    // far: refuses duplicates and a second clustered index per table.
    let add = |index: Index, removed: &[Index], added: &mut Vec<Index>| {
        let in_child = |i: &Index| !removed.contains(i);
        let duplicate =
            (config.contains_index(&index) && in_child(&index)) || added.contains(&index);
        let second_clustered = index.clustered
            && config
                .indexes_on(index.table)
                .filter(|i| in_child(i))
                .chain(added.iter())
                .any(|i| i.clustered && i.table == index.table && *i != index);
        if !duplicate && !second_clustered {
            added.push(index);
        }
    };

    match t {
        Transformation::MergeIndexes { i1, i2 } => {
            if !config.contains_index(i1) || !config.contains_index(i2) {
                return None;
            }
            let merged = i1.merge(i2)?;
            removed_indexes.extend([i1.clone(), i2.clone()]);
            add(merged, &removed_indexes, &mut added_indexes);
        }
        Transformation::SplitIndexes { i1, i2 } => {
            if !config.contains_index(i1) || !config.contains_index(i2) {
                return None;
            }
            let split = i1.split(i2)?;
            removed_indexes.extend([i1.clone(), i2.clone()]);
            for idx in std::iter::once(split.common)
                .chain(split.residual1)
                .chain(split.residual2)
            {
                add(idx, &removed_indexes, &mut added_indexes);
            }
        }
        Transformation::PrefixIndex { index, len } => {
            if !config.contains_index(index) {
                return None;
            }
            let p = index.prefix(*len)?;
            removed_indexes.push(index.clone());
            add(p, &removed_indexes, &mut added_indexes);
        }
        Transformation::PromoteToClustered { index } => {
            if !config.contains_index(index) || config.clustered_index_on(index.table).is_some() {
                return None;
            }
            removed_indexes.push(index.clone());
            add(
                index.promoted_to_clustered(),
                &removed_indexes,
                &mut added_indexes,
            );
        }
        Transformation::RemoveIndex { index } => {
            if !config.contains_index(index) {
                return None;
            }
            removed_indexes.push(index.clone());
        }
        Transformation::MergeViews { v1, v2 } => {
            let view1 = config.view(*v1)?;
            let view2 = config.view(*v2)?;
            let merged_def = merge_views(&view1.def, &view2.def)?;
            // Re-merging into an existing definition is a no-op guard.
            if merged_def == view1.def || merged_def == view2.def {
                return None;
            }
            let rows = opt.estimate_view_rows(config, &merged_def);
            let merged_id = config.allocate_view_id();
            let merged = MaterializedView::create(merged_id, merged_def, rows, db);

            // Column maps from each source view into the merged view.
            for src in [view1, view2] {
                let eq = src.def.equivalences();
                for (ord, vc) in src.columns.iter().enumerate() {
                    let from = ColumnId::new(src.id, ord as u16);
                    let to = match &vc.source {
                        pdt_physical::ViewColumnSource::Base(b) => {
                            merged.ordinal_of_base(*b, Some(&eq))
                        }
                        pdt_physical::ViewColumnSource::Agg(i) => {
                            let call = &src.def.aggregates[*i];
                            merged
                                .ordinal_of_agg(call, &eq)
                                .or_else(|| {
                                    // AVG expanded into SUM+COUNT: map to the
                                    // SUM component.
                                    let sum = pdt_expr::scalar::AggCall {
                                        func: pdt_expr::scalar::AggFunc::Sum,
                                        arg: call.arg.clone(),
                                        distinct: call.distinct,
                                    };
                                    merged.ordinal_of_agg(&sum, &eq)
                                })
                                .or_else(|| {
                                    // Aggregates dropped (merged view is
                                    // ungrouped): map to the argument's base
                                    // column.
                                    call.arg
                                        .as_ref()
                                        .and_then(|a| a.columns().into_iter().next())
                                        .and_then(|b| merged.ordinal_of_base(b, Some(&eq)))
                                })
                        }
                    };
                    if let Some(to_ord) = to {
                        col_map.insert(from, ColumnId::new(merged_id, to_ord));
                    }
                }
                if src.def.is_grouped()
                    && (merged.def.group_by != src.def.group_by || !merged.def.is_grouped())
                {
                    regroup_compensation = true;
                }
            }

            // Promote indexes of both views onto the merged view
            // ("all indexes over V1 and V2 are promoted to VM").
            let mut promoted: Vec<Index> = Vec::new();
            let mut have_clustered = false;
            for src in [v1, v2] {
                for idx in config.indexes_on(*src) {
                    removed_indexes.push(idx.clone());
                    let key: Vec<ColumnId> = idx
                        .key
                        .iter()
                        .filter_map(|c| col_map.get(c).copied())
                        .collect();
                    let key = if key.is_empty() {
                        vec![ColumnId::new(merged_id, 0)]
                    } else {
                        key
                    };
                    let suffix: Vec<ColumnId> = idx
                        .suffix
                        .iter()
                        .filter_map(|c| col_map.get(c).copied())
                        .collect();
                    let mut mapped = Index::new(merged_id, key, suffix);
                    if idx.clustered && !have_clustered {
                        mapped = Index::clustered(merged_id, mapped.key.clone());
                        have_clustered = true;
                    }
                    promoted.push(mapped);
                }
            }
            removed_views.extend([*v1, *v2]);
            added_view = Some(merged);
            if !have_clustered {
                promoted.push(Index::clustered(merged_id, [ColumnId::new(merged_id, 0)]));
            }
            for idx in promoted {
                add(idx, &removed_indexes, &mut added_indexes);
            }
        }
        Transformation::RemoveView { view } => {
            config.view(*view)?;
            removed_indexes.extend(config.indexes_on(*view).cloned());
            removed_views.push(*view);
        }
    }

    // No-op guard: the relaxed configuration equals `config` exactly
    // when every removed index comes back (an addition is never already
    // present, so the two lists are then equal as sets).
    if removed_views.is_empty()
        && added_indexes.len() == removed_indexes.len()
        && added_indexes.iter().all(|a| removed_indexes.contains(a))
    {
        return None;
    }

    // Charged space delta: removed sized under the old schema, added
    // under the new one (view row counts can differ).
    let old_schema = PhysicalSchema::new(db, config);
    let new_schema = old_schema.relaxed(&removed_views, added_view.as_ref());
    let removed_bytes: f64 = removed_indexes
        .iter()
        .map(|i| model.index_bytes_charged(&old_schema, i))
        .sum();
    let added_bytes: f64 = added_indexes
        .iter()
        .map(|i| model.index_bytes_charged(&new_schema, i))
        .sum();

    Some(TransformDelta {
        removed_indexes,
        removed_views,
        added_indexes,
        added_view,
        col_map,
        regroup_compensation,
        delta_bytes: removed_bytes - added_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt_catalog::{ColumnStats, ColumnType};
    use pdt_expr::scalar::{AggCall, AggFunc, ScalarExpr};
    use pdt_physical::SpjgExpr;

    fn test_db() -> Database {
        let mut b = Database::builder("t");
        let mk = |name: &str| pdt_catalog::Column {
            name: name.into(),
            ty: ColumnType::Int,
            stats: ColumnStats::uniform(1000.0, 0.0, 1000.0, 4.0),
        };
        b.add_table(
            "r",
            100_000.0,
            vec![mk("id"), mk("a"), mk("b"), mk("c")],
            vec![0],
        );
        b.add_table("heap", 50_000.0, vec![mk("h1"), mk("h2")], vec![]);
        b.build()
    }

    fn rcol(db: &Database, i: u16) -> ColumnId {
        ColumnId::new(db.table_by_name("r").unwrap().id, i)
    }

    #[test]
    fn candidate_enumeration_covers_all_kinds() {
        let db = test_db();
        let base = Configuration::base(&db);
        let mut config = base.clone();
        let r = db.table_by_name("r").unwrap().id;
        config.add_index(Index::new(r, [rcol(&db, 1)], [rcol(&db, 3)]));
        config.add_index(Index::new(r, [rcol(&db, 1), rcol(&db, 2)], []));
        let cands = candidates(&config, &base);
        let kinds: Vec<&str> = cands
            .iter()
            .map(|t| match t {
                Transformation::MergeIndexes { .. } => "merge",
                Transformation::SplitIndexes { .. } => "split",
                Transformation::PrefixIndex { .. } => "prefix",
                Transformation::PromoteToClustered { .. } => "promote",
                Transformation::RemoveIndex { .. } => "remove",
                Transformation::MergeViews { .. } => "merge-views",
                Transformation::RemoveView { .. } => "remove-view",
            })
            .collect();
        assert!(kinds.contains(&"merge"));
        assert!(kinds.contains(&"split"));
        assert!(kinds.contains(&"prefix"));
        assert!(kinds.contains(&"remove"));
        // r has a clustered PK: no promotion offered there.
        assert!(!kinds.contains(&"promote"));
        // Base PK indexes are untouchable.
        for c in &cands {
            if let Transformation::RemoveIndex { index } = c {
                assert!(!base.contains_index(index));
            }
        }
    }

    #[test]
    fn promotion_offered_on_heaps_only() {
        let db = test_db();
        let base = Configuration::base(&db);
        let mut config = base.clone();
        let heap = db.table_by_name("heap").unwrap().id;
        config.add_index(Index::new(heap, [ColumnId::new(heap, 0)], []));
        let cands = candidates(&config, &base);
        assert!(cands
            .iter()
            .any(|t| matches!(t, Transformation::PromoteToClustered { .. })));
    }

    #[test]
    fn merge_apply_shrinks_space() {
        let db = test_db();
        let base = Configuration::base(&db);
        let mut config = base.clone();
        let r = db.table_by_name("r").unwrap().id;
        let i1 = Index::new(r, [rcol(&db, 1)], [rcol(&db, 3)]);
        let i2 = Index::new(r, [rcol(&db, 2)], [rcol(&db, 3)]);
        config.add_index(i1.clone());
        config.add_index(i2.clone());
        let opt = Optimizer::new(&db);
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
        assert!(applied.delta_bytes > 0.0, "merging frees space");
        assert_eq!(applied.removed_indexes.len(), 2);
        assert_eq!(applied.added_indexes.len(), 1);
        assert!(applied.config.size_bytes(&db) < config.size_bytes(&db));
    }

    #[test]
    fn stale_transformations_return_none() {
        let db = test_db();
        let base = Configuration::base(&db);
        let r = db.table_by_name("r").unwrap().id;
        let ghost = Index::new(r, [rcol(&db, 1)], []);
        let opt = Optimizer::new(&db);
        assert!(apply(
            &Transformation::RemoveIndex { index: ghost },
            &base,
            &db,
            &opt,
        )
        .is_none());
    }

    #[test]
    fn view_merge_promotes_indexes_and_maps_columns() {
        let db = test_db();
        let r = db.table_by_name("r").unwrap().id;
        let a = rcol(&db, 1);
        let b = rcol(&db, 2);
        let c = rcol(&db, 3);
        let opt = Optimizer::new(&db);
        let mut config = Configuration::base(&db);

        let sum_c = AggCall {
            func: AggFunc::Sum,
            arg: Some(ScalarExpr::column(c)),
            distinct: false,
        };
        let d1 = SpjgExpr {
            tables: [r].into(),
            group_by: [a].into(),
            aggregates: vec![sum_c.clone()],
            output_cols: [a].into(),
            ..Default::default()
        };
        let d2 = SpjgExpr {
            tables: [r].into(),
            group_by: [b].into(),
            aggregates: vec![sum_c],
            output_cols: [b].into(),
            ..Default::default()
        };
        let v1 = config.allocate_view_id();
        config.add_view(MaterializedView::create(
            v1,
            d1,
            opt.estimate_view_rows(&config, &SpjgExpr::default())
                .max(100.0),
            &db,
        ));
        config.add_index(Index::clustered(v1, [ColumnId::new(v1, 0)]));
        let v2 = config.allocate_view_id();
        config.add_view(MaterializedView::create(v2, d2, 100.0, &db));
        config.add_index(Index::clustered(v2, [ColumnId::new(v2, 0)]));

        let applied = apply(&Transformation::MergeViews { v1, v2 }, &config, &db, &opt).unwrap();
        assert_eq!(applied.removed_views.len(), 2);
        assert_eq!(applied.config.view_count(), 1);
        let merged = applied.config.views().next().unwrap();
        assert!(
            applied.config.clustered_index_on(merged.id).is_some(),
            "merged view keeps a clustered index"
        );
        assert!(applied.regroup_compensation, "groupings differ");
        // Every source view column must be mapped.
        assert!(applied.col_map.keys().any(|k| k.table == v1));
        assert!(applied.col_map.keys().any(|k| k.table == v2));
    }

    #[test]
    fn remove_view_cascades() {
        let db = test_db();
        let r = db.table_by_name("r").unwrap().id;
        let opt = Optimizer::new(&db);
        let mut config = Configuration::base(&db);
        let def = SpjgExpr {
            tables: [r].into(),
            output_cols: [rcol(&db, 1)].into(),
            ranges: vec![pdt_expr::SargablePred {
                column: rcol(&db, 2),
                sarg: pdt_expr::Sarg::Range(pdt_expr::Interval::at_most(10.0, true)),
            }],
            ..Default::default()
        };
        let vid = config.allocate_view_id();
        config.add_view(MaterializedView::create(vid, def, 1000.0, &db));
        config.add_index(Index::clustered(vid, [ColumnId::new(vid, 0)]));
        let applied = apply(
            &Transformation::RemoveView { view: vid },
            &config,
            &db,
            &opt,
        )
        .unwrap();
        assert_eq!(applied.removed_indexes.len(), 1);
        assert_eq!(applied.config.view_count(), 0);
        assert!(applied.delta_bytes > 0.0);
    }
}
