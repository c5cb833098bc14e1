//! Single-relation access-path selection — the optimizer's *one* entry
//! point for physical index strategies (paper §2, Fig. 2).
//!
//! Given an [`IndexRequest`] and the available indexes, this module
//! enumerates the paper's template plans — "(i) one or more index seeks
//! (or index scans) at the leaf nodes, (ii) combine[d] ... by binary
//! intersections, (iii) an optional rid lookup ..., (iv) an optional
//! filter for non-sargable predicates, and (v) an optional sort" — and
//! returns the cheapest.
//!
//! Selection costs first and builds second: `PreparedRequest::choose`
//! prices every candidate without constructing a plan operator or a
//! usage record and names the winner; `PreparedRequest::emit` runs the
//! winner's candidate code once more, to build it or only to record its
//! usages. The join search keeps choices and builds only the access
//! paths of its final plan.
//!
//! What a request's candidates read apart from the indexes — its
//! cardinalities, selectivities and column sets — is derived once, into
//! the request's `RequestFacts`; a prepared statement keeps those of its
//! base-table requests for every plan search it is run in (see
//! [`crate::prepared`]).

use crate::cost::{Cost, CostModel};
use crate::plan::{CostOnly, Emit, IndexUsage, Materialize, Op, PlanNode, UsageKind, UsagesOnly};
use crate::request::IndexRequest;
use pdt_catalog::ColumnId;
use pdt_expr::classify::sarg_selectivity_with;
use pdt_expr::{Sarg, SargablePred};
use pdt_physical::{Index, PhysicalSchema};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The chosen access path for one relation.
#[derive(Debug, Clone)]
pub struct AccessPath {
    pub node: PlanNode,
    pub cost: Cost,
    pub rows: f64,
    pub usages: Vec<IndexUsage>,
    /// True if the output satisfies the requested order without a sort.
    pub provides_order: bool,
}

/// The winner of access-path selection, priced but not built.
#[derive(Debug, Clone)]
pub struct AccessChoice {
    pub cost: Cost,
    pub rows: f64,
    /// True if the output satisfies the requested order without a sort.
    pub provides_order: bool,
    candidate: Candidate,
}

/// Which template plan won, naming its indexes by shared handle (so the
/// choice outlives later additions to the configuration).
#[derive(Debug, Clone)]
enum Candidate {
    /// Scan of the clustered index, or of the heap when there is none.
    BaseScan(Option<Arc<Index>>),
    /// Scan of a secondary index that covers every referenced column.
    CoveringScan(Arc<Index>),
    /// Seek on one index, with a rid lookup unless it covers the rest.
    Seek(Arc<Index>),
    /// Two seeks, a rid intersection, and a rid lookup.
    Intersect(Arc<Index>, Arc<Index>),
}

/// Selectivity of one sargable predicate against the physical schema
/// (resolves view-column statistics, unlike the catalog-only path).
pub fn sarg_selectivity(schema: &PhysicalSchema<'_>, pred: &SargablePred) -> f64 {
    if let Sarg::Param { selectivity } = pred.sarg {
        return selectivity;
    }
    match schema.column_stats(pred.column) {
        Some(stats) => sarg_selectivity_with(stats, &pred.sarg),
        None => pdt_expr::classify::DEFAULT_OTHER_SELECTIVITY,
    }
}

/// Pick the cheapest physical strategy for `req` without building it:
/// the cost, rows and order [`best_access_path`] returns, priced only.
pub fn best_access_choice(
    model: &CostModel,
    schema: &PhysicalSchema<'_>,
    req: &IndexRequest,
) -> AccessChoice {
    let facts = RequestFacts::new(model, schema, req);
    RequestCtx::new(model, schema, req, &facts).choose()
}

/// Pick the cheapest physical strategy for `req` and record only its
/// index usages: the choice and the usages [`best_access_path`] returns,
/// with no operator built.
pub fn best_access_usages(
    model: &CostModel,
    schema: &PhysicalSchema<'_>,
    req: &IndexRequest,
) -> (AccessChoice, Vec<IndexUsage>) {
    let facts = RequestFacts::new(model, schema, req);
    let ctx = RequestCtx::new(model, schema, req, &facts);
    let choice = ctx.choose();
    let mut e = UsagesOnly::default();
    ctx.emit(&mut e, &choice);
    (choice, e.usages)
}

/// Pick the cheapest physical strategy for `req` and build it.
pub fn best_access_path(
    model: &CostModel,
    schema: &PhysicalSchema<'_>,
    req: &IndexRequest,
) -> AccessPath {
    let facts = RequestFacts::new(model, schema, req);
    let ctx = RequestCtx::new(model, schema, req, &facts);
    ctx.build(&ctx.choose())
}

/// What every candidate of one request reads besides the indexes: the
/// request's cardinalities, selectivities and column sets. Over a base
/// table they are read from catalog statistics only, so no structure a
/// configuration holds or a sink adds changes them; over a view they
/// read the view's statistics.
#[derive(Debug, Clone)]
pub(crate) struct RequestFacts {
    table_rows: f64,
    table_pages: f64,
    /// Selectivity of each sargable predicate, in request order.
    sarg_sels: Vec<f64>,
    /// Logical output cardinality, whatever plan shape produces it.
    out_rows: f64,
    /// Columns needed in the output stream (everything referenced at
    /// or above the filter level).
    needed: BTreeSet<ColumnId>,
    /// `needed` plus the sargable columns: what a scan that filters
    /// everything itself must be able to read.
    all_ref: BTreeSet<ColumnId>,
    order_cols: Vec<ColumnId>,
    n_preds: usize,
    /// Every column any predicate references — what a plan that
    /// consumes no predicates must be able to read to filter.
    pred_cols: BTreeSet<ColumnId>,
}

impl RequestFacts {
    fn new(model: &CostModel, schema: &PhysicalSchema<'_>, req: &IndexRequest) -> RequestFacts {
        let table_rows = schema.rows(req.table).max(1.0);
        let table_pages = (table_rows * schema.row_width(req.table) / model.size.page_size)
            .ceil()
            .max(1.0);
        let sarg_sels: Vec<f64> = req
            .sargable
            .iter()
            .map(|s| sarg_selectivity(schema, s))
            .collect();
        let sarg_sel: f64 = sarg_sels.iter().product::<f64>().clamp(0.0, 1.0);
        let others_sel: f64 = req
            .non_sargable
            .iter()
            .map(|(_, s)| *s)
            .product::<f64>()
            .clamp(0.0, 1.0);
        let mut needed: BTreeSet<ColumnId> = req.additional.clone();
        needed.extend(req.order.iter().map(|(c, _)| *c));
        for (cols, _) in &req.non_sargable {
            needed.extend(cols.iter().copied());
        }
        let mut all_ref = needed.clone();
        all_ref.extend(req.sargable.iter().map(|s| s.column));
        RequestFacts {
            table_rows,
            table_pages,
            out_rows: (table_rows * sarg_sel * others_sel).max(0.0),
            sarg_sels,
            needed,
            all_ref,
            order_cols: req.order.iter().map(|(c, _)| *c).collect(),
            n_preds: req.sargable.len() + req.non_sargable.len(),
            pred_cols: req
                .sargable
                .iter()
                .map(|s| s.column)
                .chain(
                    req.non_sargable
                        .iter()
                        .flat_map(|(cols, _)| cols.iter().copied()),
                )
                .collect(),
        }
    }
}

/// A request with its [`RequestFacts`] derived: what access-path
/// selection reads apart from the configuration's indexes.
#[derive(Debug, Clone)]
pub(crate) struct PreparedRequest {
    pub(crate) req: IndexRequest,
    facts: RequestFacts,
}

impl PreparedRequest {
    pub(crate) fn new(
        model: &CostModel,
        schema: &PhysicalSchema<'_>,
        req: IndexRequest,
    ) -> PreparedRequest {
        PreparedRequest {
            facts: RequestFacts::new(model, schema, &req),
            req,
        }
    }

    /// Pick the cheapest strategy under `schema`'s indexes on the table.
    pub(crate) fn choose(&self, model: &CostModel, schema: &PhysicalSchema<'_>) -> AccessChoice {
        RequestCtx::new(model, schema, &self.req, &self.facts).choose()
    }

    /// Send the operators and usage records of `choice` to `e`.
    pub(crate) fn emit<E: Emit>(
        &self,
        e: &mut E,
        model: &CostModel,
        schema: &PhysicalSchema<'_>,
        choice: &AccessChoice,
    ) -> E::Node {
        RequestCtx::new(model, schema, &self.req, &self.facts)
            .emit(e, choice)
            .node
    }
}

/// One request's [`RequestFacts`] together with the model and schema
/// its candidates are priced against.
struct RequestCtx<'r> {
    model: &'r CostModel,
    schema: &'r PhysicalSchema<'r>,
    req: &'r IndexRequest,
    facts: &'r RequestFacts,
}

/// A candidate with residual filters and sort attached.
struct Finished<N> {
    node: N,
    cost: Cost,
    rows: f64,
    provides_order: bool,
}

/// `(prefix length, seek selectivity, equality prefix length)` of a
/// seekable index.
type SeekPrefix = (usize, f64, usize);

impl<'r> RequestCtx<'r> {
    fn new(
        model: &'r CostModel,
        schema: &'r PhysicalSchema<'r>,
        req: &'r IndexRequest,
        facts: &'r RequestFacts,
    ) -> RequestCtx<'r> {
        RequestCtx {
            model,
            schema,
            req,
            facts,
        }
    }

    /// Price every candidate in a fixed order; the first strictly
    /// cheapest wins. Each index's pages are read through its slot, in
    /// step with the walk over the table's handles.
    fn choose(&self) -> AccessChoice {
        let indexes = self.schema.indexes_with_pages_on(self.req.table);
        let pages = |index: &Index, slot| self.model.size.index_pages_at(self.schema, index, slot);
        let clustered = indexes.clone().find(|(i, _)| i.clustered);
        let e = &mut CostOnly;

        let mut best: Option<AccessChoice> = None;
        let mut consider = |cand: Finished<()>, candidate: &dyn Fn() -> Candidate| {
            if best
                .as_ref()
                .is_none_or(|b| cand.cost.total() < b.cost.total())
            {
                best = Some(AccessChoice {
                    cost: cand.cost,
                    rows: cand.rows,
                    provides_order: cand.provides_order,
                    candidate: candidate(),
                });
            }
        };

        // ---------------- scans (base relation or covering index) ---
        let base = clustered.map(|(ci, slot)| (&**ci, pages(ci, slot)));
        consider(self.base_scan(e, base), &|| {
            Candidate::BaseScan(clustered.map(|(ci, _)| ci.clone()))
        });
        for (index, slot) in indexes.clone() {
            // Covering secondary scan: must provide every referenced
            // column (sargable ones included — they are filtered here).
            if !index.clustered && index.covers(&self.facts.all_ref) {
                consider(self.index_scan(e, index, pages(index, slot)), &|| {
                    Candidate::CoveringScan(index.clone())
                });
            }
        }

        // ---------------- single-index seeks ------------------------
        let mut seekables: Vec<(SeekPrefix, &Arc<Index>, f64)> = Vec::new();
        for (index, slot) in indexes {
            let prefix = self.seek_prefix(index);
            if prefix.0 == 0 {
                continue;
            }
            let pages = pages(index, slot);
            seekables.push((prefix, index, pages));
            consider(self.seek(e, index, prefix, pages), &|| {
                Candidate::Seek(index.clone())
            });
        }

        // ---------------- two-way rid intersection ------------------
        seekables.sort_by(|a, b| a.0 .1.total_cmp(&b.0 .1));
        for i in 0..seekables.len().min(4) {
            for j in (i + 1)..seekables.len().min(4) {
                let (p1, i1, pages1) = seekables[i];
                let (p2, i2, pages2) = seekables[j];
                if i1.key[0] == i2.key[0] {
                    continue; // same leading column: intersection is useless
                }
                consider(
                    self.intersect(e, (i1, p1, pages1), (i2, p2, pages2)),
                    &|| Candidate::Intersect(i1.clone(), i2.clone()),
                );
            }
        }

        best.expect("at least the base scan is always available")
    }

    /// Run the chosen candidate's code again, this time sending it to
    /// `e`. Its indexes' pages are looked up again by handle.
    fn emit<E: Emit>(&self, e: &mut E, choice: &AccessChoice) -> Finished<E::Node> {
        let pages = |index: &Index| self.model.index_pages(self.schema, index);
        let built = match &choice.candidate {
            Candidate::BaseScan(clustered) => {
                self.base_scan(e, clustered.as_deref().map(|ci| (ci, pages(ci))))
            }
            Candidate::CoveringScan(index) => self.index_scan(e, index, pages(index)),
            Candidate::Seek(index) => self.seek(e, index, self.seek_prefix(index), pages(index)),
            Candidate::Intersect(i1, i2) => self.intersect(
                e,
                (i1, self.seek_prefix(i1), pages(i1)),
                (i2, self.seek_prefix(i2), pages(i2)),
            ),
        };
        debug_assert_eq!(
            (built.cost.total().to_bits(), built.rows.to_bits()),
            (choice.cost.total().to_bits(), choice.rows.to_bits()),
            "a rebuilt access path must carry the numbers it was chosen with"
        );
        built
    }

    /// Build the chosen candidate.
    fn build(&self, choice: &AccessChoice) -> AccessPath {
        let e = &mut Materialize::default();
        let built = self.emit(e, choice);
        AccessPath {
            node: built.node,
            cost: built.cost,
            rows: built.rows,
            usages: std::mem::take(&mut e.usages),
            provides_order: built.provides_order,
        }
    }

    /// The requested order, when a plan relies on its access providing
    /// it.
    fn relied_order(&self, provides: bool) -> Option<Vec<(ColumnId, bool)>> {
        (provides && !self.facts.order_cols.is_empty()).then(|| self.req.order.clone())
    }

    /// Filter CPU of a full scan that re-checks every predicate.
    fn scan_filter_cpu(&self) -> f64 {
        if self.facts.n_preds > 0 {
            self.model
                .filter(self.facts.table_rows, self.facts.n_preds)
                .total()
        } else {
            0.0
        }
    }

    /// Scan of the clustered index (given with its pages) or the heap.
    fn base_scan<E: Emit>(&self, e: &mut E, clustered: Option<(&Index, f64)>) -> Finished<E::Node> {
        match clustered {
            Some((ci, pages)) => self.index_scan(e, ci, pages),
            None => {
                let table = self.req.table;
                let cost = self
                    .model
                    .full_scan(self.facts.table_pages, self.facts.table_rows);
                let node = e.leaf(
                    || Op::HeapScan { table },
                    cost.total(),
                    self.facts.table_rows,
                );
                self.finish(
                    e,
                    node,
                    cost,
                    self.facts.table_rows,
                    self.facts.n_preds,
                    false,
                )
            }
        }
    }

    /// Full scan of an index of `pages` pages that can answer the
    /// request by itself: the clustered index, or a covering secondary
    /// one.
    fn index_scan<E: Emit>(&self, e: &mut E, index: &Index, pages: f64) -> Finished<E::Node> {
        let cost = self.model.full_scan(pages, self.facts.table_rows);
        let provides = order_satisfied(&index.key, 0, &self.facts.order_cols);
        let relied = provides && !self.facts.order_cols.is_empty();
        e.usage(|| IndexUsage {
            index: index.clone(),
            kind: UsageKind::Scan,
            access_io: cost.io,
            access_cpu: cost.cpu,
            rows: self.facts.table_rows,
            provided_order: self.relied_order(provides),
            provided_columns: self.facts.all_ref.clone(),
            followed_by_lookup: false,
            seek_col_sels: Vec::new(),
            total_preds: self.facts.n_preds,
            resid_pred_cols: self.facts.pred_cols.clone(),
            resid_filter_cpu: self.scan_filter_cpu(),
            executions: 1.0,
        });
        let node = e.leaf(
            || Op::IndexScan {
                index: index.clone(),
            },
            cost.total(),
            self.facts.table_rows,
        );
        // A clustered scan counts as ordered only when the plan relies
        // on it; a covering scan whenever its key allows it.
        let ordered = if index.clustered { relied } else { provides };
        self.finish(
            e,
            node,
            cost,
            self.facts.table_rows,
            self.facts.n_preds,
            ordered,
        )
    }

    /// Seek on `index` of `leaf_pages` pages, then on-index filters,
    /// then — unless the index covers everything still needed — a rid
    /// lookup and the remaining filters.
    fn seek<E: Emit>(
        &self,
        e: &mut E,
        index: &Index,
        (prefix_len, seek_sel, eq_prefix): SeekPrefix,
        leaf_pages: f64,
    ) -> Finished<E::Node> {
        let (model, req) = (self.model, self.req);
        let rows_after_seek = (self.facts.table_rows * seek_sel).max(0.0);
        let levels = model.levels_of(leaf_pages);
        let seek_cost = model.seek(levels, leaf_pages, seek_sel, rows_after_seek);

        // Residual predicates: sargs not consumed by the seek plus the
        // non-sargable ones.
        let consumed = &index.key[..prefix_len];
        let mut resid_sel_on_index = 1.0;
        let mut resid_sel_after_lookup = 1.0;
        let mut n_on_index = 0usize;
        let mut n_after = 0usize;
        for (sp, sel) in req.sargable.iter().zip(&self.facts.sarg_sels) {
            if consumed.contains(&sp.column) {
                continue;
            }
            if index.covers([&sp.column]) {
                resid_sel_on_index *= sel;
                n_on_index += 1;
            } else {
                resid_sel_after_lookup *= sel;
                n_after += 1;
            }
        }
        for (cols, sel) in &req.non_sargable {
            if index.covers(cols) {
                resid_sel_on_index *= sel;
                n_on_index += 1;
            } else {
                resid_sel_after_lookup *= sel;
                n_after += 1;
            }
        }

        // Fully covered plans are seek + filter; the others go seek ->
        // on-index filters -> rid lookup -> remaining filters. (Rid
        // lookups lose index order in this engine: rows come back in
        // rid order.)
        let lookup = !(index.covers(&self.facts.needed) && n_after == 0);
        let provides = !lookup
            && (order_satisfied(&index.key, 0, &self.facts.order_cols)
                || order_satisfied(&index.key, eq_prefix, &self.facts.order_cols));

        e.usage(|| IndexUsage {
            index: index.clone(),
            kind: UsageKind::Seek {
                seek_cols: prefix_len,
                selectivity: seek_sel,
            },
            access_io: seek_cost.io,
            access_cpu: seek_cost.cpu,
            rows: rows_after_seek,
            provided_order: self.relied_order(provides),
            provided_columns: {
                let all = index.all_columns();
                let mut c: BTreeSet<ColumnId> = self
                    .facts
                    .needed
                    .iter()
                    .copied()
                    .filter(|x| index.clustered || all.contains(x))
                    .collect();
                c.extend(consumed.iter().copied());
                c
            },
            followed_by_lookup: lookup,
            seek_col_sels: self.seek_col_sels(consumed),
            total_preds: self.facts.n_preds,
            resid_pred_cols: self.resid_pred_cols(consumed),
            // Residual-filter CPU this plan charges downstream of the
            // seek: on-index filters run at the seek's output,
            // post-lookup filters at the on-index-filtered cardinality.
            resid_filter_cpu: {
                let mut cpu = 0.0;
                if n_on_index > 0 {
                    cpu += model.filter(rows_after_seek, n_on_index).total();
                }
                if n_after > 0 {
                    cpu += model
                        .filter(rows_after_seek * resid_sel_on_index, n_after)
                        .total();
                }
                cpu
            },
            executions: 1.0,
        });

        let mut cost = seek_cost;
        let mut node = e.leaf(
            || Op::IndexSeek {
                index: index.clone(),
                selectivity: seek_sel,
            },
            seek_cost.total(),
            rows_after_seek,
        );
        let mut rows_mid = rows_after_seek;
        if n_on_index > 0 {
            cost = cost.add(model.filter(rows_mid, n_on_index));
            rows_mid *= resid_sel_on_index;
            node = e.unary(
                || Op::Filter {
                    predicates: n_on_index,
                    selectivity: resid_sel_on_index,
                },
                cost.total(),
                rows_mid,
                node,
            );
        }
        if lookup {
            cost = cost.add(model.rid_lookup(rows_mid, self.facts.table_pages));
            node = e.unary(|| Op::RidLookup, cost.total(), rows_mid, node);
            if n_after > 0 {
                cost = cost.add(model.filter(rows_mid, n_after));
                rows_mid *= resid_sel_after_lookup;
                node = e.unary(
                    || Op::Filter {
                        predicates: n_after,
                        selectivity: resid_sel_after_lookup,
                    },
                    cost.total(),
                    rows_mid,
                    node,
                );
            }
        }
        self.finish(e, node, cost, rows_mid, 0, provides)
    }

    /// Seeks on two indexes with different leading columns (each given
    /// with its pages), their rid streams intersected, then one rid
    /// lookup.
    fn intersect<E: Emit>(
        &self,
        e: &mut E,
        (i1, (p1, s1, _), pages1): (&Index, SeekPrefix, f64),
        (i2, (p2, s2, _), pages2): (&Index, SeekPrefix, f64),
    ) -> Finished<E::Node> {
        let model = self.model;
        let r1 = self.facts.table_rows * s1;
        let r2 = self.facts.table_rows * s2;
        let combined = (self.facts.table_rows * s1 * s2).max(0.0);
        let seek_cost =
            |pages: f64, sel: f64, rows: f64| model.seek(model.levels_of(pages), pages, sel, rows);
        let c1 = seek_cost(pages1, s1, r1);
        let c2 = seek_cost(pages2, s2, r2);
        let ci = model.rid_intersect(r1, r2);
        let lk = model.rid_lookup(combined, self.facts.table_pages);
        let mut cost = c1.add(c2).add(ci).add(lk);
        let n_resid = self.facts.n_preds.saturating_sub(2);

        let seek = |e: &mut E, index: &Index, sel: f64, prefix: usize, c: Cost, rows: f64| {
            let consumed = &index.key[..prefix];
            e.usage(|| IndexUsage {
                index: index.clone(),
                kind: UsageKind::Seek {
                    seek_cols: prefix,
                    selectivity: sel,
                },
                access_io: c.io,
                access_cpu: c.cpu,
                rows,
                provided_order: None,
                provided_columns: consumed.iter().copied().collect(),
                followed_by_lookup: true,
                seek_col_sels: self.seek_col_sels(consumed),
                total_preds: self.facts.n_preds,
                resid_pred_cols: self.resid_pred_cols(consumed),
                // The residual filters of an intersection plan are
                // shared between both seeks; crediting them to either
                // usage could double-count when both indexes are
                // removed, so neither claims them.
                resid_filter_cpu: 0.0,
                executions: 1.0,
            });
            e.leaf(
                || Op::IndexSeek {
                    index: index.clone(),
                    selectivity: sel,
                },
                c.total(),
                rows,
            )
        };
        let seek1 = seek(e, i1, s1, p1, c1, r1);
        let seek2 = seek(e, i2, s2, p2, c2, r2);
        let inter = e.binary(
            Op::RidIntersect,
            c1.add(c2).add(ci).total(),
            combined,
            seek1,
            seek2,
        );
        let mut node = e.unary(|| Op::RidLookup, cost.total(), combined, inter);
        let mut rows_mid = combined;
        if n_resid > 0 {
            cost = cost.add(model.filter(rows_mid, n_resid));
            rows_mid = self.facts.out_rows.min(rows_mid);
            node = e.unary(
                || Op::Filter {
                    predicates: n_resid,
                    selectivity: 1.0,
                },
                cost.total(),
                rows_mid,
                node,
            );
        }
        self.finish(e, node, cost, rows_mid.max(self.facts.out_rows), 0, false)
    }

    /// Longest seekable key prefix: every column must carry a sarg, and
    /// only point-equality sargs allow the seek to continue to the next
    /// key column.
    fn seek_prefix(&self, index: &Index) -> SeekPrefix {
        let mut len = 0usize;
        let mut eq_len = 0usize;
        let mut sel = 1.0f64;
        for key_col in &index.key {
            match self.req.sargable.iter().position(|s| s.column == *key_col) {
                Some(si) => {
                    sel *= self.facts.sarg_sels[si];
                    len += 1;
                    if self.req.sargable[si].sarg.is_equality() {
                        eq_len = len;
                    } else {
                        break; // a range consumes the column and stops the seek
                    }
                }
                None => break,
            }
        }
        (len, sel, eq_len)
    }

    /// Per-column `(column, selectivity, is_equality)` of the sargs a
    /// seek on `consumed` uses.
    fn seek_col_sels(&self, consumed: &[ColumnId]) -> Vec<(ColumnId, f64, bool)> {
        consumed
            .iter()
            .map(|kc| {
                let (sel, eq) = self
                    .req
                    .sargable
                    .iter()
                    .zip(&self.facts.sarg_sels)
                    .find(|(s, _)| s.column == *kc)
                    .map(|(s, sel)| (*sel, s.sarg.is_equality()))
                    .unwrap_or((1.0, false));
                (*kc, sel, eq)
            })
            .collect()
    }

    /// Columns of the predicates a seek on `consumed` leaves to filter.
    fn resid_pred_cols(&self, consumed: &[ColumnId]) -> BTreeSet<ColumnId> {
        self.facts
            .pred_cols
            .iter()
            .copied()
            .filter(|c| !consumed.contains(c))
            .collect()
    }

    /// Attach residual filters (when `extra_preds > 0`) and a sort (when
    /// order is requested but not provided), producing the final
    /// candidate.
    fn finish<E: Emit>(
        &self,
        e: &mut E,
        mut node: E::Node,
        mut cost: Cost,
        rows_in: f64,
        extra_preds: usize,
        provides_order: bool,
    ) -> Finished<E::Node> {
        // The access path's final estimate is the logical output
        // cardinality regardless of which plan shape produced it.
        let rows = self.facts.out_rows;
        if extra_preds > 0 {
            cost = cost.add(self.model.filter(rows_in, extra_preds));
            node = e.unary(
                || Op::Filter {
                    predicates: extra_preds,
                    selectivity: 1.0,
                },
                cost.total(),
                rows,
                node,
            );
        }
        if !self.facts.order_cols.is_empty() && !provides_order {
            let width: f64 = self
                .facts
                .needed
                .iter()
                .map(|c| self.schema.column_width(*c))
                .sum::<f64>()
                .max(8.0);
            cost = cost.add(self.model.sort(rows, width));
            node = e.unary(
                || Op::Sort {
                    columns: self.req.order.clone(),
                },
                cost.total(),
                rows,
                node,
            );
        }
        Finished {
            node,
            cost,
            rows,
            // Sorted one way or the other.
            provides_order: provides_order || !self.facts.order_cols.is_empty(),
        }
    }
}

/// True if `order_cols` is a prefix of `key[skip..]`.
fn order_satisfied(key: &[ColumnId], skip: usize, order_cols: &[ColumnId]) -> bool {
    if order_cols.is_empty() {
        return true;
    }
    if skip >= key.len() {
        return false;
    }
    let tail = &key[skip..];
    tail.len() >= order_cols.len() && tail[..order_cols.len()] == *order_cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt_catalog::{ColumnStats, ColumnType, Database};
    use pdt_expr::Interval;
    use pdt_physical::Configuration;

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
                mk("c", 1000.0),
                mk("pad", 50.0),
            ],
            vec![0],
        );
        b.build()
    }

    fn rid(db: &Database, name: &str) -> ColumnId {
        let t = db.table_by_name("r").unwrap();
        t.column_id(t.column_ordinal(name).unwrap())
    }

    fn req(
        db: &Database,
        sargs: Vec<(ColumnId, Interval)>,
        order: Vec<ColumnId>,
        additional: Vec<ColumnId>,
    ) -> IndexRequest {
        IndexRequest {
            table: db.table_by_name("r").unwrap().id,
            sargable: sargs
                .into_iter()
                .map(|(c, i)| SargablePred {
                    column: c,
                    sarg: Sarg::Range(i),
                })
                .collect(),
            non_sargable: vec![],
            order: order.into_iter().map(|c| (c, false)).collect(),
            additional: additional.into_iter().collect(),
            input_rows: 1_000_000.0,
        }
    }

    fn schema_with<'a>(db: &'a Database, config: &'a Configuration) -> PhysicalSchema<'a> {
        PhysicalSchema::new(db, config)
    }

    #[test]
    fn no_indexes_means_heap_or_clustered_scan() {
        let db = test_db();
        let config = Configuration::base(&db);
        let schema = schema_with(&db, &config);
        let model = CostModel::default();
        let r = req(
            &db,
            vec![(rid(&db, "a"), Interval::point(5.0))],
            vec![],
            vec![rid(&db, "b")],
        );
        let path = best_access_path(&model, &schema, &r);
        let mut scans = 0;
        let mut seeks = 0;
        path.node.walk(&mut |n| match n.op {
            Op::IndexScan { .. } | Op::HeapScan { .. } => scans += 1,
            Op::IndexSeek { .. } => seeks += 1,
            _ => {}
        });
        assert_eq!((scans, seeks), (1, 0), "{:?}", path.node);
        assert_eq!(path.usages.len(), 1);
    }

    #[test]
    fn selective_seek_beats_scan() {
        let db = test_db();
        let mut config = Configuration::base(&db);
        let a = rid(&db, "a");
        let b = rid(&db, "b");
        config.add_index(Index::new(a.table, [a], [b]));
        let schema = schema_with(&db, &config);
        let model = CostModel::default();
        let r = req(&db, vec![(a, Interval::point(5.0))], vec![], vec![b]);
        let path = best_access_path(&model, &schema, &r);
        let seek_used = path
            .usages
            .iter()
            .any(|u| matches!(u.kind, UsageKind::Seek { .. }));
        assert!(seek_used, "expected a seek:\n{:?}", path.node);
        assert!(
            !path.usages[0].followed_by_lookup,
            "covering index needs no lookup"
        );
    }

    #[test]
    fn non_covering_seek_adds_lookup_and_wide_range_prefers_scan() {
        let db = test_db();
        let mut config = Configuration::base(&db);
        let a = rid(&db, "a");
        let c = rid(&db, "c");
        config.add_index(Index::new(a.table, [a], []));
        let schema = schema_with(&db, &config);
        let model = CostModel::default();

        // Tiny range: seek + lookup wins.
        let tight = req(&db, vec![(a, Interval::point(5.0))], vec![], vec![c]);
        let p1 = best_access_path(&model, &schema, &tight);
        assert!(p1.usages.iter().any(|u| u.followed_by_lookup));

        // 90% range: clustered scan wins.
        let loose = req(
            &db,
            vec![(a, Interval::at_least(1000.0, true))],
            vec![],
            vec![c],
        );
        let p2 = best_access_path(&model, &schema, &loose);
        assert!(
            p2.usages.iter().all(|u| matches!(u.kind, UsageKind::Scan)),
            "{:?}",
            p2.node
        );
    }

    #[test]
    fn multi_column_seek_uses_equality_prefix() {
        let db = test_db();
        let mut config = Configuration::base(&db);
        let a = rid(&db, "a");
        let b = rid(&db, "b");
        let idx = Index::new(a.table, [b, a], []);
        config.add_index(idx.clone());
        let schema = schema_with(&db, &config);
        let model = CostModel::default();
        let r = IndexRequest {
            table: a.table,
            sargable: vec![
                SargablePred {
                    column: b,
                    sarg: Sarg::Range(Interval::point(1.0)),
                },
                SargablePred {
                    column: a,
                    sarg: Sarg::Range(Interval::at_most(100.0, true)),
                },
            ],
            non_sargable: vec![],
            order: vec![],
            additional: BTreeSet::new(),
            input_rows: 1_000_000.0,
        };
        let path = best_access_path(&model, &schema, &r);
        let usage = path.usages.iter().find(|u| u.index == idx).unwrap();
        match usage.kind {
            UsageKind::Seek { seek_cols, .. } => assert_eq!(seek_cols, 2),
            _ => panic!("expected seek"),
        }
    }

    #[test]
    fn order_providing_index_avoids_sort() {
        let db = test_db();
        let mut config = Configuration::base(&db);
        let a = rid(&db, "a");
        let b = rid(&db, "b");
        config.add_index(Index::new(a.table, [a], [b]));
        let schema = schema_with(&db, &config);
        let model = CostModel::default();
        let r = req(&db, vec![], vec![a], vec![b]);
        let path = best_access_path(&model, &schema, &r);
        let mut has_sort = false;
        path.node.walk(&mut |n| {
            if matches!(n.op, Op::Sort { .. }) {
                has_sort = true;
            }
        });
        assert!(!has_sort, "index provides order:\n{}", path.node.cost);
        assert!(path.usages.iter().any(|u| u.provided_order.is_some()));
    }

    #[test]
    fn sort_added_when_no_order_available() {
        let db = test_db();
        let config = Configuration::base(&db);
        let schema = schema_with(&db, &config);
        let model = CostModel::default();
        let a = rid(&db, "a");
        let r = req(&db, vec![], vec![a], vec![]);
        let path = best_access_path(&model, &schema, &r);
        let mut has_sort = false;
        path.node.walk(&mut |n| {
            if matches!(n.op, Op::Sort { .. }) {
                has_sort = true;
            }
        });
        assert!(has_sort);
        assert!(path.provides_order);
    }

    #[test]
    fn intersection_considered_for_two_selective_predicates() {
        let db = test_db();
        let mut config = Configuration::base(&db);
        let a = rid(&db, "a");
        let c = rid(&db, "c");
        let pad = rid(&db, "pad");
        config.add_index(Index::new(a.table, [a], []));
        config.add_index(Index::new(a.table, [c], []));
        let schema = schema_with(&db, &config);
        let model = CostModel::default();
        let r = req(
            &db,
            vec![(a, Interval::point(5.0)), (c, Interval::point(7.0))],
            vec![],
            vec![pad],
        );
        let path = best_access_path(&model, &schema, &r);
        // Either intersection or single seek+lookup; both must beat the
        // scan by far.
        let scan_cost = model
            .full_scan(
                model.index_pages(&schema, config.clustered_index_on(a.table).unwrap()),
                1_000_000.0,
            )
            .total();
        assert!(path.cost.total() < scan_cost / 20.0);
    }

    #[test]
    fn covering_scan_beats_clustered_scan_for_narrow_projection() {
        let db = test_db();
        let mut config = Configuration::base(&db);
        let a = rid(&db, "a");
        let b = rid(&db, "b");
        // Covering index on exactly the needed columns (no sargs at
        // all: pure projection scan).
        config.add_index(Index::new(a.table, [a], [b]));
        let schema = schema_with(&db, &config);
        let model = CostModel::default();
        let r = req(&db, vec![], vec![], vec![a, b]);
        let path = best_access_path(&model, &schema, &r);
        match &path.node.op {
            Op::IndexScan { index } => assert!(!index.clustered),
            other => panic!("expected covering index scan, got {other:?}"),
        }
    }
}
