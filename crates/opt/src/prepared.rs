//! Prepared statements: the part of a plan search that no configuration
//! can change, derived once per statement.
//!
//! A plan search reads two kinds of facts. The query block, its
//! cardinality factors, the FROM-position map, the join order of a
//! greedy search, and every index request the join enumeration makes
//! over a base table read the statement and catalog statistics only.
//! So do each request's selectivities, column sets and output
//! cardinality. Which access path, join method and view wins reads the
//! configuration. A [`PreparedSelect`] holds the first kind;
//! [`Optimizer::what_if`] and [`Optimizer::optimize_prepared`] run the
//! second against any number of configurations. `Optimizer::optimize`
//! is prepare-then-run on the same code, so a prepared call answers bit
//! for bit what a fresh one does.
//!
//! The state is plain owned data: no cell, no lock, no shared handle.
//! A prepared statement belongs to the database and the optimizer
//! options it was prepared with.

use crate::access::PreparedRequest;
use crate::block::QueryBlock;
use crate::card::SubsetCard;
use crate::cost::CostModel;
use crate::optimizer::{Optimizer, DP_TABLE_LIMIT};
use crate::plan::IndexUsage;
use crate::request::IndexRequest;
use pdt_catalog::{ColumnId, TableId};
use pdt_expr::{BoundSelect, Sarg, SargablePred};
use pdt_physical::{Configuration, PhysicalSchema};
use std::collections::{BTreeSet, HashMap};

/// What a what-if call reads of the plan that won: its cost,
/// cardinality and index usages. The operator tree is never built.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIf {
    pub cost: f64,
    pub rows: f64,
    pub index_usages: Vec<IndexUsage>,
}

/// The parameterized join columns of an index nested-loops inner side:
/// `(inner column, join selectivity)` per connecting join predicate.
pub(crate) type JoinParams = Vec<(ColumnId, f64)>;

/// One statement's configuration-independent plan-search facts.
#[derive(Debug)]
pub struct PreparedSelect {
    pub(crate) block: QueryBlock,
    /// `(table, position in the FROM list)`, sorted by table. The
    /// binder rejects a table that appears twice.
    pub(crate) positions: Vec<(TableId, usize)>,
    /// One request per distinct `(FROM position, join parameter bits)`
    /// the join enumeration makes.
    pub(crate) requests: Vec<PreparedRequest>,
    /// Per FROM position, its request without join parameters (for a
    /// one-table block, the request that carries the query's order).
    pub(crate) plain: Vec<usize>,
    pub(crate) order: JoinOrder,
}

/// How the join search walks the FROM list.
#[derive(Debug)]
pub(crate) enum JoinOrder {
    /// One table: no join.
    Single,
    /// Exhaustive left-deep DP over every subset.
    Dp(DpOrder),
    /// A greedy left-deep order, fixed by cardinalities alone.
    Greedy {
        first: usize,
        steps: Vec<GreedyStep>,
    },
}

/// The exhaustive left-deep DP's subsets and join candidates. The plan
/// search and the instrumentation walk both enumerate them through
/// [`DpOrder::masks`] and [`DpOrder::joins`], so the walk issues its
/// requests in the order the search reads them.
#[derive(Debug)]
pub(crate) struct DpOrder {
    /// Per FROM position, the positions a join predicate connects it
    /// to, as a mask.
    neighbours: Vec<usize>,
    /// Per FROM position, `(neighbours in the outer subset, request)`
    /// for every non-empty such set, sorted by the mask: the
    /// parameterized requests of its index nested-loops joins.
    params: Vec<Vec<(usize, usize)>>,
    /// Output rows of each subset mask (0 for masks of fewer than two
    /// tables, which the DP never sizes).
    pub(crate) rows: Vec<f64>,
}

impl DpOrder {
    /// The mask of the whole FROM list.
    pub(crate) fn full_mask(&self) -> usize {
        (1 << self.neighbours.len()) - 1
    }

    /// Every subset of two or more FROM positions, in the order the DP
    /// decides them (ascending mask, so each subset's outer sides are
    /// decided before it).
    pub(crate) fn masks(&self) -> impl Iterator<Item = usize> {
        (3..=self.full_mask()).filter(|mask: &usize| mask.count_ones() >= 2)
    }

    /// The join candidates of subset `mask`, in enumeration order: each
    /// inner FROM position in FROM order, with the parameterized
    /// request of its index nested-loops join when a join predicate
    /// connects it to the rest of the subset (cross products only join
    /// by hash).
    pub(crate) fn joins(&self, mask: usize) -> impl Iterator<Item = (usize, Option<usize>)> + '_ {
        (0..self.neighbours.len())
            .filter(move |i| mask >> i & 1 == 1)
            .map(move |i| {
                let connected = mask & !(1 << i) & self.neighbours[i];
                let param = (connected != 0).then(|| {
                    let slots = &self.params[i];
                    slots[slots
                        .binary_search_by_key(&connected, |s| s.0)
                        .expect("every neighbour subset has a prepared request")]
                    .1
                });
                (i, param)
            })
    }
}

/// One join of the greedy order.
#[derive(Debug)]
pub(crate) struct GreedyStep {
    pub(crate) inner: usize,
    /// The parameterized request, when a join predicate connects the
    /// inner table to the tables joined before it.
    pub(crate) params: Option<usize>,
    pub(crate) rows: f64,
}

impl PreparedSelect {
    pub(crate) fn new(opt: &Optimizer<'_>, q: &BoundSelect) -> PreparedSelect {
        let db = opt.db;
        let block = QueryBlock::from_bound(db, q);
        // Every table of a block is a base table, and a base table's
        // rows, widths and column statistics come from the catalog: no
        // configuration is read here.
        let empty = Configuration::new();
        let schema = PhysicalSchema::new(db, &empty);
        let card = SubsetCard::new(
            &schema,
            &block.tables.iter().copied().collect(),
            &block.classified,
        );
        let mut positions: Vec<(TableId, usize)> = block
            .tables
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i))
            .collect();
        positions.sort_unstable();

        let n = block.tables.len();
        let mut requests = Requests {
            model: &opt.opts.cost,
            schema: &schema,
            block: &block,
            all: Vec::new(),
            seen: HashMap::new(),
        };
        let single_order = if n == 1 && !block.is_grouped() {
            block.order_by.clone()
        } else {
            Vec::new()
        };
        let plain: Vec<usize> = (0..n)
            .map(|i| requests.get(i, &[], single_order.clone()))
            .collect();
        let in_mask = |mask: usize, t: TableId| in_mask(&positions, mask, t);
        let order = if n == 1 {
            JoinOrder::Single
        } else if n <= opt.opts.max_dp_tables.min(DP_TABLE_LIMIT) {
            let mut neighbours = vec![0usize; n];
            for (j, _) in &card.joins {
                let (l, r) = (
                    position(&positions, j.left.table),
                    position(&positions, j.right.table),
                );
                if let (Some(l), Some(r)) = (l, r) {
                    if l != r {
                        neighbours[l] |= 1 << r;
                        neighbours[r] |= 1 << l;
                    }
                }
            }
            let mut params = Vec::with_capacity(n);
            for (i, &nbrs) in neighbours.iter().enumerate() {
                let mut slots = Vec::new();
                let mut outer = nbrs;
                while outer != 0 {
                    let cols = join_cols(&card, block.tables[i], |t| in_mask(outer, t));
                    slots.push((outer, requests.get(i, &cols, Vec::new())));
                    outer = (outer - 1) & nbrs;
                }
                slots.sort_unstable_by_key(|s| s.0);
                params.push(slots);
            }
            let full_mask: usize = (1 << n) - 1;
            let rows = (0..=full_mask)
                .map(|mask: usize| {
                    if mask.count_ones() < 2 {
                        0.0
                    } else {
                        card.rows(|t| in_mask(mask, t))
                    }
                })
                .collect();
            JoinOrder::Dp(DpOrder {
                neighbours,
                params,
                rows,
            })
        } else {
            greedy_order(&schema, &block, &card, &mut requests)
        };
        let requests = requests.all;
        PreparedSelect {
            block,
            positions,
            requests,
            plain,
            order,
        }
    }

    /// True if `table` is one of the FROM-list positions set in `mask`.
    pub(crate) fn in_mask(&self, mask: usize, table: TableId) -> bool {
        in_mask(&self.positions, mask, table)
    }
}

fn position(positions: &[(TableId, usize)], table: TableId) -> Option<usize> {
    positions
        .binary_search_by_key(&table, |p| p.0)
        .ok()
        .map(|at| positions[at].1)
}

fn in_mask(positions: &[(TableId, usize)], mask: usize, table: TableId) -> bool {
    position(positions, table).is_some_and(|pos| mask >> pos & 1 == 1)
}

/// The parameterized join columns of `inner` against the tables
/// `in_outer` accepts: one `(inner column, join selectivity)` per join
/// predicate that connects them, in predicate order. Empty means the
/// join would be a cross product.
fn join_cols(card: &SubsetCard, inner: TableId, in_outer: impl Fn(TableId) -> bool) -> JoinParams {
    let mut out = Vec::new();
    for (j, sel) in &card.joins {
        if j.left.table == inner && in_outer(j.right.table) {
            out.push((j.left, *sel));
        } else if j.right.table == inner && in_outer(j.left.table) {
            out.push((j.right, *sel));
        }
    }
    out
}

/// The greedy left-deep order for FROM lists too wide for the DP: start
/// from the table with the smallest filtered cardinality, then add the
/// connected table that minimizes the joined cardinality.
fn greedy_order(
    schema: &PhysicalSchema<'_>,
    block: &QueryBlock,
    card: &SubsetCard,
    requests: &mut Requests<'_>,
) -> JoinOrder {
    let n = block.tables.len();
    let filtered_rows: Vec<f64> = block
        .tables
        .iter()
        .map(|&t| schema.rows(t) * block.classified.local_selectivity(schema.db, t))
        .collect();
    let mut remaining: Vec<usize> = (0..n).collect();
    remaining.sort_by(|a, b| filtered_rows[*a].total_cmp(&filtered_rows[*b]));
    let first = remaining.remove(0);
    let mut joined: BTreeSet<TableId> = [block.tables[first]].into();
    let mut steps = Vec::with_capacity(n - 1);
    while !remaining.is_empty() {
        let mut best_idx = 0usize;
        let mut best_rows = f64::INFINITY;
        for (pos, &i) in remaining.iter().enumerate() {
            let t = block.tables[i];
            let connected = block.classified.joins.iter().any(|j| {
                (j.left.table == t && joined.contains(&j.right.table))
                    || (j.right.table == t && joined.contains(&j.left.table))
            });
            let rows =
                card.rows(|x| x == t || joined.contains(&x)) * if connected { 1.0 } else { 1e6 };
            if rows < best_rows {
                best_rows = rows;
                best_idx = pos;
            }
        }
        let i = remaining.remove(best_idx);
        let t = block.tables[i];
        let cols = join_cols(card, t, |x| joined.contains(&x));
        joined.insert(t);
        steps.push(GreedyStep {
            inner: i,
            params: (!cols.is_empty()).then(|| requests.get(i, &cols, Vec::new())),
            rows: card.rows(|x| joined.contains(&x)),
        });
    }
    JoinOrder::Greedy { first, steps }
}

/// The statement's requests, one per distinct `(FROM position, join
/// parameter bits)`.
struct Requests<'p> {
    model: &'p CostModel,
    schema: &'p PhysicalSchema<'p>,
    block: &'p QueryBlock,
    all: Vec<PreparedRequest>,
    seen: HashMap<(usize, Vec<(ColumnId, u64)>), usize>,
}

impl Requests<'_> {
    /// The request for the table at FROM position `pos`, with optional
    /// parameterized join sargs (for the inner side of an index
    /// nested-loops join) and requested order.
    fn get(
        &mut self,
        pos: usize,
        join_params: &[(ColumnId, f64)],
        order: Vec<(ColumnId, bool)>,
    ) -> usize {
        let key = (
            pos,
            join_params.iter().map(|(c, s)| (*c, s.to_bits())).collect(),
        );
        if let Some(&at) = self.seen.get(&key) {
            return at;
        }
        let block = self.block;
        let table = block.tables[pos];
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
        let req = IndexRequest {
            table,
            sargable,
            non_sargable,
            order,
            additional: block.required_columns(table),
            input_rows: self.schema.rows(table),
        };
        self.all
            .push(PreparedRequest::new(self.model, self.schema, req));
        self.seen.insert(key, self.all.len() - 1);
        self.all.len() - 1
    }
}
