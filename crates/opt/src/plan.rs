//! Physical plans with per-index usage annotations.
//!
//! The tuner's §3.3.2 machinery consumes exactly what a commercial
//! "explain" interface exposes: for each index used over a base table
//! or view, its estimated cost, rows, usage kind (seek fraction vs full
//! scan), the enforced order (if the plan relies on it), the sought
//! columns, and the additional columns required upwards in the tree.
//! [`IndexUsage`] carries all of that.

use pdt_catalog::ColumnId;
use pdt_physical::Index;
use std::collections::BTreeSet;
use std::fmt;

/// How an index was accessed.
#[derive(Debug, Clone, PartialEq)]
pub enum UsageKind {
    /// Full leaf-level scan.
    Scan,
    /// Seek on the first `seek_cols` key columns with combined
    /// selectivity `selectivity`.
    Seek { seek_cols: usize, selectivity: f64 },
}

/// One use of an index in a plan (the "explain" record of §3.3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexUsage {
    pub index: Index,
    pub kind: UsageKind,
    /// Cost attributable to the index access itself (descent + leaf
    /// I/O + per-row CPU), excluding compensation operators.
    pub access_io: f64,
    pub access_cpu: f64,
    /// Estimated rows returned by the access.
    pub rows: f64,
    /// Order of the returned rows that the plan *relies on* (None when
    /// the plan does not exploit the index order).
    pub provided_order: Option<Vec<(ColumnId, bool)>>,
    /// Columns the plan obtains from this index (seek + filter +
    /// output columns it provides).
    pub provided_columns: BTreeSet<ColumnId>,
    /// Whether a rid lookup ran on top of this access in the plan.
    pub followed_by_lookup: bool,
    /// Per-column `(column, selectivity, is_equality)` of the seek
    /// predicates (empty for scans) — what the tuner needs to
    /// re-derive `s_IR` for an arbitrary replacement index (§3.3.2).
    /// The equality flag matters because a range predicate consumes
    /// its key column but stops the seek prefix.
    pub seek_col_sels: Vec<(ColumnId, f64, bool)>,
    /// Total predicate count of the request this access answered
    /// (sargable + non-sargable) — everything a replacement full scan
    /// must re-filter.
    pub total_preds: usize,
    /// Columns referenced by predicates *not* consumed by this
    /// access's seek. A replacement index must also cover these (on
    /// top of the provided columns) to filter without a rid lookup.
    pub resid_pred_cols: BTreeSet<ColumnId>,
    /// Filter CPU the plan charged downstream of this access
    /// (residual predicates at their actual cardinalities). A §3.3.2
    /// patch may credit this much when it re-charges filters itself.
    pub resid_filter_cpu: f64,
    /// How many times the plan runs this access (1 normally; the outer
    /// cardinality for a nested-loops inner side). `access_io`,
    /// `access_cpu`, `rows`, and `resid_filter_cpu` are aggregated over
    /// all executions; a scan-shaped replacement must pay per run.
    pub executions: f64,
}

impl IndexUsage {
    /// Total attributable access cost.
    pub fn access_cost(&self) -> f64 {
        self.access_io + self.access_cpu
    }

    /// The seek selectivity (1.0 for scans).
    pub fn selectivity(&self) -> f64 {
        match self.kind {
            UsageKind::Scan => 1.0,
            UsageKind::Seek { selectivity, .. } => selectivity,
        }
    }
}

/// Physical operator kinds (for explain output and tests).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Scan of a heap (table without a clustered index).
    HeapScan { table: pdt_catalog::TableId },
    /// Full scan of an index's leaf level.
    IndexScan { index: Index },
    /// Seek on an index.
    IndexSeek { index: Index, selectivity: f64 },
    /// Fetch full rows by rid.
    RidLookup,
    /// Intersect two rid streams.
    RidIntersect,
    /// Apply residual predicates.
    Filter { predicates: usize, selectivity: f64 },
    /// Explicit sort.
    Sort { columns: Vec<(ColumnId, bool)> },
    /// Hash join (build = first child).
    HashJoin,
    /// Nested-loops join; the inner side re-executes per outer row.
    NestedLoopJoin,
    /// Hash aggregation.
    HashAggregate { groups: usize },
    /// Aggregation over sorted input.
    StreamAggregate { groups: usize },
    /// Final projection.
    Project,
}

/// A node of the physical plan tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    pub op: Op,
    /// Cumulative cost of the subtree.
    pub cost: f64,
    /// Estimated output rows.
    pub rows: f64,
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    pub fn leaf(op: Op, cost: f64, rows: f64) -> PlanNode {
        PlanNode {
            op,
            cost,
            rows,
            children: Vec::new(),
        }
    }

    pub fn unary(op: Op, cost: f64, rows: f64, child: PlanNode) -> PlanNode {
        PlanNode {
            op,
            cost,
            rows,
            children: vec![child],
        }
    }

    pub fn binary(op: Op, cost: f64, rows: f64, left: PlanNode, right: PlanNode) -> PlanNode {
        PlanNode {
            op,
            cost,
            rows,
            children: vec![left, right],
        }
    }

    /// Depth-first iteration over all operators.
    pub fn walk(&self, f: &mut impl FnMut(&PlanNode)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }
}

/// Where costing code sends the operators and usage records of the plan
/// it prices. Candidates are compared with [`CostOnly`], which drops
/// them unbuilt; the winner is run once more through [`Materialize`],
/// or through [`UsagesOnly`] when only its cost and usages are read.
/// Every pass executes the same code, so a rebuilt winner carries
/// exactly the numbers it won with.
pub(crate) trait Emit {
    type Node;
    fn leaf(&mut self, op: impl FnOnce() -> Op, cost: f64, rows: f64) -> Self::Node;
    fn unary(
        &mut self,
        op: impl FnOnce() -> Op,
        cost: f64,
        rows: f64,
        child: Self::Node,
    ) -> Self::Node;
    fn binary(
        &mut self,
        op: Op,
        cost: f64,
        rows: f64,
        left: Self::Node,
        right: Self::Node,
    ) -> Self::Node;
    fn usage(&mut self, usage: impl FnOnce() -> IndexUsage);
}

/// Prices a plan without building it.
pub(crate) struct CostOnly;

impl Emit for CostOnly {
    type Node = ();
    fn leaf(&mut self, _: impl FnOnce() -> Op, _: f64, _: f64) {}
    fn unary(&mut self, _: impl FnOnce() -> Op, _: f64, _: f64, _: ()) {}
    fn binary(&mut self, _: Op, _: f64, _: f64, _: (), _: ()) {}
    fn usage(&mut self, _: impl FnOnce() -> IndexUsage) {}
}

/// Builds the [`PlanNode`] tree and collects the usage records.
#[derive(Default)]
pub(crate) struct Materialize {
    pub usages: Vec<IndexUsage>,
}

impl Emit for Materialize {
    type Node = PlanNode;
    fn leaf(&mut self, op: impl FnOnce() -> Op, cost: f64, rows: f64) -> PlanNode {
        PlanNode::leaf(op(), cost, rows)
    }
    fn unary(
        &mut self,
        op: impl FnOnce() -> Op,
        cost: f64,
        rows: f64,
        child: PlanNode,
    ) -> PlanNode {
        PlanNode::unary(op(), cost, rows, child)
    }
    fn binary(
        &mut self,
        op: Op,
        cost: f64,
        rows: f64,
        left: PlanNode,
        right: PlanNode,
    ) -> PlanNode {
        PlanNode::binary(op, cost, rows, left, right)
    }
    fn usage(&mut self, usage: impl FnOnce() -> IndexUsage) {
        self.usages.push(usage());
    }
}

/// An [`Emit`] that keeps the usage records it is sent, in order.
pub(crate) trait Collect: Emit {
    fn usages(&mut self) -> &mut Vec<IndexUsage>;
}

impl Collect for Materialize {
    fn usages(&mut self) -> &mut Vec<IndexUsage> {
        &mut self.usages
    }
}

/// Collects the usage records of a plan without building its operators:
/// what a what-if call reads of the plan that won.
#[derive(Default)]
pub(crate) struct UsagesOnly {
    pub usages: Vec<IndexUsage>,
}

impl Emit for UsagesOnly {
    type Node = ();
    fn leaf(&mut self, _: impl FnOnce() -> Op, _: f64, _: f64) {}
    fn unary(&mut self, _: impl FnOnce() -> Op, _: f64, _: f64, _: ()) {}
    fn binary(&mut self, _: Op, _: f64, _: f64, _: (), _: ()) {}
    fn usage(&mut self, usage: impl FnOnce() -> IndexUsage) {
        self.usages.push(usage());
    }
}

impl Collect for UsagesOnly {
    fn usages(&mut self) -> &mut Vec<IndexUsage> {
        &mut self.usages
    }
}

/// A complete optimized plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysPlan {
    pub root: PlanNode,
    /// Total estimated cost (time units).
    pub cost: f64,
    /// Estimated result rows.
    pub rows: f64,
    /// Every index used, with its §3.3.2 annotations.
    pub index_usages: Vec<IndexUsage>,
}

impl PhysPlan {
    /// True if the plan uses the given index anywhere.
    pub fn uses_index(&self, index: &Index) -> bool {
        self.index_usages.iter().any(|u| &u.index == index)
    }

    /// True if the plan accesses the given table id (base or view).
    pub fn uses_table(&self, table: pdt_catalog::TableId) -> bool {
        self.index_usages.iter().any(|u| u.index.table == table) || {
            let mut found = false;
            self.root.walk(&mut |n| {
                if let Op::HeapScan { table: t } = n.op {
                    if t == table {
                        found = true;
                    }
                }
            });
            found
        }
    }

    /// Pretty multi-line explain rendering.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        fn rec(n: &PlanNode, depth: usize, out: &mut String) {
            use fmt::Write;
            let _ = writeln!(
                out,
                "{:indent$}{:?} (cost={:.2} rows={:.0})",
                "",
                n.op,
                n.cost,
                n.rows,
                indent = depth * 2
            );
            for c in &n.children {
                rec(c, depth + 1, out);
            }
        }
        rec(&self.root, 0, &mut out);
        out
    }
}

impl fmt::Display for PhysPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt_catalog::TableId;

    fn dummy_index() -> Index {
        Index::new(TableId(0), [ColumnId::new(TableId(0), 0)], [])
    }

    #[test]
    fn walk_visits_all_nodes() {
        let leaf = PlanNode::leaf(
            Op::IndexScan {
                index: dummy_index(),
            },
            10.0,
            100.0,
        );
        let root = PlanNode::unary(Op::Project, 11.0, 100.0, leaf);
        let mut count = 0;
        root.walk(&mut |_| count += 1);
        assert_eq!(count, 2);
    }

    #[test]
    fn uses_index_and_table() {
        let idx = dummy_index();
        let plan = PhysPlan {
            root: PlanNode::leaf(Op::IndexScan { index: idx.clone() }, 1.0, 1.0),
            cost: 1.0,
            rows: 1.0,
            index_usages: vec![IndexUsage {
                index: idx.clone(),
                kind: UsageKind::Scan,
                access_io: 1.0,
                access_cpu: 0.0,
                rows: 1.0,
                provided_order: None,
                provided_columns: BTreeSet::new(),
                followed_by_lookup: false,
                seek_col_sels: Vec::new(),
                total_preds: 0,
                resid_pred_cols: BTreeSet::new(),
                resid_filter_cpu: 0.0,
                executions: 1.0,
            }],
        };
        assert!(plan.uses_index(&idx));
        assert!(plan.uses_table(TableId(0)));
        assert!(!plan.uses_table(TableId(5)));
    }

    #[test]
    fn heap_scan_detection() {
        let plan = PhysPlan {
            root: PlanNode::leaf(Op::HeapScan { table: TableId(3) }, 1.0, 1.0),
            cost: 1.0,
            rows: 1.0,
            index_usages: vec![],
        };
        assert!(plan.uses_table(TableId(3)));
    }

    #[test]
    fn usage_selectivity() {
        let u = IndexUsage {
            index: dummy_index(),
            kind: UsageKind::Seek {
                seek_cols: 1,
                selectivity: 0.25,
            },
            access_io: 2.0,
            access_cpu: 1.0,
            rows: 10.0,
            provided_order: None,
            provided_columns: BTreeSet::new(),
            followed_by_lookup: true,
            seek_col_sels: vec![(ColumnId::new(TableId(0), 0), 0.25, true)],
            total_preds: 1,
            resid_pred_cols: BTreeSet::new(),
            resid_filter_cpu: 0.0,
            executions: 1.0,
        };
        assert_eq!(u.selectivity(), 0.25);
        assert_eq!(u.access_cost(), 3.0);
    }

    #[test]
    fn explain_renders_tree() {
        let plan = PhysPlan {
            root: PlanNode::unary(
                Op::Project,
                2.0,
                1.0,
                PlanNode::leaf(Op::HeapScan { table: TableId(0) }, 1.0, 10.0),
            ),
            cost: 2.0,
            rows: 1.0,
            index_usages: vec![],
        };
        let text = plan.explain();
        assert!(text.contains("Project"));
        assert!(text.contains("HeapScan"));
    }
}
