//! Cardinality estimation: histogram selectivities, independence
//! between predicates, `1/max(ndv)` equi-join selectivity, and
//! Cardenas-style distinct counting for group-by outputs.

use pdt_catalog::{ColumnId, TableId};
use pdt_expr::{ClassifiedPredicates, JoinPred};
use pdt_physical::PhysicalSchema;
use std::collections::BTreeSet;

/// Distinct count of a column, as seen by the join/grouping estimator.
pub fn column_ndv(schema: &PhysicalSchema<'_>, col: ColumnId) -> f64 {
    schema
        .column_stats(col)
        .map(|s| s.ndv.max(1.0))
        .unwrap_or(100.0)
        .min(schema.rows(col.table).max(1.0))
}

/// Selectivity of one equi-join predicate: `1 / max(ndv_l, ndv_r)`.
pub fn join_selectivity(schema: &PhysicalSchema<'_>, left: ColumnId, right: ColumnId) -> f64 {
    1.0 / column_ndv(schema, left).max(column_ndv(schema, right))
}

/// The factors of [`subset_rows`] for one set of tables and predicates,
/// read from the statistics once so that any number of subsets can be
/// sized from them: a join search sizes `2^n` subsets of one block.
#[derive(Debug)]
pub struct SubsetCard {
    /// `(table, max(rows, 1), local selectivity)` in table-id order.
    tables: Vec<(TableId, f64, f64)>,
    /// The equi-join predicates with their selectivities, in predicate
    /// order.
    pub joins: Vec<(JoinPred, f64)>,
    /// Cross-table "other" predicates: the tables each one spans and
    /// its selectivity.
    others: Vec<(BTreeSet<TableId>, f64)>,
}

impl SubsetCard {
    pub fn new(
        schema: &PhysicalSchema<'_>,
        tables: &BTreeSet<TableId>,
        preds: &ClassifiedPredicates,
    ) -> SubsetCard {
        SubsetCard {
            tables: tables
                .iter()
                .map(|&t| {
                    (
                        t,
                        schema.rows(t).max(1.0),
                        preds.local_selectivity(schema.db, t),
                    )
                })
                .collect(),
            joins: preds
                .joins
                .iter()
                .map(|j| (*j, join_selectivity(schema, j.left, j.right)))
                .collect(),
            others: preds
                .others
                .iter()
                .map(|o| (o.tables(), o.selectivity))
                .filter(|(ts, _)| ts.len() > 1)
                .collect(),
        }
    }

    /// Estimated output rows of joining the tables `contains` accepts,
    /// with all applicable local and join predicates, under
    /// independence. The factors multiply in one fixed order (tables by
    /// id, then joins, then cross-table predicates).
    pub fn rows(&self, contains: impl Fn(TableId) -> bool) -> f64 {
        let mut rows = 1.0f64;
        for &(t, table_rows, local_sel) in &self.tables {
            if contains(t) {
                rows *= table_rows;
                rows *= local_sel;
            }
        }
        for (j, sel) in &self.joins {
            if contains(j.left.table) && contains(j.right.table) {
                rows *= sel;
            }
        }
        // Cross-table "other" predicates fully inside the subset.
        for (ts, sel) in &self.others {
            if ts.iter().all(|t| contains(*t)) {
                rows *= sel;
            }
        }
        rows.max(1.0)
    }
}

/// Estimated output rows of joining `subset` with all applicable local
/// and join predicates, under independence.
pub fn subset_rows(
    schema: &PhysicalSchema<'_>,
    subset: &BTreeSet<TableId>,
    preds: &ClassifiedPredicates,
) -> f64 {
    SubsetCard::new(schema, subset, preds).rows(|t| subset.contains(&t))
}

/// Estimated number of groups when grouping `input_rows` rows by
/// `group_cols`.
pub fn group_count(
    schema: &PhysicalSchema<'_>,
    input_rows: f64,
    group_cols: &BTreeSet<ColumnId>,
) -> f64 {
    if group_cols.is_empty() {
        return 1.0;
    }
    let mut domain = 1.0f64;
    for c in group_cols {
        domain *= column_ndv(schema, *c);
        if domain > 1e15 {
            break;
        }
    }
    // Expected distinct combinations drawn `input_rows` times from a
    // domain of `domain` values.
    let input = input_rows.max(1.0);
    (domain * (1.0 - (-input / domain).exp())).clamp(1.0, input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt_catalog::{ColumnStats, ColumnType, Database};
    use pdt_expr::{classify_conjuncts, scalar::CmpOp, PredExpr, ScalarExpr};
    use pdt_physical::Configuration;

    fn test_db() -> Database {
        let mut b = Database::builder("t");
        let mk = |name: &str, ndv: f64| pdt_catalog::Column {
            name: name.into(),
            ty: ColumnType::Int,
            stats: ColumnStats::uniform(ndv, 0.0, ndv, 4.0),
        };
        b.add_table(
            "fact",
            1_000_000.0,
            vec![mk("fk", 1000.0), mk("v", 100.0)],
            vec![],
        );
        b.add_table(
            "dim",
            1000.0,
            vec![mk("pk", 1000.0), mk("w", 10.0)],
            vec![0],
        );
        b.build()
    }

    fn cid(db: &Database, t: &str, c: &str) -> ColumnId {
        let table = db.table_by_name(t).unwrap();
        table.column_id(table.column_ordinal(c).unwrap())
    }

    #[test]
    fn fk_join_preserves_fact_cardinality() {
        let db = test_db();
        let config = Configuration::new();
        let schema = PhysicalSchema::new(&db, &config);
        let fk = cid(&db, "fact", "fk");
        let pk = cid(&db, "dim", "pk");
        let preds = classify_conjuncts(
            &db,
            vec![PredExpr::Cmp {
                op: CmpOp::Eq,
                left: ScalarExpr::column(fk),
                right: ScalarExpr::column(pk),
            }],
        );
        let rows = subset_rows(&schema, &[fk.table, pk.table].into(), &preds);
        // 1M x 1000 / max(1000,1000) = 1M.
        assert!(
            (rows - 1_000_000.0).abs() / 1_000_000.0 < 0.01,
            "rows={rows}"
        );
    }

    #[test]
    fn cross_product_without_join() {
        let db = test_db();
        let config = Configuration::new();
        let schema = PhysicalSchema::new(&db, &config);
        let preds = ClassifiedPredicates::default();
        let f = db.table_by_name("fact").unwrap().id;
        let d = db.table_by_name("dim").unwrap().id;
        let rows = subset_rows(&schema, &[f, d].into(), &preds);
        assert_eq!(rows, 1_000_000.0 * 1000.0);
    }

    #[test]
    fn group_count_caps_at_input() {
        let db = test_db();
        let config = Configuration::new();
        let schema = PhysicalSchema::new(&db, &config);
        let v = cid(&db, "fact", "v");
        let g = group_count(&schema, 50.0, &[v].into());
        assert!(g <= 50.0);
        let g2 = group_count(&schema, 1e6, &[v].into());
        assert!((g2 - 100.0).abs() < 1.0, "g2={g2}");
    }

    #[test]
    fn group_count_of_nothing_is_one() {
        let db = test_db();
        let config = Configuration::new();
        let schema = PhysicalSchema::new(&db, &config);
        assert_eq!(group_count(&schema, 1000.0, &BTreeSet::new()), 1.0);
    }
}
