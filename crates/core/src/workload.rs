//! Bound workloads and the update-shell split of §3.6.
//!
//! "We separate each update query into two components: a pure select
//! query, and a small update shell. ... We now can optimize each
//! component separately": the select part flows through the ordinary
//! (instrumented) optimizer; the shell contributes a closed-form
//! per-index maintenance cost.

use pdt_catalog::{ColumnId, Database, TableId};
use pdt_expr::{BindError, Binder, BoundSelect, BoundStatement};
use pdt_sql::Statement;
use std::collections::BTreeSet;

/// The non-relational part of an update statement: which table is
/// written, which columns change, and how many rows are touched.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateShell {
    pub table: TableId,
    /// Columns written (`None` = the whole row, as for INSERT/DELETE).
    pub touched: Option<BTreeSet<ColumnId>>,
    /// Estimated written rows (the `TOP(k)` of the paper's shell).
    pub rows: f64,
}

impl UpdateShell {
    /// True if maintaining `index` is required when this shell runs.
    pub fn affects(&self, index: &pdt_physical::Index) -> bool {
        // Indexes on views over the written table must be maintained
        // too; the caller resolves view definitions — here we only see
        // direct table matches.
        if index.table != self.table {
            return false;
        }
        match &self.touched {
            None => true,
            // A clustered index stores the row: every update touches it.
            Some(_) if index.clustered => true,
            Some(cols) => index
                .key
                .iter()
                .chain(&index.suffix)
                .any(|c| cols.contains(c)),
        }
    }
}

/// One workload statement, decomposed for tuning.
#[derive(Debug, Clone)]
pub struct WorkloadEntry {
    /// The original statement (for reporting).
    pub statement: Statement,
    /// Relative weight (frequency) of the statement.
    pub weight: f64,
    /// The SELECT component to optimize (None for pure INSERTs, whose
    /// relational part is trivial).
    pub select: Option<BoundSelect>,
    /// The update shell (None for SELECT statements).
    pub shell: Option<UpdateShell>,
}

impl WorkloadEntry {
    pub fn is_update(&self) -> bool {
        self.shell.is_some()
    }
}

/// A bound workload.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    pub entries: Vec<WorkloadEntry>,
    /// Statements folded into an earlier identical entry at bind time
    /// (their weights were merged into the surviving entry).
    pub deduped: usize,
}

impl Workload {
    /// Bind statements against a database with unit weights.
    pub fn bind(db: &Database, statements: &[Statement]) -> Result<Workload, BindError> {
        Self::bind_weighted(db, statements.iter().map(|s| (s.clone(), 1.0)))
    }

    /// Bind `(statement, weight)` pairs.
    ///
    /// Textually identical statements are deduplicated: the workload
    /// keeps one entry at the first occurrence's position with the
    /// weights summed. Every evaluation of the workload is linear in
    /// the weight, so the folded workload has bitwise-identical totals
    /// to evaluating each copy and summing — one optimizer call now
    /// prices every repetition.
    pub fn bind_weighted(
        db: &Database,
        statements: impl IntoIterator<Item = (Statement, f64)>,
    ) -> Result<Workload, BindError> {
        let binder = Binder::new(db);
        let mut entries: Vec<WorkloadEntry> = Vec::new();
        let mut seen: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
        let mut deduped = 0;
        for (statement, weight) in statements {
            let text = statement.to_string();
            if let Some(&at) = seen.get(&text) {
                entries[at].weight += weight;
                deduped += 1;
                continue;
            }
            let bound = binder.bind(&statement)?;
            let (select, shell) = split(db, &bound)?;
            seen.insert(text, entries.len());
            entries.push(WorkloadEntry {
                statement,
                weight,
                select,
                shell,
            });
        }
        Ok(Workload { entries, deduped })
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if any statement writes.
    pub fn has_updates(&self) -> bool {
        self.entries.iter().any(WorkloadEntry::is_update)
    }

    /// Tables written by the workload.
    pub fn written_tables(&self) -> BTreeSet<TableId> {
        self.entries
            .iter()
            .filter_map(|e| e.shell.as_ref().map(|s| s.table))
            .collect()
    }
}

/// Split a bound statement into its SELECT component and update shell.
fn split(
    db: &Database,
    bound: &BoundStatement,
) -> Result<(Option<BoundSelect>, Option<UpdateShell>), BindError> {
    match bound {
        BoundStatement::Select(s) => Ok((Some(s.clone()), None)),
        BoundStatement::Update(u) => {
            // Pure select part: the assignment expressions and filter
            // over the target table (the paper's
            // `SELECT b+1, c*c+5 FROM R WHERE a<10 AND d<20`).
            let select = BoundSelect {
                tables: vec![u.table],
                projections: u.assignments.iter().map(|(_, e)| e.clone()).collect(),
                predicate: u.predicate.clone(),
                group_by: Vec::new(),
                order_by: Vec::new(),
                top: None,
            };
            let rows = predicate_rows(db, u.table, &select);
            let touched: BTreeSet<ColumnId> = u
                .assignments
                .iter()
                .map(|(ord, _)| ColumnId::new(u.table, *ord))
                .collect();
            Ok((
                Some(select),
                Some(UpdateShell {
                    table: u.table,
                    touched: Some(touched),
                    rows,
                }),
            ))
        }
        BoundStatement::Insert(i) => Ok((
            None,
            Some(UpdateShell {
                table: i.table,
                touched: None,
                rows: 1.0,
            }),
        )),
        BoundStatement::Delete(d) => {
            let select = BoundSelect {
                tables: vec![d.table],
                projections: db
                    .table(d.table)
                    .primary_key
                    .iter()
                    .map(|o| pdt_expr::ScalarExpr::Column(ColumnId::new(d.table, *o)))
                    .collect(),
                predicate: d.predicate.clone(),
                group_by: Vec::new(),
                order_by: Vec::new(),
                top: None,
            };
            let rows = predicate_rows(db, d.table, &select);
            Ok((
                Some(select),
                Some(UpdateShell {
                    table: d.table,
                    touched: None,
                    rows,
                }),
            ))
        }
    }
}

/// Estimated rows matching the statement's predicate ("k is the
/// estimated cardinality of the corresponding select query").
fn predicate_rows(db: &Database, table: TableId, select: &BoundSelect) -> f64 {
    let classified = select.classified(db);
    let sel = classified.local_selectivity(db, table);
    (db.table(table).rows * sel).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt_catalog::{ColumnStats, ColumnType};
    use pdt_physical::Index;
    use pdt_sql::parse_workload;

    fn test_db() -> Database {
        let mut b = Database::builder("t");
        let mk = |name: &str| pdt_catalog::Column {
            name: name.into(),
            ty: ColumnType::Int,
            stats: ColumnStats::uniform(100.0, 0.0, 100.0, 4.0),
        };
        b.add_table(
            "r",
            10_000.0,
            vec![mk("a"), mk("b"), mk("c"), mk("d")],
            vec![0],
        );
        b.build()
    }

    #[test]
    fn paper_update_shell_example() {
        // UPDATE R SET a=b+1, c=c*c+5 WHERE a<10 AND d<20
        let db = test_db();
        let stmts = parse_workload("UPDATE r SET a = b + 1, c = c * c + 5 WHERE a < 10 AND d < 20")
            .unwrap();
        let w = Workload::bind(&db, &stmts).unwrap();
        let e = &w.entries[0];
        assert!(e.is_update());
        let select = e.select.as_ref().unwrap();
        assert_eq!(select.projections.len(), 2);
        assert!(select.predicate.is_some());
        let shell = e.shell.as_ref().unwrap();
        // selectivity: a<10 is 10%, d<20 is 20% => 2% of 10k = 200 rows
        assert!((shell.rows - 200.0).abs() < 5.0, "rows={}", shell.rows);
        let touched = shell.touched.as_ref().unwrap();
        assert_eq!(touched.len(), 2, "columns a and c are written");
    }

    #[test]
    fn affects_tests_key_and_suffix_columns() {
        let db = test_db();
        let r = db.table_by_name("r").unwrap();
        let (a, b, c, d) = (
            r.column_id(0),
            r.column_id(1),
            r.column_id(2),
            r.column_id(3),
        );
        let shell = UpdateShell {
            table: r.id,
            touched: Some([c].into()),
            rows: 10.0,
        };
        // The answer `all_columns()` gives, without building the set.
        let via_set = |i: &Index| match &shell.touched {
            Some(cols) => i.clustered || i.all_columns().iter().any(|x| cols.contains(x)),
            None => true,
        };
        let cases = [
            (
                Index::clustered(r.id, [a]),
                true,
                "clustered stores the row",
            ),
            (Index::new(r.id, [c, a], []), true, "key hit"),
            (Index::new(r.id, [a, b], [d, c]), true, "suffix hit"),
            (Index::new(r.id, [a], [b, d]), false, "miss"),
        ];
        for (index, want, what) in &cases {
            assert_eq!(shell.affects(index), *want, "{what}");
            assert_eq!(shell.affects(index), via_set(index), "{what}");
        }
        let whole_row = UpdateShell {
            touched: None,
            ..shell.clone()
        };
        for (index, _, what) in &cases {
            assert!(whole_row.affects(index), "touched: None, {what}");
        }
        // Another table's index is never maintained by this shell.
        let mut other = Database::builder("o");
        other.add_table("x", 1.0, vec![r.columns[0].clone()], vec![]);
        other.add_table("y", 1.0, vec![r.columns[0].clone()], vec![]);
        let y = other.build().table_by_name("y").unwrap().id;
        assert!(!whole_row.affects(&Index::new(y, [ColumnId::new(y, 0)], [])));
    }

    #[test]
    fn shell_affects_only_indexes_on_written_columns() {
        let db = test_db();
        let stmts = parse_workload("UPDATE r SET a = 1 WHERE b < 5").unwrap();
        let w = Workload::bind(&db, &stmts).unwrap();
        let shell = w.entries[0].shell.as_ref().unwrap();
        let t = db.table_by_name("r").unwrap();
        let on_a = Index::new(t.id, [t.column_id(0)], []);
        let on_b = Index::new(t.id, [t.column_id(1)], []);
        let on_b_with_a = Index::new(t.id, [t.column_id(1)], [t.column_id(0)]);
        let clustered = Index::clustered(t.id, [t.column_id(3)]);
        assert!(shell.affects(&on_a));
        assert!(!shell.affects(&on_b));
        assert!(shell.affects(&on_b_with_a), "suffix column a is written");
        assert!(shell.affects(&clustered), "row store always touched");
    }

    #[test]
    fn insert_and_delete_touch_everything() {
        let db = test_db();
        let stmts = parse_workload(
            "INSERT INTO r (a, b, c, d) VALUES (1, 2, 3, 4); DELETE FROM r WHERE a = 1",
        )
        .unwrap();
        let w = Workload::bind(&db, &stmts).unwrap();
        assert!(w.has_updates());
        let ins = w.entries[0].shell.as_ref().unwrap();
        assert_eq!(ins.rows, 1.0);
        assert!(ins.touched.is_none());
        assert!(w.entries[0].select.is_none());
        let del = w.entries[1].shell.as_ref().unwrap();
        assert!(del.touched.is_none());
        assert!(w.entries[1].select.is_some(), "delete needs row location");
        assert!((del.rows - 100.0).abs() < 5.0, "1% of 10k: {}", del.rows);
    }

    #[test]
    fn identical_statements_fold_into_one_weighted_entry() {
        let db = test_db();
        let stmts = parse_workload(
            "SELECT r.a FROM r WHERE r.b < 3;\
             SELECT r.c FROM r;\
             SELECT r.a FROM r WHERE r.b < 3;\
             SELECT r.a FROM r WHERE r.b < 3",
        )
        .unwrap();
        let w = Workload::bind(&db, &stmts).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w.deduped, 2);
        assert_eq!(w.entries[0].weight, 3.0, "weights merged");
        assert_eq!(w.entries[1].weight, 1.0);
        // Order preserved: the survivor sits at the first occurrence.
        assert_eq!(w.entries[0].statement.to_string(), stmts[0].to_string());

        // Distinct statements are untouched.
        let w2 = Workload::bind(
            &db,
            &parse_workload("SELECT r.a FROM r; SELECT r.b FROM r").unwrap(),
        )
        .unwrap();
        assert_eq!(w2.len(), 2);
        assert_eq!(w2.deduped, 0);
    }

    #[test]
    fn select_only_workload_has_no_updates() {
        let db = test_db();
        let stmts = parse_workload("SELECT r.a FROM r WHERE r.b < 3").unwrap();
        let w = Workload::bind(&db, &stmts).unwrap();
        assert!(!w.has_updates());
        assert!(w.written_tables().is_empty());
        assert_eq!(w.len(), 1);
    }
}
