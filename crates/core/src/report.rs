//! Human-readable rendering of tuning results: the recommended DDL
//! (used by the CLI, the daemon's `report.txt` and the examples).

use pdt_catalog::Database;
use pdt_physical::{Configuration, Index};
use std::fmt::Write;

/// Render an index as a `CREATE INDEX` statement. Indexes over views
/// reference the view by its generated name `mv<N>`.
pub fn index_ddl(db: &Database, index: &Index) -> String {
    let (table_name, col_name): (String, Box<dyn Fn(u16) -> String>) = if index.table.is_view() {
        let view = index.table;
        (format!("mv{}", view.0 - pdt_catalog::TableId::VIEW_BASE), {
            Box::new(move |ordinal| format!("col{ordinal}"))
        })
    } else {
        let t = db.table(index.table);
        let name = t.name.clone();
        let cols: Vec<String> = t.columns.iter().map(|c| c.name.clone()).collect();
        (
            name,
            Box::new(move |ordinal| cols[ordinal as usize].clone()),
        )
    };
    let keys: Vec<String> = index.key.iter().map(|c| col_name(c.ordinal)).collect();
    let mut ddl = format!(
        "CREATE {}INDEX ix_{}_{} ON {} ({})",
        if index.clustered { "CLUSTERED " } else { "" },
        table_name,
        index.short_id() % 10_000,
        table_name,
        keys.join(", "),
    );
    if !index.suffix.is_empty() {
        let inc: Vec<String> = index.suffix.iter().map(|c| col_name(c.ordinal)).collect();
        let _ = write!(ddl, " INCLUDE ({})", inc.join(", "));
    }
    ddl
}

/// Render a whole configuration as DDL, skipping the structures already
/// present in `existing` (typically the base configuration).
pub fn configuration_ddl(
    db: &Database,
    config: &Configuration,
    existing: &Configuration,
) -> Vec<String> {
    let mut out = Vec::new();
    for view in config.views() {
        out.push(format!(
            "CREATE MATERIALIZED VIEW mv{} AS {};",
            view.id.0 - pdt_catalog::TableId::VIEW_BASE,
            view.def.to_sql(db)
        ));
    }
    for index in config.indexes() {
        if existing.contains_index(index) {
            continue;
        }
        out.push(format!("{};", index_ddl(db, index)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt_catalog::{ColumnId, ColumnStats, ColumnType, TableId};

    fn test_db() -> Database {
        let mut b = Database::builder("t");
        let mk = |name: &str| pdt_catalog::Column {
            name: name.into(),
            ty: ColumnType::Int,
            stats: ColumnStats::uniform(100.0, 0.0, 100.0, 4.0),
        };
        b.add_table("r", 100_000.0, vec![mk("id"), mk("a"), mk("b")], vec![0]);
        b.build()
    }

    #[test]
    fn index_ddl_renders_key_and_include() {
        let db = test_db();
        let t = db.table_by_name("r").unwrap();
        let ix = Index::new(t.id, [t.column_id(1)], [t.column_id(2)]);
        let ddl = index_ddl(&db, &ix);
        assert!(ddl.contains("ON r (a)"), "{ddl}");
        assert!(ddl.contains("INCLUDE (b)"), "{ddl}");
        let ci = Index::clustered(t.id, [t.column_id(0)]);
        assert!(index_ddl(&db, &ci).contains("CLUSTERED"));
    }

    #[test]
    fn view_index_ddl_uses_view_naming() {
        let db = test_db();
        let vid = TableId(TableId::VIEW_BASE + 3);
        let ix = Index::new(vid, [ColumnId::new(vid, 0)], []);
        let ddl = index_ddl(&db, &ix);
        assert!(ddl.contains("mv3"), "{ddl}");
        assert!(ddl.contains("col0"), "{ddl}");
    }

    #[test]
    fn configuration_ddl_skips_existing() {
        let db = test_db();
        let base = Configuration::base(&db);
        let mut config = base.clone();
        let t = db.table_by_name("r").unwrap();
        config.add_index(Index::new(t.id, [t.column_id(1)], []));
        let ddl = configuration_ddl(&db, &config, &base);
        assert_eq!(ddl.len(), 1, "{ddl:?}");
        assert!(ddl[0].contains("ON r (a)"));
    }
}
