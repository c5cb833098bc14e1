//! Human-readable rendering of tuning results: recommended DDL and
//! session summaries (used by the CLI and the examples).

use crate::search::TuningReport;
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

/// A compact multi-line summary of a tuning session.
pub fn summarize(db: &Database, report: &TuningReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "tuning `{}`:", db.name);
    let _ = writeln!(
        out,
        "initial:  cost {:>12.0}  size {:>9.1} MB",
        report.initial_cost,
        report.initial_size / 1e6
    );
    let _ = writeln!(
        out,
        "optimal:  cost {:>12.0}  size {:>9.1} MB  ({:+.1}%)",
        report.optimal_cost,
        report.optimal_size / 1e6,
        report.optimal_improvement_pct()
    );
    match &report.best {
        Some(best) => {
            let _ = writeln!(
                out,
                "best:     cost {:>12.0}  size {:>9.1} MB  ({:+.1}%)",
                best.cost,
                best.size_bytes / 1e6,
                report.best_improvement_pct()
            );
            let _ = writeln!(
                out,
                "          {} indexes, {} materialized views",
                best.config.index_count(),
                best.config.view_count()
            );
        }
        None => {
            let _ = writeln!(out, "best:     (no configuration fits the budget)");
        }
    }
    let _ = writeln!(
        out,
        "session:  {} iterations, {} optimizer calls, {} requests intercepted, {:?}",
        report.iterations,
        report.optimizer_calls,
        report.request_counts.0 + report.request_counts.1,
        report.elapsed
    );
    if report.workload_deduped > 0 {
        let _ = writeln!(
            out,
            "workload: {} duplicate statements folded into weighted entries",
            report.workload_deduped
        );
    }
    let probes = report.cache_hits + report.cache_misses;
    if probes > 0 {
        let _ = writeln!(
            out,
            "cache:    {} hits / {} misses ({:.1}% hit rate)",
            report.cache_hits,
            report.cache_misses,
            100.0 * report.cache_hits as f64 / probes as f64
        );
    }
    if report.optimizer_calls_avoided > 0 {
        let _ = writeln!(
            out,
            "derived:  {} optimizer calls avoided beyond coarse keying",
            report.optimizer_calls_avoided
        );
    }
    let plan_probes = report.plan_cache_hits + report.plan_cache_misses;
    if plan_probes > 0 {
        let _ = writeln!(
            out,
            "plans:    {} reused / {} probes missed, {} repriced against new catalogs",
            report.plan_cache_hits, report.plan_cache_misses, report.plan_cache_repriced
        );
    }
    let scored = report.candidates_generated + report.candidates_reused;
    if scored > 0 {
        let _ = writeln!(
            out,
            "scoring:  {} candidates generated, {} reused ({:.1}x amplification)",
            report.candidates_generated,
            report.candidates_reused,
            scored as f64 / report.candidates_generated.max(1) as f64
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tune, TunerOptions, Workload};
    use pdt_catalog::{ColumnId, ColumnStats, ColumnType, TableId};
    use pdt_sql::parse_workload;

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

    #[test]
    fn summary_contains_all_sections() {
        let db = test_db();
        let w = Workload::bind(
            &db,
            &parse_workload("SELECT r.b FROM r WHERE r.a = 3").unwrap(),
        )
        .unwrap();
        let report = tune(&db, &w, &TunerOptions::default());
        let s = summarize(&db, &report);
        assert!(s.contains("initial:"));
        assert!(s.contains("optimal:"));
        assert!(s.contains("best:"));
        assert!(s.contains("session:"));
    }
}
