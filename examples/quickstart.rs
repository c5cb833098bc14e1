//! Quickstart: tune a TPC-H-style workload with a storage budget.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pdtune::prelude::*;

fn main() {
    // 1. A database: schema + statistics (no rows are ever touched).
    let db = pdtune::workloads::tpch::tpch_database(0.05);
    println!(
        "database `{}`: {} tables, {:.1} GB of data",
        db.name,
        db.tables().len(),
        db.total_heap_bytes() / 1e9
    );

    // 2. A workload: plain SQL text, bound against the catalog.
    let spec = pdtune::workloads::tpch::tpch_workload();
    let workload = Workload::bind(&db, &spec.statements).expect("workload binds");
    println!("workload: {} statements", workload.len());

    // 3. Tune with a 256 MB budget for new structures.
    let report = tune(
        &db,
        &workload,
        &TunerOptions {
            space_budget: Some(256.0 * 1024.0 * 1024.0),
            max_iterations: 300,
            ..TunerOptions::default()
        },
    );

    // 4. Inspect the results.
    println!("\n=== tuning report ===");
    println!(
        "initial cost            : {:>12.0}  ({:.1} MB)",
        report.initial_cost,
        report.initial_size / 1e6
    );
    println!(
        "optimal (unconstrained) : {:>12.0}  ({:.1} MB, {:.1}% improvement)",
        report.optimal_cost,
        report.optimal_size / 1e6,
        report.optimal_improvement_pct()
    );
    if let Some(best) = &report.best {
        println!(
            "recommended (in budget) : {:>12.0}  ({:.1} MB, {:.1}% improvement)",
            best.cost,
            best.size_bytes / 1e6,
            report.best_improvement_pct()
        );
        println!("\nrecommended structures:");
        let base = Configuration::base(&db);
        for ddl in pdtune::tuner::configuration_ddl(&db, &best.config, &base) {
            println!("  {ddl}");
        }
    }
    println!(
        "\nsearch: {} iterations, {} optimizer calls, {:?}",
        report.iterations, report.optimizer_calls, report.elapsed
    );
}
