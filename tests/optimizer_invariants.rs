//! Cross-crate optimizer invariants, exercised over the generated
//! benchmark corpora.

use pdtune::expr::Binder;
use pdtune::opt::{Op, Optimizer};
use pdtune::prelude::*;
use pdtune::tuner::instrument::gather_optimal_configuration;
use pdtune::workloads::bench::{bench_database, bench_workload, BenchParams};
use pdtune::workloads::tpch;

/// Adding physical structures must never make a plan more expensive —
/// the optimality assumption the whole paper rests on (§4.1 attributes
/// PTT's rare losses to real optimizers violating exactly this).
#[test]
fn what_if_monotonicity_across_corpus() {
    let db = bench_database(&BenchParams::default());
    let binder = Binder::new(&db);
    let opt = Optimizer::new(&db);
    let base = Configuration::base(&db);

    for seed in 0..6u64 {
        let spec = bench_workload(&db, seed, 10);
        let w = Workload::bind(&db, &spec.statements).unwrap();
        let (full, _) = gather_optimal_configuration(&db, &w, true);
        for stmt in &spec.statements {
            let bound = binder.bind(stmt).unwrap();
            let Some(q) = bound.as_select() else { continue };
            let c_base = opt.optimize(&base, q).cost;
            let c_full = opt.optimize(&full, q).cost;
            assert!(
                c_full <= c_base * 1.0001,
                "seed {seed}: richer configuration must not cost more \
                 ({c_full} > {c_base}) for {stmt}"
            );
        }
    }
}

/// The instrumented pass yields a configuration that is optimal w.r.t.
/// single-structure additions: no candidate index proposed for any
/// request improves any query further by a measurable margin.
#[test]
fn optimal_configuration_is_a_fixed_point() {
    let db = tpch::tpch_database(0.02);
    let spec = tpch::tpch_workload_variant(5, 8);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    let (config, _) = gather_optimal_configuration(&db, &w, true);
    // A second instrumented pass starting from the optimal config must
    // not create any new structure that changes costs.
    let opt = Optimizer::new(&db);
    let before: f64 = w
        .entries
        .iter()
        .filter_map(|e| e.select.as_ref())
        .map(|q| opt.optimize(&config, q).cost)
        .sum();
    let mut config2 = config.clone();
    let mut sink = pdtune::tuner::OptimalSink::new(true);
    for e in &w.entries {
        if let Some(q) = &e.select {
            opt.observe_with_sink(&mut config2, q, &mut sink);
        }
    }
    let after: f64 = w
        .entries
        .iter()
        .filter_map(|e| e.select.as_ref())
        .map(|q| opt.optimize(&config2, q).cost)
        .sum();
    assert!(
        after >= before * 0.98,
        "second pass should find (almost) nothing new: {after} vs {before}"
    );
}

/// Plans report the index usages they are built from: every index
/// mentioned in the tree appears in `index_usages` and vice versa.
#[test]
fn plan_usages_match_plan_operators() {
    let db = tpch::tpch_database(0.02);
    let spec = tpch::tpch_workload();
    let binder = Binder::new(&db);
    let opt = Optimizer::new(&db);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    let (config, _) = gather_optimal_configuration(&db, &w, true);

    for stmt in &spec.statements {
        let bound = binder.bind(stmt).unwrap();
        let Some(q) = bound.as_select() else { continue };
        let plan = opt.optimize(&config, q);
        let mut tree_indexes = Vec::new();
        plan.root.walk(&mut |n| match &n.op {
            Op::IndexScan { index } | Op::IndexSeek { index, .. } => {
                tree_indexes.push(index.clone())
            }
            _ => {}
        });
        for index in &tree_indexes {
            assert!(
                plan.index_usages.iter().any(|u| &u.index == index),
                "operator index missing from usages: {index}"
            );
        }
        for usage in &plan.index_usages {
            assert!(
                tree_indexes.contains(&usage.index),
                "usage not present in tree: {}",
                usage.index
            );
        }
    }
}

/// Every TPC-H plan is finite, positive, and produces row estimates.
#[test]
fn tpch_plans_are_sane_under_all_configurations() {
    let db = tpch::tpch_database(0.02);
    let spec = tpch::tpch_workload();
    let binder = Binder::new(&db);
    let opt = Optimizer::new(&db);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    let (full, _) = gather_optimal_configuration(&db, &w, true);
    for config in [Configuration::base(&db), full] {
        for stmt in &spec.statements {
            let bound = binder.bind(stmt).unwrap();
            let Some(q) = bound.as_select() else { continue };
            let plan = opt.optimize(&config, q);
            assert!(plan.cost.is_finite() && plan.cost > 0.0, "{stmt}");
            assert!(plan.rows.is_finite() && plan.rows >= 0.0);
        }
    }
}
