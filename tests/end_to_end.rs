//! End-to-end integration tests: SQL text -> binder -> optimizer ->
//! tuner/baseline, across the workload generators.

use pdtune::prelude::*;
use pdtune::tuner::TransformationChoice;
use pdtune::workloads::star::{star_database, star_workload, StarParams};
use pdtune::workloads::tpch;

fn tpch_setup() -> (pdtune::catalog::Database, Workload) {
    let db = tpch::tpch_database(0.02);
    let spec = tpch::tpch_workload();
    let w = Workload::bind(&db, &spec.statements).expect("tpch binds");
    (db, w)
}

#[test]
fn unconstrained_tuning_reaches_a_large_improvement() {
    let (db, w) = tpch_setup();
    let report = tune(&db, &w, &TunerOptions::default());
    assert!(
        report.optimal_improvement_pct() > 50.0,
        "views should collapse most TPC-H aggregates: {:.1}%",
        report.optimal_improvement_pct()
    );
    // Optimal cost is a floor for everything else.
    assert!(report.optimal_cost <= report.initial_cost);
    assert!(report.lower_bound_cost <= report.optimal_cost * 1.0001);
}

#[test]
fn constrained_tuning_respects_budget_and_orders_costs() {
    let (db, w) = tpch_setup();
    let free = tune(
        &db,
        &w,
        &TunerOptions {
            with_views: false,
            ..Default::default()
        },
    );
    let budget = free.initial_size + (free.optimal_size - free.initial_size) * 0.25;
    let report = tune(
        &db,
        &w,
        &TunerOptions {
            with_views: false,
            space_budget: Some(budget),
            max_iterations: 300,
            ..Default::default()
        },
    );
    let best = report.best.as_ref().expect("found a configuration");
    assert!(best.size_bytes <= budget * 1.0001);
    assert!(
        best.cost >= report.optimal_cost * 0.999,
        "optimal is the floor"
    );
    assert!(
        best.cost <= report.initial_cost * 1.0001,
        "never worse than doing nothing"
    );
}

#[test]
fn more_budget_never_hurts() {
    let params = StarParams {
        fact_rows: 200_000.0,
        ..StarParams::ds1()
    };
    let db = star_database(&params);
    let spec = star_workload(&params, 11, 10);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    let free = tune(
        &db,
        &w,
        &TunerOptions {
            with_views: false,
            ..Default::default()
        },
    );
    let mut last = f64::INFINITY;
    for pct in [0.1, 0.3, 0.7] {
        let budget = free.initial_size + (free.optimal_size - free.initial_size) * pct;
        let r = tune(
            &db,
            &w,
            &TunerOptions {
                with_views: false,
                space_budget: Some(budget),
                max_iterations: 300,
                ..Default::default()
            },
        );
        let cost = r.best.as_ref().map(|b| b.cost).unwrap_or(f64::INFINITY);
        assert!(
            cost <= last * 1.001,
            "improvement must be monotone in budget: {cost} after {last}"
        );
        last = cost;
    }
}

#[test]
fn baseline_and_tuner_agree_on_metrics() {
    let (db, w) = tpch_setup();
    let ptt = tune(&db, &w, &TunerOptions::default());
    let ctt = BaselineAdvisor::new(&db, BaselineOptions::default()).tune(&w);
    // Same initial cost definition on both sides.
    assert!(
        (ptt.initial_cost - ctt.initial_cost).abs() / ptt.initial_cost < 1e-9,
        "{} vs {}",
        ptt.initial_cost,
        ctt.initial_cost
    );
    // Unconstrained PTT is optimal under this optimizer, so CTT cannot
    // beat it by more than rounding.
    assert!(
        ctt.best_cost >= ptt.optimal_cost * 0.999,
        "CTT {} cannot beat the optimal {}",
        ctt.best_cost,
        ptt.optimal_cost
    );
}

/// A BENCH workload with views and updates on which the bottom-up
/// baseline accepts several views, and adds indexes that join queries
/// use on one of their tables.
fn bench_views_and_updates() -> (pdtune::catalog::Database, Workload) {
    use pdtune::workloads::bench::{bench_database, bench_workload, BenchParams};
    let db = bench_database(&BenchParams {
        name: "views-updates".into(),
        tables: 5,
        max_columns: 8,
        max_rows: 5e5,
        seed: 4,
    });
    let base = bench_workload(&db, 4, 10);
    let mixed = pdtune::workloads::updates::with_updates(&db, &base, 0.5, 4);
    let w = Workload::bind(&db, &mixed.statements).unwrap();
    (db, w)
}

/// The baseline re-prices a trial only for the SELECTs that read a table
/// the candidate adds structures on, and keeps every other answer. A
/// cap at the call count of each addition ends a run right after that
/// addition, so every greedy addition is some run's last: its trial
/// must cost, bit for bit, a fresh evaluation of its configuration.
#[test]
fn baseline_trials_cost_what_a_full_evaluation_costs() {
    let (db, w) = bench_views_and_updates();
    assert!(w.entries.iter().any(|e| e.shell.is_some()));
    let opt = Optimizer::new(&db);
    let run = |max_evaluations| {
        let options = BaselineOptions {
            max_evaluations,
            ..BaselineOptions::default()
        };
        BaselineAdvisor::new(&db, options).tune(&w)
    };
    let uncapped = run(BaselineOptions::default().max_evaluations);
    assert!(uncapped.progress.len() > 5, "{:?}", uncapped.progress);
    let mut views = 0;
    for point in &uncapped.progress[1..] {
        let report = run(point.optimizer_calls);
        let fresh = pdtune::tuner::eval::evaluate_full(&db, &opt, &report.best_config, &w);
        assert_eq!(
            report.best_cost.to_bits(),
            fresh.total_cost.to_bits(),
            "trial at {} calls",
            point.optimizer_calls
        );
        views = views.max(report.best_config.view_count());
    }
    assert!(views >= 2, "the additions include views: {views}");
}

/// Adding a view candidate registers it under a fresh id, so its charge
/// is read under that id: the baseline's recommended size is its
/// configuration's, however many views it accepted.
#[test]
fn baseline_charges_each_view_its_own_index() {
    let (db, w) = bench_views_and_updates();
    let report = BaselineAdvisor::new(&db, BaselineOptions::default()).tune(&w);
    assert!(report.best_config.view_count() >= 2);
    assert_eq!(report.best_size, report.best_config.size_bytes(&db));
}

/// FNV-1a (64-bit), hand-rolled so the digest depends on the bytes
/// alone.
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        state ^= u64::from(*b);
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// The bottom-up baseline's bytes: the JSONL trace and the `{:#?}`
/// report (wall clocks zeroed, hot phases cleared) of 22 runs — TPC-H,
/// DS1 seed 3, DS2 seed 8 and BENCH seeds 0-7, each with views on and
/// off. Recorded at commit 1f5e5da, where stage 1 still planned each
/// query under a sink.
#[test]
fn baseline_bytes_golden_digest() {
    use pdtune::trace::Tracer;
    use pdtune::workloads::bench::{bench_database, bench_workload, BenchParams};
    let mut corpora = vec![tpch_setup()];
    for (p, seed) in [(StarParams::ds1(), 3u64), (StarParams::ds2(), 8)] {
        let db = star_database(&p);
        let w = Workload::bind(&db, &star_workload(&p, seed, 8).statements).unwrap();
        corpora.push((db, w));
    }
    for seed in 0..8u64 {
        let db = bench_database(&BenchParams::default());
        let w = Workload::bind(&db, &bench_workload(&db, seed, 10).statements).unwrap();
        corpora.push((db, w));
    }
    let mut digest = 0xCBF2_9CE4_8422_2325;
    for (db, w) in &corpora {
        for with_views in [true, false] {
            let options = BaselineOptions {
                with_views,
                ..BaselineOptions::default()
            };
            let tracer = Tracer::new();
            let mut report = BaselineAdvisor::new(db, options).tune_traced(w, Some(&tracer));
            report.elapsed = std::time::Duration::ZERO;
            let summary = report.trace.as_mut().expect("traced");
            for p in &mut summary.phases {
                p.elapsed = std::time::Duration::ZERO;
            }
            summary.hot_phases.clear();
            digest = fnv1a(digest, tracer.to_jsonl().as_bytes());
            digest = fnv1a(digest, format!("{report:#?}").as_bytes());
        }
    }
    assert_eq!(
        digest, GOLDEN_BASELINE_DIGEST,
        "the baseline's traces or reports moved: {digest:#018x}"
    );
}

const GOLDEN_BASELINE_DIGEST: u64 = 0x4805_DBBA_898D_E9F6;

#[test]
fn mixed_workload_recommendation_beats_both_extremes() {
    let db = tpch::tpch_database(0.02);
    let base = tpch::tpch_workload_variant(3, 8);
    let mixed = pdtune::workloads::updates::with_updates(&db, &base, 0.5, 3);
    let w = Workload::bind(&db, &mixed.statements).unwrap();
    let report = tune(
        &db,
        &w,
        &TunerOptions {
            space_budget: Some(f64::MAX),
            max_iterations: 300,
            ..Default::default()
        },
    );
    let best = report.best.as_ref().unwrap();
    // Never worse than doing nothing, never better than the bound.
    assert!(best.cost <= report.initial_cost * 1.0001);
    assert!(best.cost >= report.lower_bound_cost * 0.999);
}

#[test]
fn random_transformation_choice_is_worse_or_equal_on_average() {
    // The §3.4 penalty heuristic ablation: with the same iteration
    // budget, penalty-guided search should not lose to random choice.
    let (db, w) = tpch_setup();
    let free = tune(
        &db,
        &w,
        &TunerOptions {
            with_views: false,
            ..Default::default()
        },
    );
    let budget = free.initial_size + (free.optimal_size - free.initial_size) * 0.2;
    let mk = |choice: TransformationChoice, seed: u64| {
        tune(
            &db,
            &w,
            &TunerOptions {
                with_views: false,
                space_budget: Some(budget),
                max_iterations: 150,
                transformation_choice: choice,
                seed,
                ..Default::default()
            },
        )
        .best
        .map(|b| b.cost)
        .unwrap_or(f64::INFINITY)
    };
    let penalty = mk(TransformationChoice::Penalty, 0);
    let random_avg = (mk(TransformationChoice::Random, 1)
        + mk(TransformationChoice::Random, 2)
        + mk(TransformationChoice::Random, 3))
        / 3.0;
    assert!(
        penalty <= random_avg * 1.02,
        "penalty {penalty} should not lose to random {random_avg}"
    );
}

#[test]
fn full_tpch_tuning_validates_every_bound() {
    // The acceptance bar for the §3.3.2 oracle: a budgeted session over
    // the full TPC-H workload (plus an update mix) with the
    // differential validator on re-optimizes after every accepted step
    // and must find zero upper-bound violations.
    let db = tpch::tpch_database(0.01);
    let spec = pdtune::workloads::updates::with_updates(&db, &tpch::tpch_workload(), 0.25, 1);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    let report = tune(
        &db,
        &w,
        &TunerOptions {
            space_budget: Some(20.0 * 1024.0 * 1024.0),
            max_iterations: 50,
            validate_bounds: true,
            ..TunerOptions::default()
        },
    );
    assert!(report.bound_checks > 0, "the oracle must actually run");
    assert!(
        report.bound_violations.is_empty(),
        "§3.3.2 violated on TPC-H: {:?}",
        report.bound_violations
    );
}

#[test]
fn report_counts_are_consistent() {
    let (db, w) = tpch_setup();
    let free = tune(&db, &w, &TunerOptions::default());
    let budget = free.initial_size + (free.optimal_size - free.initial_size) * 0.3;
    let report = tune(
        &db,
        &w,
        &TunerOptions {
            space_budget: Some(budget),
            max_iterations: 60,
            ..Default::default()
        },
    );
    assert!(report.iterations <= 60);
    // Every recorded candidate count corresponds to one loop pass that
    // reached scoring; passes can also end early (exhausted node,
    // empty pool), so the count is bounded by the iterations.
    assert!(report.candidate_counts.len() <= report.iterations);
    assert!(!report.candidate_counts.is_empty());
    assert!(!report.frontier.is_empty());
    assert!(
        report.request_counts.0 > 0,
        "index requests were intercepted"
    );
    assert!(
        report.request_counts.1 > 0,
        "view requests were intercepted"
    );
    assert!(report.optimizer_calls >= w.len());
}
