//! Property tests for the §3.3.2 bound oracle: across hundreds of
//! random schemas, workloads, and budgets, running the tuner with
//! `validate_bounds` must find **zero** violations of the closed-form
//! cost upper bound, and the accepted relaxation steps must never grow
//! the configuration (the search relaxes *toward* the budget).
//!
//! These are the strongest correctness tests in the repo: every
//! accepted step re-optimizes the affected queries for real and checks
//! `cost_upper_bound >= reoptimized_cost`.

use pdtune::physical::Configuration;
use pdtune::trace::Tracer;
use pdtune::tuner::{tune_traced, TunerOptions, TuningReport, Workload};
use pdtune::workloads::bench::{bench_database, bench_workload, BenchParams};
use pdtune::workloads::updates;

struct Case {
    seed: u64,
    update_ratio: f64,
    budget_factor: f64,
    with_views: bool,
}

fn run_case(case: &Case) -> (TuningReport, Tracer) {
    let p = BenchParams {
        name: format!("prop-{}", case.seed),
        tables: 2 + (case.seed % 2) as usize,
        max_columns: 4 + (case.seed % 5) as usize,
        max_rows: 2e4 + 1e4 * (case.seed % 9) as f64,
        seed: case.seed,
    };
    let db = bench_database(&p);
    let mut spec = bench_workload(&db, case.seed ^ 0x5EED, 3 + (case.seed % 4) as usize);
    if case.update_ratio > 0.0 {
        spec = updates::with_updates(&db, &spec, case.update_ratio, case.seed);
    }
    let workload = Workload::bind(&db, &spec.statements).expect("bench workload binds");
    let base_size = Configuration::base(&db).size_bytes(&db);
    let tracer = Tracer::new();
    let report = tune_traced(
        &db,
        &workload,
        &TunerOptions {
            space_budget: Some(base_size * case.budget_factor),
            max_iterations: 18,
            with_views: case.with_views,
            validate_bounds: true,
            ..TunerOptions::default()
        },
        Some(&tracer),
    );
    (report, tracer)
}

fn cases() -> Vec<Case> {
    // 240 seeded cases: select-only and update mixes, tight and loose
    // budgets, with and without views.
    let mut cases = Vec::new();
    for seed in 0..80u64 {
        cases.push(Case {
            seed,
            update_ratio: 0.0,
            budget_factor: 1.05 + 0.1 * (seed % 8) as f64,
            with_views: true,
        });
    }
    for seed in 80..160u64 {
        cases.push(Case {
            seed,
            update_ratio: 0.5,
            budget_factor: 1.1 + 0.08 * (seed % 9) as f64,
            with_views: seed % 2 == 0,
        });
    }
    for seed in 160..240u64 {
        cases.push(Case {
            seed,
            update_ratio: if seed % 3 == 0 { 0.25 } else { 0.0 },
            budget_factor: 1.02 + 0.02 * (seed % 4) as f64,
            with_views: false,
        });
    }
    cases
}

#[test]
fn bound_oracle_finds_no_violations_across_random_cases() {
    let mut checks = 0u64;
    for case in cases() {
        let (report, _) = run_case(&case);
        assert!(
            report.bound_violations.is_empty(),
            "seed {} (updates {}, budget x{:.2}, views {}): §3.3.2 violated: {:?}",
            case.seed,
            case.update_ratio,
            case.budget_factor,
            case.with_views,
            report.bound_violations
        );
        checks += report.bound_checks;
    }
    // The sweep must actually exercise the oracle, not vacuously pass.
    assert!(checks > 500, "only {checks} oracle checks across the sweep");
}

#[test]
fn accepted_steps_never_grow_select_only_configurations() {
    // For SELECT-only workloads every useful relaxation trades time for
    // space, so each accepted step's configuration must be no larger
    // than its parent's (tolerance: one byte per rounding site).
    for seed in 0..40u64 {
        let case = Case {
            seed,
            update_ratio: 0.0,
            budget_factor: 1.05 + 0.15 * (seed % 6) as f64,
            with_views: true,
        };
        let (_, tracer) = run_case(&case);
        for line in tracer.to_jsonl().lines() {
            let event = pdtune::trace::json::parse(line).expect("valid JSONL");
            if event.get("kind").and_then(|k| k.as_str()) != Some("search.step") {
                continue;
            }
            let parent = event.get("parent_size").and_then(|v| v.as_f64()).unwrap();
            let size = event.get("size").and_then(|v| v.as_f64()).unwrap();
            assert!(
                size <= parent * (1.0 + 1e-6) + 1.0,
                "seed {seed}: accepted step grew the configuration: {parent} -> {size}"
            );
        }
    }
}

#[test]
fn validate_bounds_does_not_change_the_recommendation() {
    // The oracle is observational: with it on, evaluations run to
    // completion instead of shortcut-aborting, but every search
    // decision must be identical.
    for seed in [3u64, 17, 42] {
        let p = BenchParams {
            name: "prop-neutral".into(),
            tables: 3,
            max_columns: 6,
            max_rows: 5e4,
            seed,
        };
        let db = bench_database(&p);
        let spec = bench_workload(&db, seed, 5);
        let workload = Workload::bind(&db, &spec.statements).unwrap();
        let budget = Some(Configuration::base(&db).size_bytes(&db) * 1.2);
        let run = |validate: bool| {
            let mut r = pdtune::tuner::tune(
                &db,
                &workload,
                &TunerOptions {
                    space_budget: budget,
                    max_iterations: 15,
                    validate_bounds: validate,
                    ..TunerOptions::default()
                },
            );
            // The oracle legitimately adds optimizer work and cache
            // traffic; everything else must match.
            r.elapsed = std::time::Duration::ZERO;
            r.optimizer_calls = 0;
            r.cache_hits = 0;
            r.cache_misses = 0;
            r.bound_checks = 0;
            format!("{r:#?}")
        };
        assert_eq!(
            run(false),
            run(true),
            "seed {seed}: oracle changed the search"
        );
    }
}
