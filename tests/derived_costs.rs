//! Property tests for derived what-if costing: across hundreds of
//! seeded random schemas, workloads, and budgets, the
//! derived engine (relevant-structure cache keys + atomic-configuration
//! plan reuse) must be **byte-identical** to the reference engine
//! (`SessionCtl::reference = Some(Reference::Costs)`, which backs every
//! derived serve with a real optimizer invocation and uses the fresh
//! answer) — same report, same JSONL trace, same counters.
//!
//! A separate property pins the soundness obligation the whole layer
//! rests on: the per-query relevant set must be a superset of the
//! structures any plan the optimizer produces actually uses.

use pdtune::opt::{plan_footprint, Optimizer};
use pdtune::physical::Configuration;
use pdtune::trace::Tracer;
use pdtune::tuner::derived::{sorted_subset, RelevanceTable};
use pdtune::tuner::{tune_session, Reference, SessionCtl, TunerOptions, TuningReport, Workload};
use pdtune::workloads::bench::{bench_database, bench_workload, BenchParams};
use pdtune::workloads::{tpch, updates};

struct Case {
    seed: u64,
    update_ratio: f64,
    /// Budget as a multiple of the base configuration size; `None` is
    /// a one-byte (unreachable) budget that forces the deepest
    /// relaxation chain — maximal cache churn and plan-reuse pressure.
    budget_factor: Option<f64>,
    with_views: bool,
    validate_bounds: bool,
}

/// Debug-format a traced report with the wall-clock fields zeroed
/// (total `elapsed` plus the per-phase roll-ups), so two runs compare
/// byte-for-byte.
fn fingerprint(report: &TuningReport) -> String {
    let mut r = report.clone();
    r.elapsed = std::time::Duration::ZERO;
    if let Some(t) = &mut r.trace {
        for p in &mut t.phases {
            p.elapsed = std::time::Duration::ZERO;
        }
        t.hot_phases.clear();
    }
    format!("{r:#?}")
}

/// A traced session under the engine everyone runs (`None`) or the
/// costing oracle.
fn traced(
    db: &pdtune::catalog::Database,
    workload: &Workload,
    options: &TunerOptions,
    reference: Option<Reference>,
) -> (TuningReport, String) {
    let tracer = Tracer::new();
    let ctl = SessionCtl {
        tracer: Some(&tracer),
        reference,
        ..SessionCtl::default()
    };
    let report = tune_session(db, workload, options, ctl).expect("no checkpoint involved");
    (report, tracer.to_jsonl())
}

fn run_case(case: &Case, reference: Option<Reference>) -> (TuningReport, String) {
    let p = BenchParams {
        name: format!("derived-{}", case.seed),
        tables: 2 + (case.seed % 2) as usize,
        max_columns: 4 + (case.seed % 4) as usize,
        max_rows: 2e4 + 1e4 * (case.seed % 7) as f64,
        seed: case.seed,
    };
    let db = bench_database(&p);
    let mut spec = bench_workload(&db, case.seed ^ 0x0DE5, 3 + (case.seed % 3) as usize);
    if case.update_ratio > 0.0 {
        spec = updates::with_updates(&db, &spec, case.update_ratio, case.seed);
    }
    let workload = Workload::bind(&db, &spec.statements).expect("bench workload binds");
    let budget = match case.budget_factor {
        Some(f) => Configuration::base(&db).size_bytes(&db) * f,
        None => 1.0,
    };
    let options = TunerOptions {
        space_budget: Some(budget),
        max_iterations: 12,
        with_views: case.with_views,
        validate_bounds: case.validate_bounds,
        ..TunerOptions::default()
    };
    traced(&db, &workload, &options, reference)
}

fn cases() -> Vec<Case> {
    // 200 seeded cases: select-only and update mixes, reachable and
    // unreachable budgets, with and without views, with and without
    // the bound oracle.
    (0..200u64)
        .map(|seed| Case {
            seed,
            update_ratio: match seed % 3 {
                0 => 0.0,
                1 => 0.25,
                _ => 0.5,
            },
            budget_factor: if seed % 5 == 4 {
                None // unreachable: deepest chains
            } else {
                Some(1.05 + 0.1 * (seed % 6) as f64)
            },
            with_views: seed % 2 == 0,
            validate_bounds: seed % 8 == 3,
        })
        .collect()
}

#[test]
fn derived_is_byte_identical_to_reference_across_random_cases() {
    let (mut avoided_total, mut plan_hit_total) = (0u64, 0u64);
    for case in cases() {
        let (rd, td) = run_case(&case, None);
        let (rr, tr) = run_case(&case, Some(Reference::Costs));
        assert_eq!(
            td, tr,
            "seed {} (updates {}, budget {:?}, views {}, oracle {}): \
             trace diverged between derived and reference",
            case.seed, case.update_ratio, case.budget_factor, case.with_views, case.validate_bounds,
        );
        assert_eq!(
            fingerprint(&rd),
            fingerprint(&rr),
            "seed {}: report diverged between derived and reference",
            case.seed,
        );
        avoided_total += rd.optimizer_calls_avoided;
        plan_hit_total += rd.plan_cache_hits;
    }
    // The sweep must actually exercise the derived machinery, not
    // vacuously pass on searches where every key is a coarse hit.
    assert!(
        avoided_total > 100,
        "only {avoided_total} optimizer calls avoided across the sweep"
    );
    assert!(
        plan_hit_total > 0,
        "no plan was ever repriced across the sweep"
    );
}

fn tpch_session(reference: Option<Reference>) -> (TuningReport, String) {
    let db = tpch::tpch_database(0.01);
    let spec = tpch::tpch_workload_variant(5, 6);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    let budget = Configuration::base(&db).size_bytes(&db) * 1.15;
    // Indexes only: views are pinned for every query that can see
    // them, which suppresses the beyond-coarse serving this test must
    // exercise (the mode comparison holds either way).
    let options = TunerOptions {
        space_budget: Some(budget),
        max_iterations: 30,
        with_views: false,
        ..TunerOptions::default()
    };
    traced(&db, &w, &options, reference)
}

/// The reference engine reproduces the TPC-H session's trace and
/// report byte for byte.
#[test]
fn tpch_traces_are_identical_across_modes() {
    let (baseline_report, baseline_trace) = tpch_session(None);
    let (r, t) = tpch_session(Some(Reference::Costs));
    assert_eq!(
        baseline_trace, t,
        "trace diverged under the reference engine"
    );
    assert_eq!(
        fingerprint(&baseline_report),
        fingerprint(&r),
        "report diverged under the reference engine"
    );
    assert!(
        baseline_report.optimizer_calls_avoided > 0,
        "the TPC-H session never served a beyond-coarse hit"
    );
}

/// The soundness obligation of the whole layer: every structure a plan
/// uses must be in the query's relevant set, for every configuration
/// the search could visit. Exercised over seeded schemas with the full
/// cross product of single-column indexes (clustered and not, covering
/// suffixes and not) plus the instrumentation-derived optimal
/// configuration.
#[test]
fn relevant_sets_cover_every_plan_footprint() {
    for seed in 0..24u64 {
        let p = BenchParams {
            name: format!("relevance-{seed}"),
            tables: 2 + (seed % 2) as usize,
            max_columns: 4 + (seed % 3) as usize,
            max_rows: 3e4,
            seed,
        };
        let db = bench_database(&p);
        let spec = bench_workload(&db, seed ^ 0xF00, 4);
        let w = Workload::bind(&db, &spec.statements).unwrap();
        let rt = RelevanceTable::build(&db, &w);

        let mut configs = vec![Configuration::base(&db)];
        let (optimal, _) = pdtune::tuner::gather_optimal_configuration(&db, &w, seed % 2 == 0);
        configs.push(optimal);
        // Single- and two-column indexes over every table, layered onto
        // the base configuration a few at a time.
        let mut layered = Configuration::base(&db);
        for t in db.tables() {
            for c in 0..t.columns.len().min(4) as u16 {
                let mut one = Configuration::base(&db);
                one.add_index(pdtune::physical::Index::new(t.id, [t.column_id(c)], []));
                configs.push(one);
                layered.add_index(pdtune::physical::Index::new(
                    t.id,
                    [t.column_id(c)],
                    [t.column_id((c + 1) % t.columns.len() as u16)],
                ));
            }
        }
        configs.push(layered);

        let opt = Optimizer::new(&db);
        for config in &configs {
            for (i, entry) in w.entries.iter().enumerate() {
                let Some(q) = &entry.select else { continue };
                let plan = opt.optimize(config, q);
                let footprint = plan_footprint(&plan.index_usages, config);
                let proj = rt.projection(i, config).expect("select entries have rows");
                assert!(
                    sorted_subset(&footprint, &proj.relevant),
                    "seed {seed} query {i}: plan uses a structure outside the \
                     relevant set\nfootprint: {footprint:x?}\nrelevant: {:x?}",
                    proj.relevant,
                );
            }
        }
    }
}
