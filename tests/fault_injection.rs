//! Property sweep over the deterministic fault injector: for any seed
//! and rate, injected panics and poisoned cache entries must be
//! contained (no panic escapes `tune`), recorded in the report, and —
//! because injection decisions are pure functions of logical
//! coordinates — the faulted report must stay byte-identical from run
//! to run.

use std::sync::Once;

use pdtune::prelude::*;
use pdtune::tuner::FaultKind;
use pdtune::workloads::{tpch, updates};

/// Keep the default panic hook from spraying "thread panicked" noise
/// for the panics this suite injects on purpose.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("injected fault:"));
            if !injected {
                prev(info);
            }
        }));
    });
}

fn run_faulted(seed: u64, rate: f64, max_faults: usize) -> TuningReport {
    quiet_injected_panics();
    let db = tpch::tpch_database(0.01);
    let spec = updates::with_updates(&db, &tpch::tpch_workload_variant(7, 6), 0.5, 7);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    tune(
        &db,
        &w,
        &TunerOptions {
            space_budget: Some(24.0 * 1024.0 * 1024.0),
            max_iterations: 20,
            fault_plan: Some(FaultPlan { seed, rate }),
            max_faults,
            ..TunerOptions::default()
        },
    )
}

fn fingerprint(report: &TuningReport) -> String {
    let mut r = report.clone();
    r.elapsed = std::time::Duration::ZERO;
    format!("{r:#?}")
}

/// Every faulted run is contained: it converges or runs out of
/// iterations with a recommendation. (The name is kept so the suite's
/// test ids stay stable; sessions are single-threaded, and run-to-run
/// identity of faulted reports is `fault_records_are_deterministic`.)
#[test]
fn faulted_runs_are_contained_and_thread_count_invariant() {
    for seed in [1, 9] {
        for rate in [0.02, 0.1, 0.3] {
            let baseline = run_faulted(seed, rate, usize::MAX);
            assert!(
                matches!(
                    baseline.stop_reason,
                    StopReason::Converged | StopReason::IterationBudget
                ),
                "seed={seed} rate={rate}: unexpected stop {:?}",
                baseline.stop_reason
            );
            assert!(
                baseline.best.is_some(),
                "seed={seed} rate={rate}: faulted run lost its recommendation"
            );
        }
    }
}

#[test]
fn higher_rates_record_more_faults() {
    let low = run_faulted(5, 0.02, usize::MAX);
    let high = run_faulted(5, 0.6, usize::MAX);
    assert!(
        high.faults.len() > low.faults.len(),
        "rate 0.6 produced {} faults, rate 0.02 produced {}",
        high.faults.len(),
        low.faults.len()
    );
    // A heavy storm exercises both fault kinds.
    assert!(
        high.faults.iter().any(|f| f.kind == FaultKind::EvalPanic),
        "{:?}",
        high.faults
    );
}

#[test]
fn fault_storm_trips_the_limit_but_still_reports() {
    let report = run_faulted(3, 1.0, 2);
    assert_eq!(report.stop_reason, StopReason::FaultLimit);
    assert!(
        report.faults.len() > 2,
        "limit 2 should only trip past 2 faults: {:?}",
        report.faults
    );
    // Anytime contract: even an aborted session hands back a complete
    // report with the best configuration found so far.
    assert!(report.best.is_some());
    assert!(report.initial_cost > 0.0);
}

#[test]
fn fault_records_are_deterministic() {
    let a = run_faulted(11, 0.4, usize::MAX);
    let b = run_faulted(11, 0.4, usize::MAX);
    assert_eq!(a.faults, b.faults);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert!(
        a.faults.iter().all(|f| !f.detail.is_empty()),
        "fault events must carry context: {:?}",
        a.faults
    );
}

#[test]
fn zero_rate_plan_changes_nothing() {
    let clean = run_faulted(7, 0.0, usize::MAX);
    assert!(clean.faults.is_empty(), "{:?}", clean.faults);
    let db = tpch::tpch_database(0.01);
    let spec = updates::with_updates(&db, &tpch::tpch_workload_variant(7, 6), 0.5, 7);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    let unplanned = tune(
        &db,
        &w,
        &TunerOptions {
            space_budget: Some(24.0 * 1024.0 * 1024.0),
            max_iterations: 20,
            ..TunerOptions::default()
        },
    );
    assert_eq!(fingerprint(&clean), fingerprint(&unplanned));
}
