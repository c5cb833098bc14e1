//! The parallel relaxation engine must be a pure performance knob:
//! `tune()` has to produce the same report — best configuration,
//! frontier, optimizer-call count, cache counters — for every thread
//! count. Only `elapsed` may differ.

use pdtune::trace::Tracer;
use pdtune::tuner::{tune, tune_traced, TunerOptions, TuningReport, Workload};
use pdtune::workloads::{tpch, updates};

/// Debug-format a report with the wall-clock field zeroed, so two runs
/// can be compared byte-for-byte.
fn fingerprint(report: &TuningReport) -> String {
    let mut r = report.clone();
    r.elapsed = std::time::Duration::ZERO;
    format!("{r:#?}")
}

fn run(threads: usize, update_ratio: f64) -> TuningReport {
    let db = tpch::tpch_database(0.01);
    let mut spec = tpch::tpch_workload_variant(7, 6);
    if update_ratio > 0.0 {
        spec = updates::with_updates(&db, &spec, update_ratio, 7);
    }
    let w = Workload::bind(&db, &spec.statements).unwrap();
    tune(
        &db,
        &w,
        &TunerOptions {
            space_budget: Some(24.0 * 1024.0 * 1024.0),
            max_iterations: 40,
            threads,
            ..TunerOptions::default()
        },
    )
}

#[test]
fn report_is_identical_for_any_thread_count_select_only() {
    let baseline = fingerprint(&run(1, 0.0));
    for threads in [2, 8] {
        let r = fingerprint(&run(threads, 0.0));
        assert_eq!(baseline, r, "threads={threads} diverged from threads=1");
    }
}

#[test]
fn report_is_identical_for_any_thread_count_with_updates() {
    let baseline = fingerprint(&run(1, 0.5));
    for threads in [2, 8] {
        let r = fingerprint(&run(threads, 0.5));
        assert_eq!(baseline, r, "threads={threads} diverged from threads=1");
    }
}

fn run_traced(threads: usize, validate: bool) -> (TuningReport, Tracer) {
    let db = tpch::tpch_database(0.01);
    let spec = updates::with_updates(&db, &tpch::tpch_workload_variant(7, 6), 0.5, 7);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    let tracer = Tracer::new();
    let report = tune_traced(
        &db,
        &w,
        &TunerOptions {
            space_budget: Some(24.0 * 1024.0 * 1024.0),
            max_iterations: 40,
            threads,
            validate_bounds: validate,
            ..TunerOptions::default()
        },
        Some(&tracer),
    );
    (report, tracer)
}

/// Fingerprint of a traced report: besides the wall clock, the
/// per-phase `elapsed` roll-ups are the only non-deterministic data.
fn fingerprint_traced(report: &TuningReport) -> String {
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

#[test]
fn trace_is_byte_identical_for_any_thread_count() {
    let (r1, t1) = run_traced(1, false);
    let baseline_jsonl = t1.to_jsonl();
    let baseline_fp = fingerprint_traced(&r1);
    assert!(!baseline_jsonl.is_empty());
    for threads in [2, 8] {
        let (r, t) = run_traced(threads, false);
        assert_eq!(
            baseline_jsonl,
            t.to_jsonl(),
            "threads={threads}: trace stream diverged from threads=1"
        );
        assert_eq!(
            t1.summary().counters,
            t.summary().counters,
            "threads={threads}: counters diverged"
        );
        assert_eq!(
            baseline_fp,
            fingerprint_traced(&r),
            "threads={threads}: report diverged"
        );
    }
}

#[test]
fn oracle_counters_are_identical_across_threads_with_tracing() {
    // Regression for the PR-1 cache-counter commit ordering: with
    // tracing AND the bound oracle on, hit/miss and oracle counters
    // must still not depend on the thread count.
    let (r1, t1) = run_traced(1, true);
    assert!(r1.bound_checks > 0);
    assert!(r1.bound_violations.is_empty(), "{:?}", r1.bound_violations);
    for threads in [2, 8] {
        let (r, t) = run_traced(threads, true);
        assert_eq!(t1.to_jsonl(), t.to_jsonl(), "threads={threads}");
        assert_eq!(r1.cache_hits, r.cache_hits);
        assert_eq!(r1.cache_misses, r.cache_misses);
        assert_eq!(r1.bound_checks, r.bound_checks);
    }
}
