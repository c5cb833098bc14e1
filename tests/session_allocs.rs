//! An allocation ceiling over whole tuning sessions: the heap
//! allocations the calling thread makes in `tune`, on two of CI's fixed
//! session shapes and one wide select-only star session with views. A
//! child node inherits its parent's candidates and scores as shared
//! handles, each index's pages are computed once per configuration
//! lineage, and a §3.5 pre-pass step stops scoring removals at its
//! floor; a change that deep-copies what a child inherits, re-derives
//! per-structure facts per use, or prices every removal of every step,
//! shows here as a count over its ceiling.
//!
//! The counters are the calling thread's
//! (`pdt_trace::allocation_counters`), so the test harness's other
//! threads cannot disturb a count. Release only: a debug build
//! allocates differently (assertions that cross-check the search format
//! their messages).

use pdtune::physical::Configuration;
use pdtune::serve::JobSpec;
use pdtune::trace::allocation_counters;
use pdtune::tuner::{gather_optimal_configuration, tune, StopToken};

/// Allocation calls of one untraced session of `spec`; the catalog and
/// workload are built before counting.
fn session_allocations(spec: &JobSpec) -> u64 {
    let db = spec.build_database().unwrap();
    let workload = spec.build_workload(&db).unwrap();
    let options = spec.tuner_options(None, StopToken::new()).unwrap();
    let before = allocation_counters().0;
    let report = tune(&db, &workload, &options);
    let allocs = allocation_counters().0 - before;
    assert!(report.best.is_some(), "{}: a configuration fits", spec.db);
    allocs
}

/// A budget 5 % of the way from the base configuration to the §2
/// optimal one of `spec`'s workload (with views), as the benchmark's
/// `prepass_wide` sets its sessions' budgets.
fn wide_budget(spec: &JobSpec) -> f64 {
    let db = spec.build_database().unwrap();
    let workload = spec.build_workload(&db).unwrap();
    let (optimal, _) = gather_optimal_configuration(&db, &workload, true);
    let base = Configuration::base(&db).size_bytes(&db);
    base + 0.05 * (optimal.size_bytes(&db) - base)
}

#[test]
fn tuning_sessions_stay_under_their_allocation_ceilings() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: the allocation ceilings are release-build numbers");
        return;
    }
    let tpch = JobSpec {
        db: "tpch".into(),
        sf: 0.1,
        indexes_only: true,
        budget: Some(40e6),
        iterations: 300,
        ..JobSpec::default()
    };
    let ds2 = JobSpec {
        db: "ds2".into(),
        seed: 8,
        budget: Some(600e6),
        updates: Some(0.5),
        iterations: 60,
        ..JobSpec::default()
    };
    let mut wide = JobSpec {
        db: "ds1".into(),
        seed: 3,
        queries: Some(16),
        iterations: 250,
        ..JobSpec::default()
    };
    wide.budget = Some(wide_budget(&wide));
    for (spec, ceiling) in [
        (&tpch, TPCH_CEILING),
        (&ds2, DS2_CEILING),
        (&wide, WIDE_CEILING),
    ] {
        let allocs = session_allocations(spec);
        eprintln!("{}: {allocs} allocations (ceiling {ceiling})", spec.db);
        assert!(
            allocs <= ceiling,
            "{} session allocated {allocs} times (ceiling {ceiling})",
            spec.db
        );
    }
}

/// 1.15x the TPC-H session's count (54,252) since a pre-pass step stops
/// scoring removals at its floor; 55,075 before, 55,133 when the §2
/// pass began walking its requests, 63,618 before that, and 119,895
/// before shared candidates and the page memo.
const TPCH_CEILING: u64 = 62_389;
/// 1.15x the DS2 session's count (51,886: its update shells keep the
/// pre-pass floor off, and the step no longer collects its scores; 52,038
/// before, 58,516 before the request walk, 60,670 before shared
/// candidates).
const DS2_CEILING: u64 = 59_668;
/// 1.15x the wide DS1 session's count (19,444); 32,283 when every
/// pre-pass step scored every removal.
const WIDE_CEILING: u64 = 22_360;
