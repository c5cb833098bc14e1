//! An allocation ceiling over whole tuning sessions: the heap
//! allocations the calling thread makes in `tune`, on two of CI's fixed
//! session shapes. A child node inherits its parent's candidates and
//! scores as shared handles and each index's pages are computed once
//! per configuration lineage; a change that deep-copies what a child
//! inherits, or re-derives per-structure facts per use, shows here as a
//! count over its ceiling.
//!
//! The counters are the calling thread's
//! (`pdt_trace::allocation_counters`), so the test harness's other
//! threads cannot disturb a count. Release only: a debug build
//! allocates differently (assertions that cross-check the search format
//! their messages).

use pdtune::serve::JobSpec;
use pdtune::trace::allocation_counters;
use pdtune::tuner::{tune, StopToken};

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
    for (spec, ceiling) in [(&tpch, TPCH_CEILING), (&ds2, DS2_CEILING)] {
        let allocs = session_allocations(spec);
        eprintln!("{}: {allocs} allocations (ceiling {ceiling})", spec.db);
        assert!(
            allocs <= ceiling,
            "{} session allocated {allocs} times (ceiling {ceiling})",
            spec.db
        );
    }
}

/// 1.15x the TPC-H session's count (55,133) since the §2 pass walks the
/// requests instead of planning and runs the session's prepared
/// statements; 63,618 before, and 119,895 before shared candidates and
/// the page memo.
const TPCH_CEILING: u64 = 63_402;
/// 1.15x the DS2 session's count (52,087; 58,516 before the request
/// walk, 60,670 before shared candidates).
const DS2_CEILING: u64 = 59_900;
