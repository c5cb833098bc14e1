//! Byte-identity sweep for the cross-session shared what-if store:
//! across 200 seeded random schemas, workloads, and budgets, a session
//! running against a warm (or cold) shared store must produce a report
//! **and** JSONL trace byte-identical to its solo run — the store
//! converts real optimizer invocations into serves but never changes an
//! answer, a counter, or an event.
//!
//! In debug builds every cross-session serve is additionally
//! cross-validated against a real optimizer call inside the engine
//! (`debug_assert_eq!` on cost bits and plan usages), so this sweep
//! doubles as a purity audit of the content-addressed keys.

use pdtune::prelude::*;
use pdtune::trace::Tracer;
use pdtune::tuner::SharedInvocationStore;
use pdtune::workloads::bench::{bench_database, bench_workload, BenchParams};
use pdtune::workloads::updates;

struct Case {
    seed: u64,
    update_ratio: f64,
    /// Budget as a multiple of the base configuration size; `None` is
    /// a one-byte (unreachable) budget that forces the deepest
    /// relaxation chain.
    budget_factor: Option<f64>,
    with_views: bool,
}

/// Debug-format a traced report with the wall-clock fields zeroed, so
/// two runs compare byte-for-byte.
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

fn run_case(case: &Case, shared: Option<&SharedInvocationStore>) -> (TuningReport, String) {
    let p = BenchParams {
        name: format!("shared-{}", case.seed),
        tables: 2 + (case.seed % 2) as usize,
        max_columns: 4 + (case.seed % 4) as usize,
        max_rows: 2e4 + 1e4 * (case.seed % 7) as f64,
        seed: case.seed,
    };
    let db = bench_database(&p);
    let mut spec = bench_workload(&db, case.seed ^ 0x5A4E, 3 + (case.seed % 3) as usize);
    if case.update_ratio > 0.0 {
        spec = updates::with_updates(&db, &spec, case.update_ratio, case.seed);
    }
    let workload = Workload::bind(&db, &spec.statements).expect("bench workload binds");
    let budget = match case.budget_factor {
        Some(f) => Configuration::base(&db).size_bytes(&db) * f,
        None => 1.0,
    };
    let tracer = Tracer::new();
    let report = tune_session(
        &db,
        &workload,
        &TunerOptions {
            space_budget: Some(budget),
            max_iterations: 12,
            with_views: case.with_views,
            ..TunerOptions::default()
        },
        SessionCtl {
            tracer: Some(&tracer),
            shared_store: shared,
            ..SessionCtl::default()
        },
    )
    .expect("session succeeds");
    (report, tracer.to_jsonl())
}

fn cases() -> Vec<Case> {
    // 200 seeded cases: select-only and update mixes, reachable and
    // unreachable budgets, with and without views.
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
        })
        .collect()
}

/// The core contract: for every case, run solo (no shared store), then
/// twice against one shared store — the first shared run populates it,
/// the second serves from it warm. All three runs must be
/// byte-identical; the warm run must actually serve (non-vacuity).
#[test]
fn shared_store_is_byte_invisible_across_random_cases() {
    let mut served_any = 0u64;
    for case in cases() {
        let (r_solo, t_solo) = run_case(&case, None);
        let store = SharedInvocationStore::new(1 << 16, 1);
        let (r_cold, t_cold) = run_case(&case, Some(&store));
        let before = store.stats();
        let (r_warm, t_warm) = run_case(&case, Some(&store));
        let after = store.stats();
        for (tag, t, r) in [("cold", &t_cold, &r_cold), ("warm", &t_warm, &r_warm)] {
            assert_eq!(
                t, &t_solo,
                "seed {} (updates {}, budget {:?}, views {}): \
                 {tag} shared-store trace diverged from solo",
                case.seed, case.update_ratio, case.budget_factor, case.with_views,
            );
            assert_eq!(
                fingerprint(r),
                fingerprint(&r_solo),
                "seed {}: {tag} shared-store report diverged from solo",
                case.seed,
            );
        }
        served_any += (after.hits + after.plan_hits) - (before.hits + before.plan_hits);
    }
    assert!(
        served_any > 0,
        "the warm runs never served a single cross-session answer — the sweep is vacuous"
    );
}

/// A store populated under one schema must never serve a session on a
/// different schema, even when the query text collides: the same
/// workload generator seeded identically over two different databases
/// still byte-matches its solo runs.
#[test]
fn shared_store_namespaces_by_schema() {
    let store = SharedInvocationStore::new(1 << 12, 1);
    for seed in [3u64, 4, 5] {
        // Same case shape, different schema contents per seed; all
        // three sessions share one store.
        let case = Case {
            seed,
            update_ratio: 0.25,
            budget_factor: Some(1.25),
            with_views: true,
        };
        let (r_solo, t_solo) = run_case(&case, None);
        let (r_shared, t_shared) = run_case(&case, Some(&store));
        assert_eq!(
            t_shared, t_solo,
            "seed {seed}: trace diverged under a mixed-schema store"
        );
        assert_eq!(
            fingerprint(&r_shared),
            fingerprint(&r_solo),
            "seed {seed}: report diverged under a mixed-schema store"
        );
    }
}
