//! The §3.5 pre-pass floor (DESIGN.md §13, "The floor"). On a workload
//! without update shells no removal can score a ΔT below zero, so a
//! pre-pass step stops scoring removals at the first one that scores
//! exactly `0.0`: it is already the first strict minimum.
//!
//! Every session here runs with `validate_bounds`, so each step that
//! stops at its floor prices the removals it left unscored from scratch
//! and asserts that none scores below the floor and that their carried
//! ingredients still equal a fresh pricing — in a release build too.
//! The select-only sessions cross four schemas with views on and off,
//! the call budget on and off, and the from-scratch candidate engine
//! (`Reference::Candidates`), whose bytes must equal the incremental
//! engine's. The update sessions have no floor: a floor that ignored
//! their shells would stop a step before a removal that lowers the cost,
//! and the assertion would catch it.

use pdtune::physical::Configuration;
use pdtune::serve::JobSpec;
use pdtune::trace::Tracer;
use pdtune::tuner::{
    gather_optimal_configuration, tune_session, Reference, SessionCtl, TunerOptions, TuningReport,
};

/// One traced, validated session of `spec`, its budget `spec.budget`
/// or, without one, 10 % of the way from the base configuration to the
/// §2 optimal one.
fn session(
    spec: &JobSpec,
    call_budget: Option<usize>,
    reference: Option<Reference>,
) -> (TuningReport, String) {
    let db = spec.build_database().unwrap();
    let workload = spec.build_workload(&db).unwrap();
    let with_views = !spec.indexes_only;
    let budget = spec.budget.unwrap_or_else(|| {
        let (optimal, _) = gather_optimal_configuration(&db, &workload, with_views);
        let base = Configuration::base(&db).size_bytes(&db);
        base + 0.1 * (optimal.size_bytes(&db) - base)
    });
    let options = TunerOptions {
        space_budget: Some(budget),
        max_iterations: spec.iterations,
        with_views,
        optimizer_call_budget: call_budget,
        validate_bounds: true,
        ..TunerOptions::default()
    };
    let tracer = Tracer::new();
    let ctl = SessionCtl {
        tracer: Some(&tracer),
        reference,
        ..SessionCtl::default()
    };
    let report = tune_session(&db, &workload, &options, ctl).expect("no checkpoint involved");
    (report, tracer.to_jsonl())
}

/// The report's `{:#?}` with its clocks zeroed.
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

/// The pre-pass steps of a trace, and how many of them removed a
/// structure at ΔT = 0.0.
fn prepass_steps(trace: &str) -> (usize, usize) {
    let deltas: Vec<f64> = trace
        .lines()
        .map(|line| pdtune::trace::json::parse(line).expect("valid JSONL"))
        .filter(|e| e.get("kind").and_then(|v| v.as_str()) == Some("prepass.remove"))
        .map(|e| e.get("delta_t").and_then(|v| v.as_f64()).expect("a ΔT"))
        .collect();
    let at_zero = deltas.iter().filter(|d| **d == 0.0).count();
    (deltas.len(), at_zero)
}

#[test]
fn select_only_pre_passes_stop_at_the_floor_and_keep_their_bytes() {
    let (mut steps, mut at_zero) = (0, 0);
    for (k, (db, queries)) in [("ds1", 8), ("ds2", 8), ("bench", 10), ("tpch", 8)]
        .into_iter()
        .enumerate()
    {
        for views in [true, false] {
            for call_budget in [None, Some(24)] {
                let spec = JobSpec {
                    db: db.into(),
                    sf: 0.02,
                    queries: Some(queries),
                    seed: 3 * k as u64 + u64::from(views) + 1,
                    indexes_only: !views,
                    iterations: 30,
                    ..JobSpec::default()
                };
                let label = format!(
                    "{db} seed {} views {views} calls {call_budget:?}",
                    spec.seed
                );
                let (report, trace) = session(&spec, call_budget, None);
                let (scratch_report, scratch_trace) =
                    session(&spec, call_budget, Some(Reference::Candidates));
                assert!(
                    trace == scratch_trace,
                    "{label}: the from-scratch engine's trace differs"
                );
                assert_eq!(
                    fingerprint(&report),
                    fingerprint(&scratch_report),
                    "{label}: the from-scratch engine's report differs"
                );
                let (s, z) = prepass_steps(&trace);
                steps += s;
                at_zero += z;
            }
        }
    }
    eprintln!("{at_zero} of {steps} pre-pass steps removed at ΔT = 0");
    // The sweep must reach the floor often, not pass vacuously.
    assert!(
        at_zero >= 100 && at_zero * 2 >= steps,
        "only {at_zero} of {steps} pre-pass steps removed at ΔT = 0"
    );
}

/// Update shells take the floor away: a removal can then lower the
/// bound, and every removal is scored. These sessions' pre-passes drop
/// structures whose maintenance outweighs their benefit (ΔT < 0).
#[test]
fn update_sessions_score_every_removal() {
    let specs = [
        JobSpec {
            db: "ds2".into(),
            seed: 8,
            budget: Some(600e6),
            updates: Some(0.5),
            iterations: 60,
            ..JobSpec::default()
        },
        JobSpec {
            db: "tpch".into(),
            sf: 0.01,
            queries: Some(6),
            seed: 7,
            budget: Some(24e6),
            updates: Some(0.5),
            iterations: 40,
            ..JobSpec::default()
        },
    ];
    for spec in &specs {
        session(spec, None, None);
    }
}
