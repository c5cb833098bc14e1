//! Trace/report reconciliation: the JSONL event stream and the named
//! counters must agree with the `TuningReport` the same session
//! returned — the trace is the report's audit log, not a parallel
//! universe.

use pdtune::physical::Configuration;
use pdtune::trace::{json, Tracer};
use pdtune::tuner::{tune_traced, TunerOptions, TuningReport, Workload};
use pdtune::workloads::bench::{bench_database, bench_workload, BenchParams};
use pdtune::workloads::tpch;

fn traced_tune(validate: bool) -> (TuningReport, Tracer) {
    let db = tpch::tpch_database(0.01);
    let spec = tpch::tpch_workload_variant(5, 6);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    let tracer = Tracer::new();
    // A budget barely above the base size forces the search to actually
    // relax (the optimal configuration cannot fit), so the trace
    // contains accepted `search.step` events.
    let budget = Configuration::base(&db).size_bytes(&db) * 1.15;
    let report = tune_traced(
        &db,
        &w,
        &TunerOptions {
            space_budget: Some(budget),
            max_iterations: 30,
            validate_bounds: validate,
            ..TunerOptions::default()
        },
        Some(&tracer),
    );
    (report, tracer)
}

#[test]
fn counters_reconcile_with_the_report() {
    let (report, tracer) = traced_tune(true);
    assert_eq!(
        tracer.counter("optimizer.calls"),
        report.optimizer_calls as u64,
        "every optimizer invocation must be counted exactly once"
    );
    assert_eq!(tracer.counter("cache.hits"), report.cache_hits);
    assert_eq!(tracer.counter("cache.misses"), report.cache_misses);
    assert_eq!(
        tracer.counter("search.iterations"),
        report.iterations as u64
    );
    assert_eq!(tracer.counter("oracle.checks"), report.bound_checks);
    assert_eq!(
        tracer.counter("oracle.violations"),
        report.bound_violations.len() as u64
    );
    assert_eq!(
        tracer.counter("candidates.generated"),
        report.candidates_generated
    );
    assert_eq!(
        tracer.counter("candidates.reused"),
        report.candidates_reused
    );
    assert_eq!(
        tracer.counter("optimizer.calls_avoided"),
        report.optimizer_calls_avoided
    );
    assert_eq!(tracer.counter("plan_cache.hits"), report.plan_cache_hits);
    assert_eq!(
        tracer.counter("plan_cache.misses"),
        report.plan_cache_misses
    );
    assert_eq!(
        tracer.counter("plan_cache.repriced"),
        report.plan_cache_repriced
    );
    assert_eq!(tracer.counter("workload.deduped"), report.workload_deduped);
    assert!(report.bound_checks > 0, "the oracle must have run");
    assert!(
        report.candidates_generated > 0,
        "the search must have scored candidates"
    );
    // The report embeds the same roll-up the tracer reports.
    let summary = report.trace.as_ref().expect("traced run records summary");
    assert_eq!(
        summary.counter("optimizer.calls"),
        report.optimizer_calls as u64
    );
    assert_eq!(summary.events, tracer.len());
}

#[test]
fn jsonl_is_valid_and_densely_sequenced() {
    let (_, tracer) = traced_tune(false);
    let jsonl = tracer.to_jsonl();
    let mut n = 0i64;
    let mut kinds: Vec<String> = Vec::new();
    for line in jsonl.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {n}: {e}\n{line}"));
        assert_eq!(
            v.get("seq").and_then(json::Json::as_i64),
            Some(n),
            "seq must be dense from 0"
        );
        let kind = v
            .get("kind")
            .and_then(|k| k.as_str())
            .expect("every event has a kind");
        kinds.push(kind.to_string());
        let depth = v.get("depth").and_then(json::Json::as_i64).unwrap();
        assert!(depth >= 0);
        n += 1;
    }
    assert!(n > 10, "a tuning session emits a real event stream");
    // The canonical session shape is present.
    for expected in ["session.begin", "span.begin", "search.step", "span.end"] {
        assert!(
            kinds.iter().any(|k| k == expected),
            "missing event kind {expected}"
        );
    }
}

#[test]
fn search_steps_reconcile_with_the_frontier() {
    let (report, tracer) = traced_tune(false);
    let steps = tracer
        .to_jsonl()
        .lines()
        .filter(|l| {
            json::parse(l)
                .ok()
                .and_then(|v| v.get("kind").and_then(|k| k.as_str()).map(String::from))
                .as_deref()
                == Some("search.step")
        })
        .count();
    // Every accepted relaxation lands one frontier point past the
    // optimal seed point, and nothing else does.
    assert_eq!(
        steps,
        report.frontier.len().saturating_sub(1),
        "search.step events vs frontier points"
    );
}

#[test]
fn baseline_counters_reconcile_too() {
    let p = BenchParams {
        name: "trace-baseline".into(),
        tables: 3,
        max_columns: 6,
        max_rows: 5e4,
        seed: 9,
    };
    let db = bench_database(&p);
    let spec = bench_workload(&db, 9, 6);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    let tracer = Tracer::new();
    let report = pdtune::baseline::BaselineAdvisor::new(&db, Default::default())
        .tune_traced(&w, Some(&tracer));
    assert_eq!(
        tracer.counter("optimizer.calls"),
        report.optimizer_calls as u64
    );
    assert_eq!(tracer.counter("cache.hits"), report.cache_hits);
    assert_eq!(tracer.counter("cache.misses"), report.cache_misses);
    // The progress trace is seeded with the initial (empty-config)
    // point; every further point is one greedy addition.
    assert_eq!(
        tracer.counter("baseline.additions"),
        report.progress.len().saturating_sub(1) as u64
    );
    let summary = report.trace.as_ref().expect("summary recorded");
    assert_eq!(summary.events, tracer.len());
}

#[test]
fn session_begin_records_the_options() {
    let db = bench_database(&BenchParams {
        name: "trace-opts".into(),
        tables: 2,
        max_columns: 5,
        max_rows: 2e4,
        seed: 4,
    });
    let spec = bench_workload(&db, 4, 4);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    let budget = Configuration::base(&db).size_bytes(&db) * 1.3;
    let tracer = Tracer::new();
    tune_traced(
        &db,
        &w,
        &TunerOptions {
            space_budget: Some(budget),
            max_iterations: 8,
            validate_bounds: true,
            threads: 2,
            ..TunerOptions::default()
        },
        Some(&tracer),
    );
    let first = tracer.to_jsonl().lines().next().unwrap().to_string();
    let v = json::parse(&first).unwrap();
    assert_eq!(
        v.get("kind").and_then(|k| k.as_str()),
        Some("session.begin")
    );
    assert_eq!(v.get("entries").and_then(json::Json::as_i64), Some(4));
    assert_eq!(v.get("validate_bounds"), Some(&json::Json::Bool(true)));
    // Run-environment knobs (thread count, pure-perf mode flags) must
    // NOT be in the stream, or traces could never be compared across
    // machines and modes.
    assert_eq!(v.get("threads"), None);
    assert_eq!(v.get("derived_costs"), None);
    assert_eq!(v.get("budget").and_then(json::Json::as_f64), Some(budget));
}
