//! ε-quality contract for the approximate (call-budgeted) tier.
//!
//! The exact tier promises byte-identity; the budgeted tier promises a
//! two-sided *statistical* contract instead:
//!
//!  1. quality — the recommendation's final cost stays within
//!     `(1 + EPSILON)` of the exact tier's on every seed, and never
//!     worse than the do-nothing baseline (the safety floor);
//!  2. savings — across the sweep, real what-if invocations in the
//!     budget-governed phases (pre-pass + search loop) drop by at
//!     least 5x.
//!
//! Real invocations are read from the process-global optimizer
//! counter, so every measuring test serializes on a file-local lock
//! (the harness runs tests in this binary concurrently otherwise).
//! The budget-exempt setup phase (base evaluation, instrumentation,
//! optimal evaluation) is identical in both tiers; it is isolated with
//! a `max_iterations: 0` session whose pre-pass contribution is
//! subtracted back out of the delta using the trace's per-evaluation
//! call counts (pre-pass evaluations never abort in an unstopped
//! session, so the trace sum is exact).

use std::sync::{Mutex, MutexGuard};

use pdtune::opt::invocation_count;
use pdtune::prelude::*;
use pdtune::trace::{json, Tracer};
use pdtune::workloads::{tpch, updates};

/// Serializes every test that measures `invocation_count()` deltas.
/// Poison is irrelevant for a `()` guard — a panic in one test must
/// not cascade lock failures into the others.
static CALLS: Mutex<()> = Mutex::new(());

fn serialize_calls() -> MutexGuard<'static, ()> {
    CALLS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Debug builds cross-validate every derived-costing serve by re-asking
/// the optimizer (see `eval.rs`), so raw `invocation_count()` deltas
/// measure the validation oracle, not the engine. Call-count
/// assertions therefore only run in release builds; the quality and
/// determinism assertions run everywhere.
const COUNTS_ARE_REAL: bool = !cfg!(debug_assertions);

const EPSILON: f64 = 0.05;

/// Finite but never-binding call budget. Serving decisions do not
/// depend on the budget's size — only affordability checks do — so an
/// ample ceiling measures the policy's savings without conflating them
/// with exhaustion cutoffs (anytime exhaustion behavior is covered by
/// the monotonicity test below and the resume tests).
const AMPLE: usize = 10_000;

fn inputs(seed: u64) -> (pdtune::catalog::Database, Workload) {
    let db = tpch::tpch_database(0.01);
    let spec = updates::with_updates(&db, &tpch::tpch_workload_variant(seed, 6), 0.5, seed);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    (db, w)
}

fn options(budget: Option<usize>) -> TunerOptions {
    TunerOptions {
        space_budget: Some(2.0 * 1024.0 * 1024.0),
        max_iterations: 40,
        optimizer_call_budget: budget,
        ..TunerOptions::default()
    }
}

/// Sum of real optimizer calls committed inside the trace's `prepass`
/// span.
fn prepass_trace_calls(tracer: &Tracer) -> u64 {
    let mut stack: Vec<String> = Vec::new();
    let mut calls = 0u64;
    for line in tracer.to_jsonl().lines() {
        let ev = json::parse(line).expect("trace line parses");
        match ev.get("kind").and_then(|k| k.as_str()) {
            Some("span.begin") => stack.push(
                ev.get("name")
                    .and_then(|n| n.as_str())
                    .unwrap_or_default()
                    .to_string(),
            ),
            Some("span.end") => {
                stack.pop();
            }
            Some("eval.commit") if stack.last().is_some_and(|s| s == "prepass") => {
                calls += ev.get("calls").and_then(|c| c.as_i64()).unwrap_or(0) as u64;
            }
            _ => {}
        }
    }
    calls
}

/// Real invocations of the budget-exempt setup phase, identical across
/// tiers: a zero-iteration exact session's total minus its pre-pass.
fn setup_invocations(db: &pdtune::catalog::Database, w: &Workload) -> u64 {
    let tracer = Tracer::new();
    let before = invocation_count();
    let _ = tune_traced(
        db,
        w,
        &TunerOptions {
            max_iterations: 0,
            ..options(None)
        },
        Some(&tracer),
    );
    (invocation_count() - before) - prepass_trace_calls(&tracer)
}

/// The headline sweep: per-seed ε-quality plus the safety floor, and
/// the aggregate ≥5x reduction in budget-governed real invocations.
/// Debug builds run a shorter prefix of the same sweep (the per-eval
/// bound revalidation makes debug sessions ~10x slower); release CI
/// runs all 200 seeds.
#[test]
fn budgeted_tier_meets_the_epsilon_quality_contract() {
    let _serial = serialize_calls();
    let seeds: u64 = if cfg!(debug_assertions) { 40 } else { 200 };
    let mut governed_exact = 0u64;
    let mut governed_budget = 0u64;
    let mut served_total = 0u64;
    for seed in 0..seeds {
        let (db, w) = inputs(seed);
        let setup = setup_invocations(&db, &w);

        let before = invocation_count();
        let exact = tune(&db, &w, &options(None));
        let exact_real = invocation_count() - before;

        let before = invocation_count();
        let budgeted = tune(&db, &w, &options(Some(AMPLE)));
        let budget_real = invocation_count() - before;

        assert_eq!(
            exact.best.is_some(),
            budgeted.best.is_some(),
            "seed {seed}: the tiers disagree on feasibility"
        );
        if let (Some(eb), Some(bb)) = (&exact.best, &budgeted.best) {
            assert!(
                bb.cost <= (1.0 + EPSILON) * eb.cost,
                "seed {seed}: budgeted cost {} exceeds (1+ε)·exact {}",
                bb.cost,
                eb.cost
            );
            // DBA-bandits safety floor: the validated recommendation is
            // never worse than recommending nothing at all.
            assert!(
                bb.cost <= budgeted.initial_cost + 1e-6,
                "seed {seed}: budgeted cost {} above the baseline {}",
                bb.cost,
                budgeted.initial_cost
            );
        }
        // Saturating: debug deltas count the validation oracle too
        // (see `COUNTS_ARE_REAL`) and need not exceed `setup`.
        governed_exact += exact_real.saturating_sub(setup);
        governed_budget += budget_real.saturating_sub(setup);
        served_total += budgeted.optimizer_calls_skipped;
    }
    assert!(
        served_total > 0,
        "the sweep never served an estimate — the policy is inert"
    );
    if COUNTS_ARE_REAL {
        assert!(
            governed_exact >= 5 * governed_budget.max(1),
            "governed invocations only fell {governed_exact} -> {governed_budget}, less than 5x"
        );
    }
}

/// Worst-case charging is the ceiling: real invocations in the
/// governed phases never exceed the charged spend (validation is
/// budget-exempt but bounded by one call per workload entry), the
/// spend never exceeds the budget.
#[test]
fn real_invocations_never_exceed_the_charged_budget() {
    let _serial = serialize_calls();
    let (db, w) = inputs(7);
    let setup = setup_invocations(&db, &w);
    for budget in [4usize, 12, 48, AMPLE] {
        let before = invocation_count();
        let report = tune(&db, &w, &options(Some(budget)));
        let real = invocation_count() - before;
        let remaining = report
            .budget_remaining
            .expect("budgeted tier always reports the remaining budget");
        assert!(remaining <= budget as u64, "spend overdrew the budget");
        let spent = budget as u64 - remaining;
        if COUNTS_ARE_REAL {
            assert!(
                real.saturating_sub(setup) <= spent + w.entries.len() as u64,
                "budget {budget}: {} real governed calls \
                 exceed charged spend {spent} plus the validation allowance",
                real - setup,
            );
        }
    }
}

/// The exact tier must be untouched by the feature: no budget events
/// in the trace, zero skip counters, no remaining-budget report.
#[test]
fn unlimited_budget_leaves_no_budget_artifacts() {
    let (db, w) = inputs(7);
    let tracer = Tracer::new();
    let report = tune_traced(&db, &w, &options(None), Some(&tracer));
    assert_eq!(report.optimizer_calls_skipped, 0);
    assert!(report.budget_remaining.is_none());
    assert_eq!(tracer.counter("optimizer.calls_skipped"), 0);
    assert_eq!(tracer.counter("budget.remaining"), 0);
    for kind in [
        "\"budget.skip\"",
        "\"budget.exhausted\"",
        "\"budget.validate.begin\"",
        "\"budget.validate.end\"",
    ] {
        assert!(
            !tracer.to_jsonl().contains(kind),
            "exact tier emitted {kind}"
        );
    }
}

/// Spot-check on a pinned configuration: growing the budget never
/// worsens the recommendation, and the unlimited end of the chain
/// lands within ε of the exact tier.
#[test]
fn larger_budgets_never_worsen_the_recommendation() {
    let (db, w) = inputs(7);
    let exact = tune(&db, &w, &options(None))
        .best
        .expect("pinned config is feasible")
        .cost;
    let mut last = f64::INFINITY;
    for budget in [2usize, 8, 32, AMPLE] {
        let report = tune(&db, &w, &options(Some(budget)));
        let cost = report
            .best
            .expect("budgeted tier still reports a best-so-far")
            .cost;
        assert!(
            cost <= last + 1e-9,
            "budget {budget} worsened the recommendation: {last} -> {cost}"
        );
        last = cost;
    }
    assert!(
        last <= (1.0 + EPSILON) * exact,
        "ample budget missed the ε contract: {last} vs exact {exact}"
    );
}
