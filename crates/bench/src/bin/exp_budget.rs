//! What-if call-budget frontier: recommendation quality and real
//! optimizer invocations as a function of `--optimizer-call-budget`,
//! from a starved budget up through the exact (unlimited) tier, over
//! a panel of update-heavy TPC-H workload variants.
//!
//! The headline numbers are the two sides of the approximate tier's
//! contract: the **governed-invocation reduction** — how many times
//! fewer real invocations the budgeted tier makes in the phases the
//! budget governs (pre-pass + relaxation loop + final validation) —
//! and the **quality ratio**, the budgeted recommendation's cost over
//! the exact tier's on the same workload. The base prefix (base
//! evaluation, instrumentation, optimal-config evaluation) prices
//! every query for the first time in both tiers and is exempt from
//! the budget, so it is measured separately — a traced
//! `max_iterations: 0` run minus its pre-pass calls, the pre-pass
//! being budget-governed — and subtracted from every row.
//!
//! A single read-only TPC-H session is a poor probe here: derived
//! costing already serves almost every relaxation-loop call, leaving
//! single-digit governed counts. UPDATE statements are what keep the
//! §3.3.2 bound gap wide (replacement costs carry update shells), so
//! the frontier is measured across seeded update-mix variants and the
//! counters are summed over the panel, mirroring the ε-quality
//! contract harness in `tests/budget_quality.rs`.
//!
//! Writes `BENCH_budget.json` into the current directory (run from
//! the repo root) in addition to the shared results directory.

use pdt_bench::json::{pretty, ToJson};
use pdt_bench::json_struct;
use pdt_bench::{bind_workload, median_wall_ms, render_table, write_json};
use pdt_opt::invocation_count;
use pdt_trace::{json, Tracer};
use pdt_tuner::{tune, tune_traced, TunerOptions, Workload};
use pdt_workloads::tpch;
use pdt_workloads::updates::with_updates;

struct Row {
    /// 0 encodes the unlimited (exact) tier.
    call_budget: u64,
    wall_clock_ms: f64,
    real_invocations: u64,
    base_prefix_invocations: u64,
    governed_invocations: u64,
    estimates_served: u64,
    /// Seeds whose session ran the budget dry (stopped on
    /// `CallBudget` or finished with nothing left).
    exhausted_seeds: usize,
    /// Worst budgeted-over-exact cost ratio across the panel
    /// (1.0 = identical recommendation quality).
    worst_quality_ratio: f64,
    mean_quality_ratio: f64,
    mean_improvement_pct: f64,
}
json_struct!(Row {
    call_budget,
    wall_clock_ms,
    real_invocations,
    base_prefix_invocations,
    governed_invocations,
    estimates_served,
    exhausted_seeds,
    worst_quality_ratio,
    mean_quality_ratio,
    mean_improvement_pct
});

struct Summary {
    seeds: usize,
    queries_per_seed: usize,
    /// Hardware threads on the recording machine, same field name in
    /// every `BENCH_*.json` so artifact consumers can join on it.
    nproc: usize,
    /// True when the sessions ran more threads than the machine has
    /// cores — wall-clock columns then measure scheduler pressure,
    /// not the engine. This panel is single-threaded, so the flag
    /// only trips when the parallelism probe fails.
    degraded: bool,
    governed_invocation_reduction: f64,
    worst_ample_quality_ratio: f64,
    rows: Vec<Row>,
}
json_struct!(Summary {
    seeds,
    queries_per_seed,
    nproc,
    degraded,
    governed_invocation_reduction,
    worst_ample_quality_ratio,
    rows
});

/// Finite budget that never binds on this panel — measures the serve
/// policy's savings without exhaustion cutoffs.
const AMPLE: usize = 100_000;
const SEEDS: u64 = 8;
const QUERIES: usize = 12;
const UPDATE_RATIO: f64 = 0.75;

/// Real invocations of `eval.commit` events inside the pre-pass span.
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

struct Panel {
    workload: Workload,
    options: TunerOptions,
    /// Budget-exempt setup invocations: a zero-iteration exact run's
    /// total minus its (budget-governed) pre-pass.
    base_prefix: u64,
    exact_cost: f64,
}

fn main() {
    let db = tpch::tpch_database(0.05);

    let panel: Vec<Panel> = (0..SEEDS)
        .map(|seed| {
            let spec = with_updates(
                &db,
                &tpch::tpch_workload_variant(seed, QUERIES),
                UPDATE_RATIO,
                seed,
            );
            let w = bind_workload(&db, &spec.statements);
            // The free run anchors the space-budget scale; 10% of the
            // optimal configuration's extra space is the regime where
            // relaxation chains run long enough for the call budget to
            // matter.
            let free = tune(&db, &w, &TunerOptions::default());
            let space = free.initial_size + (free.optimal_size - free.initial_size) * 0.1;
            let options = TunerOptions {
                space_budget: Some(space),
                max_iterations: 40,
                ..Default::default()
            };
            let tracer = Tracer::new();
            let before = invocation_count();
            let _ = tune_traced(
                &db,
                &w,
                &TunerOptions {
                    max_iterations: 0,
                    ..options.clone()
                },
                Some(&tracer),
            );
            let base_prefix = (invocation_count() - before) - prepass_trace_calls(&tracer);
            Panel {
                workload: w,
                options,
                base_prefix,
                exact_cost: f64::NAN,
            }
        })
        .collect();

    let sweep = |panel: &[Panel], calls: Option<usize>| -> Vec<(u64, pdt_tuner::TuningReport)> {
        panel
            .iter()
            .map(|p| {
                let opts = TunerOptions {
                    optimizer_call_budget: calls,
                    ..p.options.clone()
                };
                let before = invocation_count();
                let r = tune(&db, &p.workload, &opts);
                (invocation_count() - before, r)
            })
            .collect()
    };

    let row_for = |panel: &[Panel], calls: Option<usize>| -> Row {
        let runs = sweep(panel, calls);
        let wall = median_wall_ms(|| sweep(panel, calls));
        let base_prefix: u64 = panel.iter().map(|p| p.base_prefix).sum();
        let real: u64 = runs.iter().map(|(n, _)| n).sum();
        let ratios: Vec<f64> = runs
            .iter()
            .zip(panel)
            .map(|((_, r), p)| r.best.as_ref().map_or(f64::NAN, |b| b.cost) / p.exact_cost)
            .collect();
        Row {
            call_budget: calls.unwrap_or(0) as u64,
            wall_clock_ms: wall,
            real_invocations: real,
            base_prefix_invocations: base_prefix,
            governed_invocations: real.saturating_sub(base_prefix),
            estimates_served: runs.iter().map(|(_, r)| r.optimizer_calls_skipped).sum(),
            exhausted_seeds: runs
                .iter()
                .filter(|(_, r)| r.budget_remaining == Some(0))
                .count(),
            worst_quality_ratio: ratios.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mean_quality_ratio: ratios.iter().sum::<f64>() / ratios.len() as f64,
            mean_improvement_pct: runs
                .iter()
                .map(|(_, r)| r.best_improvement_pct())
                .sum::<f64>()
                / runs.len() as f64,
        }
    };

    // Exact tier first: its per-seed costs are the quality yardstick.
    let exact_runs = sweep(&panel, None);
    let panel: Vec<Panel> = panel
        .into_iter()
        .zip(&exact_runs)
        .map(|(p, (_, r))| Panel {
            exact_cost: r.best.as_ref().map_or(f64::NAN, |b| b.cost),
            ..p
        })
        .collect();

    let mut rows = Vec::new();
    for budget in [8usize, 16, 32, 64, AMPLE] {
        rows.push(row_for(&panel, Some(budget)));
    }
    rows.push(row_for(&panel, None));

    let exact = rows.last().expect("exact row exists");
    let ample = rows
        .iter()
        .find(|r| r.call_budget == AMPLE as u64)
        .expect("ample row exists");
    let governed_invocation_reduction =
        exact.governed_invocations as f64 / ample.governed_invocations.max(1) as f64;
    let worst_ample_quality_ratio = ample.worst_quality_ratio;

    // The two-sided contract, enforced where the budget never binds:
    // every seed's quality within ε = 5% of the exact tier, governed
    // invocations down at least 5x across the panel.
    assert!(
        worst_ample_quality_ratio <= 1.05,
        "ample-budget recommendation missed the ε contract: \
         worst quality ratio {worst_ample_quality_ratio:.4}"
    );
    assert!(
        governed_invocation_reduction >= 5.0,
        "governed invocations only fell {} -> {}, \
         {governed_invocation_reduction:.2}x is below the 5x floor",
        exact.governed_invocations,
        ample.governed_invocations,
    );

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = TunerOptions::default().threads;
    let summary = Summary {
        seeds: SEEDS as usize,
        queries_per_seed: QUERIES,
        nproc,
        degraded: threads > nproc,
        governed_invocation_reduction,
        worst_ample_quality_ratio,
        rows,
    };

    let table: Vec<Vec<String>> = summary
        .rows
        .iter()
        .map(|r| {
            vec![
                if r.call_budget == 0 {
                    "unlimited".to_string()
                } else if r.call_budget == AMPLE as u64 {
                    "ample".to_string()
                } else {
                    r.call_budget.to_string()
                },
                format!("{:.0}", r.wall_clock_ms),
                r.real_invocations.to_string(),
                r.governed_invocations.to_string(),
                r.estimates_served.to_string(),
                r.exhausted_seeds.to_string(),
                format!("{:.4}", r.worst_quality_ratio),
                format!("{:.4}", r.mean_quality_ratio),
                format!("{:+.1}", r.mean_improvement_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "call budget",
                "wall ms",
                "real calls",
                "governed",
                "served",
                "dry",
                "worst qual",
                "mean qual",
                "improv %"
            ],
            &table
        )
    );
    println!(
        "governed invocation reduction at ample budget: {:.2}x   worst quality ratio: {:.4}",
        summary.governed_invocation_reduction, summary.worst_ample_quality_ratio
    );

    write_json("BENCH_budget", &summary);
    std::fs::write("BENCH_budget.json", pretty(&summary.to_json()))
        .expect("write BENCH_budget.json");
    eprintln!("[saved BENCH_budget.json]");
}
