//! Warm-start incremental re-tuning under workload drift: a drifting
//! TPC-H statement stream (phase shift in the query mix plus an update
//! ratio after the shift) is replayed through the online re-tuning
//! loop, against the baseline an operator without drift detection or
//! warm state must follow — a cold from-scratch tune of every epoch's
//! window. The headline number is the **invocation reduction**: how
//! many times fewer real optimizer invocations the warm system spends
//! keeping the deployed configuration current, summed over every epoch
//! after its first (unavoidably cold) tune. Warmth comes from two
//! places: the drift detector prices stable epochs from its
//! per-statement cost map (zero invocations), and re-tune sessions are
//! served from the cross-epoch shared what-if store for every carried
//! statement.
//!
//! The epochs up to and including the first re-tune are excluded from
//! the ratio on both sides: with an empty store and no deployed
//! configuration that tune *is* a cold tune, and counting it would
//! only dilute the measurement.
//!
//! The invocation floor (≥5x) is asserted in release builds only:
//! debug builds re-invoke the real optimizer to cross-validate every
//! derived/shared serve, which deliberately cancels the saving being
//! measured (the JSON marks such runs `degraded`). The cost floors —
//! the warm system's last re-tuned window must match or beat the cold
//! tune of the same window, and the in-search safety floor
//! (`window_cost <= predicted`) must hold on every priceable re-tune —
//! are asserted in every build.
//!
//! `PDTUNE_REPLAY_EPOCHS` overrides the epoch count (CI uses a reduced
//! stream). Writes `BENCH_replay.json` into the current directory (run
//! from the repo root) in addition to the shared results directory.

use pdt_bench::json::{pretty, ToJson};
use pdt_bench::json_struct;
use pdt_bench::{render_table, write_json};
use pdt_opt::invocation_count;
use pdt_trace::Tracer;
use pdt_tuner::{tune, ReplayOptions, TunerOptions, WindowSummarizer};
use pdt_workloads::drift::{drifting_tpch_stream, DriftSpec};
use pdt_workloads::tpch;
use std::time::Instant;

struct Row {
    epoch: usize,
    window: usize,
    retuned: bool,
    carried: u64,
    warm_invocations: u64,
    cold_invocations: u64,
    reduction: f64,
    warm_cost: f64,
    cold_cost: f64,
}
json_struct!(Row {
    epoch,
    window,
    retuned,
    carried,
    warm_invocations,
    cold_invocations,
    reduction,
    warm_cost,
    cold_cost
});

struct Summary {
    epochs: usize,
    per_epoch: usize,
    shift_epoch: usize,
    update_ratio: f64,
    seed: u64,
    iterations: usize,
    nproc: usize,
    /// Debug builds cross-validate every derived/shared serve with a
    /// real optimizer call, so the invocation floor cannot hold; it is
    /// skipped and the run is marked degraded.
    degraded: bool,
    retunes: u64,
    warm_serves: u64,
    first_retune_epoch: usize,
    warm_subsequent_invocations: u64,
    cold_subsequent_invocations: u64,
    invocation_reduction: f64,
    warm_total_invocations: u64,
    warm_wall_ms: f64,
    cold_wall_ms: f64,
    final_epoch: usize,
    warm_final_cost: f64,
    cold_final_cost: f64,
    rows: Vec<Row>,
}
json_struct!(Summary {
    epochs,
    per_epoch,
    shift_epoch,
    update_ratio,
    seed,
    iterations,
    nproc,
    degraded,
    retunes,
    warm_serves,
    first_retune_epoch,
    warm_subsequent_invocations,
    cold_subsequent_invocations,
    invocation_reduction,
    warm_total_invocations,
    warm_wall_ms,
    cold_wall_ms,
    final_epoch,
    warm_final_cost,
    cold_final_cost,
    rows
});

fn main() {
    let epochs: usize = std::env::var("PDTUNE_REPLAY_EPOCHS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    assert!(epochs >= 2, "need at least two epochs to measure warmth");
    let iterations = 40usize;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let degraded = cfg!(debug_assertions);

    let db = tpch::tpch_database(0.05);
    // `per_epoch` covers each phase pool completely (phase B is
    // exactly 18 statements), so novelty arrives at phase boundaries —
    // the shape of a recurring production workload — while the rolling
    // chunk boundary still churns the intra-epoch mix.
    let spec = DriftSpec {
        epochs,
        per_epoch: 18,
        shift_epoch: epochs / 2,
        update_ratio: 0.3,
        seed: 42,
    };
    let stream = drifting_tpch_stream(&db, &spec);
    let options = ReplayOptions {
        // Tolerate the decay transient after the phase shift (the old
        // phase fading out of the window moves the per-unit cost by
        // tens of percent for an epoch) while still firing on the
        // orders-of-magnitude jump of the shift itself.
        drift_threshold: 0.4,
        tuner: TunerOptions {
            max_iterations: iterations,
            ..TunerOptions::default()
        },
        ..ReplayOptions::default()
    };

    // Warm side: the whole stream through the online loop — one
    // window, one drift detector, one shared store, one deployed
    // configuration across every epoch.
    let tracer = Tracer::new();
    let warm_start = Instant::now();
    let report = run_replay_checked(&db, &stream, &options, &tracer);
    let warm_wall_ms = warm_start.elapsed().as_secs_f64() * 1e3;

    // The in-search safety floor, observed end-to-end: a priceable
    // re-tune never deploys a configuration that prices worse on the
    // window than what was already deployed.
    for er in &report.epochs {
        // predicted > 0 means the deployed configuration was priced on
        // the full window before the re-tune (directly, or via the
        // probe when new statements arrived).
        if er.retuned && er.predicted > 0.0 {
            assert!(
                er.window_cost <= er.predicted * (1.0 + 1e-9),
                "epoch {}: re-tune regressed the window, {} -> {}",
                er.epoch,
                er.predicted,
                er.window_cost
            );
        }
    }

    // Cold side: rebuild each epoch's window with an identical
    // summarizer and tune every post-first-re-tune window from
    // scratch — fresh options, no deployed configuration, no shared
    // store. The warm side spends nothing on epochs the drift detector
    // priced as stable; the cold baseline has no detector and must
    // tune them all.
    let first_retune_epoch = report
        .epochs
        .iter()
        .find(|er| er.retuned)
        .map(|er| er.epoch)
        .expect("the stream triggers at least one re-tune");
    let mut summarizer = WindowSummarizer::new(options.window);
    let mut rows = Vec::new();
    let mut cold_wall_ms = 0.0;
    for (epoch, batch) in stream.iter().enumerate() {
        summarizer.advance_epoch();
        for s in batch {
            summarizer.observe(s.clone());
        }
        if epoch <= first_retune_epoch {
            continue;
        }
        let er = &report.epochs[epoch];
        let w = summarizer.bind(&db).expect("window binds");
        let before = invocation_count();
        let start = Instant::now();
        let cold = tune(&db, &w, &options.tuner);
        cold_wall_ms += start.elapsed().as_secs_f64() * 1e3;
        let cold_invocations = invocation_count() - before;
        let cold_cost = cold
            .best
            .as_ref()
            .map(|b| b.cost)
            .expect("unbudgeted cold tune has a recommendation");
        rows.push(Row {
            epoch,
            window: er.window,
            retuned: er.retuned,
            carried: er.carried,
            warm_invocations: er.real_invocations,
            cold_invocations,
            reduction: cold_invocations as f64 / er.real_invocations.max(1) as f64,
            warm_cost: er.window_cost,
            cold_cost,
        });
    }
    assert!(
        rows.len() >= 2,
        "only {} epoch(s) follow the first re-tune; need at least 2",
        rows.len()
    );

    let warm_subsequent_invocations: u64 = rows.iter().map(|r| r.warm_invocations).sum();
    let cold_subsequent_invocations: u64 = rows.iter().map(|r| r.cold_invocations).sum();
    let invocation_reduction =
        cold_subsequent_invocations as f64 / warm_subsequent_invocations.max(1) as f64;

    // Cost floor on the last re-tuned window: warm and cold tuned the
    // exact same workload with the same iteration budget; the warm run
    // additionally holds the deployed floor, so it must match or beat
    // the cold recommendation.
    let last = rows
        .iter()
        .rfind(|r| r.retuned)
        .expect("at least one re-tune after the first");
    let (final_epoch, warm_final_cost, cold_final_cost) =
        (last.epoch, last.warm_cost, last.cold_cost);

    let summary = Summary {
        epochs,
        per_epoch: spec.per_epoch,
        shift_epoch: spec.shift_epoch,
        update_ratio: spec.update_ratio,
        seed: spec.seed,
        iterations,
        nproc,
        degraded,
        retunes: report.retunes,
        warm_serves: report.warm_serves,
        first_retune_epoch,
        warm_subsequent_invocations,
        cold_subsequent_invocations,
        invocation_reduction,
        warm_total_invocations: report.real_invocations,
        warm_wall_ms,
        cold_wall_ms,
        final_epoch,
        warm_final_cost,
        cold_final_cost,
        rows,
    };

    let table: Vec<Vec<String>> = summary
        .rows
        .iter()
        .map(|r| {
            vec![
                r.epoch.to_string(),
                r.window.to_string(),
                if r.retuned { "yes" } else { "no" }.to_string(),
                r.carried.to_string(),
                r.warm_invocations.to_string(),
                r.cold_invocations.to_string(),
                format!("{:.2}x", r.reduction),
                format!("{:.2}", r.warm_cost),
                format!("{:.2}", r.cold_cost),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "epoch",
                "window",
                "retune",
                "carried",
                "warm calls",
                "cold calls",
                "vs cold",
                "warm cost",
                "cold cost"
            ],
            &table
        )
    );
    println!(
        "re-tune invocation reduction (after first): {:.2}x   warm serves: {}   \
         final window cost: {:.2} warm vs {:.2} cold{}",
        summary.invocation_reduction,
        summary.warm_serves,
        summary.warm_final_cost,
        summary.cold_final_cost,
        if summary.degraded {
            "   [degraded: debug build cross-validates every serve]"
        } else {
            ""
        }
    );

    write_json("BENCH_replay", &summary);
    std::fs::write("BENCH_replay.json", pretty(&summary.to_json()))
        .expect("write BENCH_replay.json");
    eprintln!("[saved BENCH_replay.json]");

    // Acceptance floors, after the numbers are on disk so a failure is
    // diagnosable from the artifact.
    assert!(
        warm_final_cost <= cold_final_cost * (1.0 + 1e-9) + 1e-9,
        "warm replay ended the final re-tuned window at cost {warm_final_cost}, \
         worse than the cold tune's {cold_final_cost}"
    );
    if !degraded {
        assert!(
            invocation_reduction >= 5.0,
            "keeping current cost {warm_subsequent_invocations} warm real invocations \
             vs {cold_subsequent_invocations} cold, {invocation_reduction:.2}x is below \
             the 5x floor"
        );
    }
}

/// Run the warm replay and reconcile its counters against the trace —
/// the golden-counter contract the integration tests also hold.
fn run_replay_checked(
    db: &pdt_catalog::Database,
    stream: &[Vec<pdt_sql::Statement>],
    options: &ReplayOptions,
    tracer: &Tracer,
) -> pdt_tuner::ReplayReport {
    let report = pdt_tuner::run_replay(db, stream, options, Some(tracer)).expect("replay runs");
    assert_eq!(tracer.counter("replay.epochs"), stream.len() as u64);
    assert_eq!(tracer.counter("replay.retunes_triggered"), report.retunes);
    assert_eq!(tracer.counter("warm.serves"), report.warm_serves);
    report
}
