//! The online re-tuning loop must be a pure function of the stream and
//! the options: the same drifting TPC-H stream and seed produce
//! byte-identical rendered reports and JSONL traces across repeat runs,
//! and the trace counters must reconcile exactly with the replay
//! report.
//!
//! It must also pay for itself. On an 8-epoch stream with a phase shift
//! the warm loop keeps the deployed configuration current at ≥5x fewer
//! real optimizer invocations than cold-tuning every epoch's window
//! (6.17x measured), and never deploys worse than it had, or than the
//! cold tune of the same window.
//!
//! Real invocations are read from the process-global optimizer
//! counter, so every test here holds one file-local lock: another
//! test's calls would otherwise land on either side of the ratio.

use std::sync::{Mutex, MutexGuard};

use pdtune::catalog::Database;
use pdtune::opt::invocation_count;
use pdtune::sql::Statement;
use pdtune::trace::Tracer;
use pdtune::tuner::{
    render_replay_report, run_replay, tune, ReplayOptions, ReplayReport, TunerOptions,
    WindowSummarizer,
};
use pdtune::workloads::drift::{drifting_tpch_stream, DriftSpec};
use pdtune::workloads::tpch;

/// Serializes the tests of this binary on the invocation counter. A
/// `()` guard cannot hold bad state, so a poisoned lock is taken as is.
static CALLS: Mutex<()> = Mutex::new(());

fn serialize_calls() -> MutexGuard<'static, ()> {
    CALLS.lock().unwrap_or_else(|e| e.into_inner())
}

/// A finished replay with the inputs it ran on.
struct Replay {
    db: Database,
    stream: Vec<Vec<Statement>>,
    options: ReplayOptions,
    report: ReplayReport,
    tracer: Tracer,
}

/// Replays `spec`'s stream over TPC-H at `sf`, re-tuning with
/// `iterations`-step sessions whenever drift passes `threshold`.
fn replay(sf: f64, spec: DriftSpec, iterations: usize, threshold: f64) -> Replay {
    let db = tpch::tpch_database(sf);
    let stream = drifting_tpch_stream(&db, &spec);
    let options = ReplayOptions {
        drift_threshold: threshold,
        tuner: TunerOptions {
            max_iterations: iterations,
            ..TunerOptions::default()
        },
        ..ReplayOptions::default()
    };
    let tracer = Tracer::new();
    let report = run_replay(&db, &stream, &options, Some(&tracer)).unwrap();
    Replay {
        db,
        stream,
        options,
        report,
        tracer,
    }
}

/// The short stream of the determinism tests.
fn short() -> Replay {
    let spec = DriftSpec {
        epochs: 4,
        per_epoch: 8,
        shift_epoch: 2,
        update_ratio: 0.3,
        seed: 11,
    };
    replay(0.01, spec, 10, ReplayOptions::default().drift_threshold)
}

/// A repeat run reproduces the rendered report and the trace byte for
/// byte.
#[test]
fn replay_is_byte_identical_across_runs() {
    let _serial = serialize_calls();
    let render = |r: &Replay| (render_replay_report(&r.db, &r.report), r.tracer.to_jsonl());
    let (baseline_render, baseline_trace) = render(&short());
    assert!(!baseline_trace.is_empty());
    let (rendered, trace) = render(&short());
    assert_eq!(baseline_render, rendered);
    assert_eq!(baseline_trace, trace);
}

#[test]
fn replay_counters_reconcile_with_the_report() {
    let _serial = serialize_calls();
    let Replay {
        stream,
        report,
        tracer,
        ..
    } = short();

    assert_eq!(tracer.counter("replay.epochs"), stream.len() as u64);
    assert_eq!(tracer.counter("replay.epochs"), report.epochs.len() as u64);
    assert_eq!(tracer.counter("replay.retunes_triggered"), report.retunes);
    assert_eq!(
        report.retunes,
        report.epochs.iter().filter(|e| e.retuned).count() as u64
    );
    assert_eq!(tracer.counter("warm.serves"), report.warm_serves);

    // The phase shift must have fired a re-tune over a window that
    // still carries pre-shift statements.
    assert!(report.retunes >= 2, "the stream never drifted");
    assert!(report.warm_serves > 0, "no warm serves recorded");

    // The drift metric on every traced epoch matches the report.
    let drifts: Vec<f64> = tracer
        .to_jsonl()
        .lines()
        .filter(|l| l.contains(r#""kind":"replay.epoch""#))
        .map(|l| {
            let tail = l.split(r#""drift":"#).nth(1).expect("drift field");
            let num: String = tail
                .chars()
                .take_while(|c| !matches!(c, ',' | '}'))
                .collect();
            num.parse().expect("drift is a number")
        })
        .collect();
    assert_eq!(drifts.len(), report.epochs.len());
    for (er, traced) in report.epochs.iter().zip(&drifts) {
        assert_eq!(er.drift, *traced, "epoch {}: drift diverged", er.epoch);
    }
}

/// The warm loop against an operator without drift detection or warm
/// state, who cold-tunes every epoch's window from scratch. Epochs up to
/// and including the first re-tune are left out on both sides: with an
/// empty store and nothing deployed, that re-tune is a cold tune.
///
/// Debug builds re-ask the optimizer to cross-check every served
/// answer, which cancels the saving, so the ≥5x call floor runs in
/// release only. The cost floors hold in every build.
#[test]
fn warm_retuning_beats_cold_tuning_every_epoch() {
    let _serial = serialize_calls();
    // Each epoch covers a phase pool (phase B is exactly 18 statements),
    // and a 0.4 threshold rides out the decay transient after the shift
    // while still firing on the shift itself.
    let spec = DriftSpec {
        epochs: 8,
        per_epoch: 18,
        shift_epoch: 4,
        update_ratio: 0.3,
        seed: 42,
    };
    let Replay {
        db,
        stream,
        options,
        report,
        ..
    } = replay(0.05, spec, 40, 0.4);

    // The in-search safety floor: a priceable re-tune (its deployed
    // configuration was priced on the full window first) never deploys
    // a configuration that prices worse on the window.
    for er in report
        .epochs
        .iter()
        .filter(|er| er.retuned && er.predicted > 0.0)
    {
        assert!(
            er.window_cost <= er.predicted * (1.0 + 1e-9),
            "epoch {}: re-tune regressed the window, {} -> {}",
            er.epoch,
            er.predicted,
            er.window_cost
        );
    }

    let first_retune = report
        .epochs
        .iter()
        .position(|er| er.retuned)
        .expect("the stream triggers a re-tune");
    // An identical summarizer rebuilds each epoch's window for the cold
    // tune.
    let mut summarizer = WindowSummarizer::new(options.window);
    let (mut warm_calls, mut cold_calls) = (0u64, 0u64);
    let mut last_retuned = None;
    for (epoch, batch) in stream.iter().enumerate() {
        summarizer.advance_epoch();
        for s in batch {
            summarizer.observe(s.clone());
        }
        if epoch <= first_retune {
            continue;
        }
        let w = summarizer.bind(&db).expect("window binds");
        let before = invocation_count();
        let cold = tune(&db, &w, &options.tuner);
        cold_calls += invocation_count() - before;
        let er = &report.epochs[epoch];
        warm_calls += er.real_invocations;
        if er.retuned {
            let cold_cost = cold.best.expect("an unbudgeted tune recommends").cost;
            last_retuned = Some((epoch, er.window_cost, cold_cost));
        }
    }
    assert!(
        stream.len() >= first_retune + 3,
        "fewer than two epochs follow the first re-tune"
    );

    // The warm and the cold session tuned the same window with the same
    // iterations, and the warm one also holds the deployed floor.
    let (epoch, warm_cost, cold_cost) = last_retuned.expect("a re-tune after the first");
    assert!(
        warm_cost <= cold_cost * (1.0 + 1e-9) + 1e-9,
        "epoch {epoch}: warm re-tune ended at cost {warm_cost}, \
         worse than the cold tune's {cold_cost}"
    );

    let reduction = cold_calls as f64 / warm_calls.max(1) as f64;
    if !cfg!(debug_assertions) {
        assert!(
            reduction >= 5.0,
            "keeping current cost {warm_calls} warm real invocations vs \
             {cold_calls} cold, {reduction:.2}x is below the 5x floor"
        );
    }
}
