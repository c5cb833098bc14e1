//! The online re-tuning loop must be a pure function of the stream and
//! the options: the same drifting TPC-H stream and seed produce
//! byte-identical rendered reports and JSONL traces across repeat runs,
//! and the trace counters must reconcile exactly with the replay
//! report.

use pdtune::trace::Tracer;
use pdtune::tuner::{render_replay_report, run_replay, ReplayOptions, ReplayReport, TunerOptions};
use pdtune::workloads::drift::{drifting_tpch_stream, DriftSpec};
use pdtune::workloads::tpch;

fn spec() -> DriftSpec {
    DriftSpec {
        epochs: 4,
        per_epoch: 8,
        shift_epoch: 2,
        update_ratio: 0.3,
        seed: 11,
    }
}

fn run() -> (ReplayReport, String, String) {
    let db = tpch::tpch_database(0.01);
    let stream = drifting_tpch_stream(&db, &spec());
    let options = ReplayOptions {
        tuner: TunerOptions {
            max_iterations: 10,
            ..TunerOptions::default()
        },
        ..ReplayOptions::default()
    };
    let tracer = Tracer::new();
    let report = run_replay(&db, &stream, &options, Some(&tracer)).unwrap();
    let rendered = render_replay_report(&db, &report);
    (report, rendered, tracer.to_jsonl())
}

/// A repeat run reproduces the rendered report and the trace byte for
/// byte. (The name is kept so the suite's test ids stay stable; replay
/// sessions are single-threaded.)
#[test]
fn replay_is_byte_identical_across_threads_and_runs() {
    let (_, baseline_render, baseline_trace) = run();
    assert!(!baseline_trace.is_empty());
    let (_, render, trace) = run();
    assert_eq!(baseline_render, render);
    assert_eq!(baseline_trace, trace);
}

#[test]
fn replay_counters_reconcile_with_the_report() {
    let db = tpch::tpch_database(0.01);
    let stream = drifting_tpch_stream(&db, &spec());
    let options = ReplayOptions {
        tuner: TunerOptions {
            max_iterations: 10,
            ..TunerOptions::default()
        },
        ..ReplayOptions::default()
    };
    let tracer = Tracer::new();
    let report = run_replay(&db, &stream, &options, Some(&tracer)).unwrap();

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
