//! Checkpoint/resume must be invisible in the output: a session resumed
//! from any checkpoint has to finish with a report **and** trace that
//! are byte-identical to the uninterrupted run's, for every thread
//! count. These tests collect real checkpoints from a live session via
//! the sink callback, then replay them cold.

use std::cell::RefCell;

use pdtune::prelude::*;
use pdtune::trace::Tracer;
use pdtune::workloads::{tpch, updates};

fn session_inputs() -> (pdtune::catalog::Database, Workload) {
    let db = tpch::tpch_database(0.01);
    let spec = updates::with_updates(&db, &tpch::tpch_workload_variant(7, 6), 0.5, 7);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    (db, w)
}

fn options(threads: usize) -> TunerOptions {
    TunerOptions {
        space_budget: Some(24.0 * 1024.0 * 1024.0),
        max_iterations: 40,
        threads,
        ..TunerOptions::default()
    }
}

/// Debug-format a report with the wall-clock fields zeroed, so two
/// runs can be compared byte-for-byte.
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

/// Run a full traced session, collecting every checkpoint the sink
/// receives as `(completed_iterations, serialized_body)`.
fn run_collecting_opts(
    opts: &TunerOptions,
    every: usize,
) -> (TuningReport, String, Vec<(usize, String)>) {
    let (db, w) = session_inputs();
    let tracer = Tracer::new();
    let collected: RefCell<Vec<(usize, String)>> = RefCell::new(Vec::new());
    let sink = |done: usize, body: &str| {
        collected.borrow_mut().push((done, body.to_string()));
    };
    let report = tune_session(
        &db,
        &w,
        opts,
        SessionCtl {
            tracer: Some(&tracer),
            checkpoint_every: every,
            checkpoint_sink: Some(&sink),
            ..SessionCtl::default()
        },
    )
    .expect("uninterrupted session succeeds");
    (report, tracer.to_jsonl(), collected.into_inner())
}

fn run_collecting(threads: usize, every: usize) -> (TuningReport, String, Vec<(usize, String)>) {
    run_collecting_opts(&options(threads), every)
}

fn resume_from_opts(body: &str, opts: &TunerOptions) -> (TuningReport, String) {
    let (db, w) = session_inputs();
    let ck = Checkpoint::from_json_str(body).expect("checkpoint parses");
    let tracer = Tracer::new();
    let report = tune_session(
        &db,
        &w,
        opts,
        SessionCtl {
            tracer: Some(&tracer),
            resume: Some(&ck),
            ..SessionCtl::default()
        },
    )
    .expect("resume succeeds");
    (report, tracer.to_jsonl())
}

fn resume_from(body: &str, threads: usize) -> (TuningReport, String) {
    resume_from_opts(body, &options(threads))
}

/// [`options`] with a finite optimizer-call budget: the approximate
/// tier must checkpoint and resume as invisibly as the exact one.
fn options_budgeted(threads: usize) -> TunerOptions {
    TunerOptions {
        optimizer_call_budget: Some(12),
        ..options(threads)
    }
}

/// [`options`] under a fault plan: faults contained before a checkpoint
/// are restored from it, and the replay must not record them again.
fn options_faulted() -> TunerOptions {
    TunerOptions {
        fault_plan: Some(FaultPlan { seed: 5, rate: 0.3 }),
        max_faults: usize::MAX,
        ..options(1)
    }
}

#[test]
fn resume_from_every_checkpoint_is_byte_identical() {
    for (label, opts) in [("clean", options(1)), ("faulted", options_faulted())] {
        let (baseline, baseline_trace, checkpoints) = run_collecting_opts(&opts, 7);
        let baseline_fp = fingerprint(&baseline);
        assert!(
            checkpoints.len() >= 2,
            "{label}: expected several cadence checkpoints, got {}",
            checkpoints.len()
        );
        if label == "faulted" {
            let (last, _) = checkpoints.last().expect("checked above");
            assert!(
                baseline.faults.iter().any(|f| f.iteration <= *last),
                "no fault precedes a checkpoint — the scenario restores nothing: {:?}",
                baseline.faults
            );
        }
        for (done, body) in &checkpoints {
            let (report, trace) = resume_from_opts(body, &opts);
            assert_eq!(
                baseline_fp,
                fingerprint(&report),
                "{label}: report diverged resuming from iteration {done}"
            );
            assert_eq!(
                baseline_trace, trace,
                "{label}: trace diverged resuming from iteration {done}"
            );
        }
    }
}

#[test]
fn resume_is_thread_count_invariant() {
    let (baseline, baseline_trace, checkpoints) = run_collecting(1, 10);
    let baseline_fp = fingerprint(&baseline);
    let (done, body) = checkpoints.first().expect("at least one checkpoint");
    for threads in [1, 2, 8] {
        let (report, trace) = resume_from(body, threads);
        assert_eq!(
            baseline_fp,
            fingerprint(&report),
            "threads={threads} diverged resuming from iteration {done}"
        );
        assert_eq!(baseline_trace, trace, "threads={threads} trace diverged");
    }
}

#[test]
fn checkpoints_agree_across_thread_counts() {
    // The cost-cache dump is the one checkpoint section allowed to
    // vary with the thread count: parallel workers evaluate entries
    // the sequential shortcut short-circuits past, so a wider run may
    // persist extra (equally valid) what-if answers. Every
    // decision-relevant field must still match byte-for-byte, and a
    // checkpoint taken at any width must resume at any other width.
    // Besides the cache, zero the per-phase wall-clock roll-ups nested
    // in the trace section — the only other nondeterministic bytes.
    fn zero_phase_clocks(j: &mut pdtune::trace::json::Json) {
        use pdtune::trace::json::Json;
        if let Json::Obj(fields) = j {
            for (k, v) in fields.iter_mut() {
                if k == "trace" {
                    zero_phase_clocks(v);
                } else if k == "phases" {
                    if let Json::Arr(phases) = v {
                        for p in phases {
                            if let Json::Arr(cols) = p {
                                if let Some(last) = cols.last_mut() {
                                    *last = Json::Int(0);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    let strip_cache = |body: &str| {
        let doc = pdtune::trace::json::parse(body).expect("checkpoint is valid JSON");
        let mut fields: Vec<(String, pdtune::trace::json::Json)> = doc
            .as_obj()
            .expect("checkpoint is an object")
            .iter()
            .filter(|(k, _)| k != "cache")
            .cloned()
            .collect();
        for (k, v) in fields.iter_mut() {
            if k == "trace" {
                zero_phase_clocks(v);
            }
        }
        fields
    };
    let (baseline, baseline_trace, ck1) = run_collecting(1, 7);
    let baseline_fp = fingerprint(&baseline);
    for threads in [2, 8] {
        let (_, _, ckn) = run_collecting(threads, 7);
        assert_eq!(ck1.len(), ckn.len(), "threads={threads} cadence differs");
        for ((d1, b1), (dn, bn)) in ck1.iter().zip(&ckn) {
            assert_eq!(d1, dn);
            assert_eq!(
                strip_cache(b1),
                strip_cache(bn),
                "threads={threads} checkpoint at iteration {d1} differs"
            );
        }
        // A checkpoint captured on a wide run resumes on one thread.
        let (_, body) = ckn.last().expect("at least one checkpoint");
        let (resumed, trace) = resume_from(body, 1);
        assert_eq!(baseline_fp, fingerprint(&resumed), "threads={threads}");
        assert_eq!(baseline_trace, trace, "threads={threads}");
    }
}

#[test]
fn interrupted_session_resumes_to_the_uninterrupted_result() {
    let (baseline, baseline_trace, _) = run_collecting(1, 7);
    let baseline_fp = fingerprint(&baseline);

    // Interrupt deterministically: the sink trips the stop token right
    // after the cadence write at 7 completed iterations, as if SIGINT
    // arrived mid-search. The session must stop at the next clean
    // boundary with a complete best-so-far report.
    let (db, w) = session_inputs();
    let token = StopToken::default();
    let tracer = Tracer::new();
    let collected: RefCell<Vec<(usize, String)>> = RefCell::new(Vec::new());
    let sink = |done: usize, body: &str| {
        collected.borrow_mut().push((done, body.to_string()));
        if done >= 7 {
            token.trip(StopReason::Interrupted);
        }
    };
    let interrupted = tune_session(
        &db,
        &w,
        &TunerOptions {
            stop: Some(token.clone()),
            ..options(1)
        },
        SessionCtl {
            tracer: Some(&tracer),
            checkpoint_every: 7,
            checkpoint_sink: Some(&sink),
            ..SessionCtl::default()
        },
    )
    .expect("interrupted session still returns a report");
    assert_eq!(interrupted.stop_reason, StopReason::Interrupted);
    assert!(
        interrupted.iterations < baseline.iterations,
        "the interrupt should cut the session short"
    );
    assert!(interrupted.best.is_some(), "best-so-far must survive");

    // Picking up from the last checkpoint written replays the prefix
    // and finishes exactly where the uninterrupted run did. The resumed
    // session uses its own (untripped) stop state.
    let (_, body) = collected
        .borrow()
        .last()
        .cloned()
        .expect("checkpoint saved");
    let (resumed, trace) = resume_from(&body, 1);
    assert_eq!(baseline_fp, fingerprint(&resumed));
    assert_eq!(baseline_trace, trace);
}

#[test]
fn resume_rejects_a_mismatched_session() {
    let (_, _, checkpoints) = run_collecting(1, 10);
    let (_, body) = checkpoints.first().expect("at least one checkpoint");
    let ck = Checkpoint::from_json_str(body).unwrap();
    let (db, w) = session_inputs();

    // Different decision knobs -> different search -> refuse to resume.
    let mut other = options(1);
    other.max_iterations = 12;
    let err = tune_session(
        &db,
        &w,
        &other,
        SessionCtl {
            resume: Some(&ck),
            ..SessionCtl::default()
        },
    )
    .expect_err("mismatched options must not resume");
    assert!(matches!(err, TuneError::Checkpoint(_)), "{err:?}");

    // A checkpoint edited to claim the whole iteration budget (or more)
    // replays the entire loop without ever crossing its resume
    // boundary; the fidelity check after the loop must refuse it — an
    // error, not a panic and not a report.
    for claimed in [40, 45] {
        let mut edited = Checkpoint::from_json_str(body).unwrap();
        edited.iteration = claimed;
        let err = tune_session(
            &db,
            &w,
            &options(1),
            SessionCtl {
                resume: Some(&edited),
                ..SessionCtl::default()
            },
        )
        .expect_err("a checkpoint claiming unreplayable iterations must not resume");
        assert!(matches!(err, TuneError::Checkpoint(_)), "{err:?}");
    }

    // Thread count is a pure performance knob and must NOT invalidate
    // a checkpoint.
    let ok = tune_session(
        &db,
        &w,
        &options(4),
        SessionCtl {
            resume: Some(&ck),
            ..SessionCtl::default()
        },
    );
    assert!(ok.is_ok(), "{:?}", ok.err());
}

#[test]
fn untraced_sessions_checkpoint_and_resume_too() {
    let (db, w) = session_inputs();
    let collected: RefCell<Vec<(usize, String)>> = RefCell::new(Vec::new());
    let sink = |done: usize, body: &str| {
        collected.borrow_mut().push((done, body.to_string()));
    };
    let baseline = tune_session(
        &db,
        &w,
        &options(1),
        SessionCtl {
            tracer: None,
            checkpoint_every: 9,
            checkpoint_sink: Some(&sink),
            ..SessionCtl::default()
        },
    )
    .expect("untraced session succeeds");
    let checkpoints = collected.into_inner();
    let (done, body) = checkpoints.first().expect("at least one checkpoint");
    let ck = Checkpoint::from_json_str(body).unwrap();
    let resumed = tune_session(
        &db,
        &w,
        &options(1),
        SessionCtl {
            resume: Some(&ck),
            ..SessionCtl::default()
        },
    )
    .expect("untraced resume succeeds");
    let zero = |r: &TuningReport| {
        let mut r = r.clone();
        r.elapsed = std::time::Duration::ZERO;
        format!("{r:#?}")
    };
    assert_eq!(
        zero(&baseline),
        zero(&resumed),
        "untraced resume from iteration {done} diverged"
    );
}

/// The approximate tier checkpoints its budget ledger mid-flight
/// (`budget_spent`/`budget_skipped`), and a budgeted session resumed
/// from any checkpoint — at any thread count — finishes byte-identical
/// to the uninterrupted budgeted run, including the final remaining
/// budget and served-estimate counters.
#[test]
fn budgeted_resume_is_byte_identical_and_restores_the_ledger() {
    let (baseline, baseline_trace, checkpoints) = run_collecting_opts(&options_budgeted(1), 7);
    let baseline_fp = fingerprint(&baseline);
    assert!(
        baseline
            .budget_remaining
            .expect("budgeted tier reports the remaining budget")
            < 12,
        "the session never spent — the scenario does not exercise the ledger"
    );
    assert!(
        baseline.optimizer_calls_skipped > 0,
        "the session never served — the scenario does not exercise the ledger"
    );
    assert!(checkpoints.len() >= 2, "expected several checkpoints");

    // Every checkpoint persists the ledger, monotonically non-decreasing
    // along the session.
    // Checkpoint integers render as 16-digit hex strings.
    let field = |body: &str, key: &str| -> u64 {
        let doc = pdtune::trace::json::parse(body).expect("checkpoint is valid JSON");
        let s = doc
            .get(key)
            .and_then(|v| v.as_str().map(str::to_string))
            .unwrap_or_else(|| panic!("checkpoint is missing {key}"));
        u64::from_str_radix(&s, 16).unwrap_or_else(|_| panic!("{key} is not hex: {s}"))
    };
    let mut last = (0u64, 0u64);
    for (done, body) in &checkpoints {
        let ledger = (field(body, "budget_spent"), field(body, "budget_skipped"));
        assert!(
            ledger >= last,
            "ledger went backwards at iteration {done}: {last:?} -> {ledger:?}"
        );
        last = ledger;
    }

    for (done, body) in &checkpoints {
        for threads in [1usize, 4] {
            let (report, trace) = resume_from_opts(body, &options_budgeted(threads));
            assert_eq!(
                baseline_fp,
                fingerprint(&report),
                "budgeted report diverged resuming from iteration {done} at {threads} threads"
            );
            assert_eq!(
                baseline_trace, trace,
                "budgeted trace diverged resuming from iteration {done} at {threads} threads"
            );
        }
    }

    // The budget is a decision knob: a checkpoint from a budgeted
    // session must not resume under a different budget.
    let (_, body) = checkpoints.first().expect("at least one checkpoint");
    let ck = Checkpoint::from_json_str(body).unwrap();
    let (db, w) = session_inputs();
    let err = tune_session(
        &db,
        &w,
        &options(1),
        SessionCtl {
            resume: Some(&ck),
            ..SessionCtl::default()
        },
    )
    .expect_err("a different call budget must not resume");
    assert!(matches!(err, TuneError::Checkpoint(_)), "{err:?}");
}
