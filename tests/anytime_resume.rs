//! Checkpoint/resume must be invisible in the output: a session resumed
//! from any checkpoint has to finish with a report **and** trace that
//! are byte-identical to the uninterrupted run's. These tests collect a
//! live session's checkpoint *records* via the sink callback — the
//! first a complete document, each later one only what changed — then
//! fold every prefix `0..=k` of the log and replay it cold; a framed log
//! is also torn at every byte of its last record and resumed from what
//! survives.

use std::cell::RefCell;

use pdtune::physical::Configuration;
use pdtune::prelude::*;
use pdtune::trace::Tracer;
use pdtune::workloads::bench::{bench_database, bench_workload, BenchParams};
use pdtune::workloads::{tpch, updates};

type Inputs = (pdtune::catalog::Database, Workload);

fn session_inputs() -> Inputs {
    let db = tpch::tpch_database(0.01);
    let spec = updates::with_updates(&db, &tpch::tpch_workload_variant(7, 6), 0.5, 7);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    (db, w)
}

/// The generated-schema session with views and a 0.5 write mix, built
/// like seed 62 of the `incremental_candidates` sweep. Its shortcut
/// aborts price queries that later evaluations reuse, so its records
/// carry cache entries from evaluations the search did not keep.
fn views_updates_inputs() -> (Inputs, TunerOptions) {
    let seed = 62;
    let p = BenchParams {
        name: format!("incr-{seed}"),
        tables: 2,
        max_columns: 6,
        max_rows: 8e4,
        seed,
    };
    let db = bench_database(&p);
    let spec = bench_workload(&db, seed ^ 0xD17A, 5);
    let spec = updates::with_updates(&db, &spec, 0.5, seed);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    let options = TunerOptions {
        space_budget: Some(Configuration::base(&db).size_bytes(&db) * 1.25),
        max_iterations: 40,
        with_views: true,
        ..TunerOptions::default()
    };
    ((db, w), options)
}

fn options() -> TunerOptions {
    TunerOptions {
        space_budget: Some(24.0 * 1024.0 * 1024.0),
        max_iterations: 40,
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

/// Run a full traced session, collecting every record the sink
/// receives as `(completed_iterations, record)`.
fn run_collecting_opts(
    opts: &TunerOptions,
    every: usize,
) -> (TuningReport, String, Vec<(usize, String)>) {
    run_collecting_on(&session_inputs(), opts, every)
}

fn run_collecting_on(
    (db, w): &Inputs,
    opts: &TunerOptions,
    every: usize,
) -> (TuningReport, String, Vec<(usize, String)>) {
    let tracer = Tracer::new();
    let collected: RefCell<Vec<(usize, String)>> = RefCell::new(Vec::new());
    let sink = |done: usize, body: &str| {
        collected.borrow_mut().push((done, body.to_string()));
    };
    let report = tune_session(
        db,
        w,
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

fn run_collecting(every: usize) -> (TuningReport, String, Vec<(usize, String)>) {
    run_collecting_opts(&options(), every)
}

/// The checkpoint at record `k`: the first record parsed, the deltas
/// `1..=k` folded in.
fn fold(records: &[(usize, String)], k: usize) -> Checkpoint {
    let mut ck = Checkpoint::from_json_str(&records[0].1).expect("first record is a document");
    for (done, record) in &records[1..=k] {
        ck.apply_record(record)
            .unwrap_or_else(|e| panic!("record at iteration {done} does not fold: {e}"));
        assert_eq!(ck.head.iteration, *done);
    }
    ck
}

/// Every prefix of the log, as `(completed_iterations, checkpoint)`.
fn fold_every_prefix(records: &[(usize, String)]) -> Vec<(usize, Checkpoint)> {
    (0..records.len())
        .map(|k| (records[k].0, fold(records, k)))
        .collect()
}

fn resume_from_opts(ck: &Checkpoint, opts: &TunerOptions) -> (TuningReport, String) {
    resume_on(&session_inputs(), ck, opts)
}

fn resume_on((db, w): &Inputs, ck: &Checkpoint, opts: &TunerOptions) -> (TuningReport, String) {
    let tracer = Tracer::new();
    let report = tune_session(
        db,
        w,
        opts,
        SessionCtl {
            tracer: Some(&tracer),
            resume: Some(ck),
            ..SessionCtl::default()
        },
    )
    .expect("resume succeeds");
    (report, tracer.to_jsonl())
}

fn resume_from(ck: &Checkpoint) -> (TuningReport, String) {
    resume_from_opts(ck, &options())
}

/// Zero what legitimately differs between two runs of one session: the
/// per-phase wall clock.
fn zero_clocks(mut ck: Checkpoint) -> Checkpoint {
    for p in ck.trace.iter_mut().flat_map(|t| &mut t.state.phases) {
        p.elapsed = std::time::Duration::ZERO;
    }
    ck
}

/// [`options`] with a finite optimizer-call budget: the approximate
/// tier must checkpoint and resume as invisibly as the exact one.
fn options_budgeted() -> TunerOptions {
    TunerOptions {
        optimizer_call_budget: Some(12),
        ..options()
    }
}

/// [`options`] under a fault plan: faults contained before a checkpoint
/// are restored from it, and the replay must not record them again.
fn options_faulted() -> TunerOptions {
    TunerOptions {
        fault_plan: Some(FaultPlan { seed: 5, rate: 0.3 }),
        max_faults: usize::MAX,
        ..options()
    }
}

#[test]
fn resume_from_every_checkpoint_is_byte_identical() {
    let (views_updates, views_updates_options) = views_updates_inputs();
    for (label, inputs, opts) in [
        ("clean", session_inputs(), options()),
        ("faulted", session_inputs(), options_faulted()),
        ("views+updates", views_updates, views_updates_options),
    ] {
        let (baseline, baseline_trace, checkpoints) = run_collecting_on(&inputs, &opts, 7);
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
        for (done, ck) in &fold_every_prefix(&checkpoints) {
            let (report, trace) = resume_on(&inputs, ck, &opts);
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

/// The fold of a log is the full state, not an approximation of it:
/// records `0..=k` of a session that writes one record per iteration
/// add up to exactly the document a session writes when boundary `k`
/// is the first it checkpoints — for every `k`, clean and faulted.
#[test]
fn folded_records_equal_a_full_capture_at_the_same_boundary() {
    for (label, opts) in [("clean", options()), ("faulted", options_faulted())] {
        let (_, _, fine) = run_collecting_opts(&opts, 1);
        assert!(fine.len() >= 20, "{label}: one record per iteration");
        let folded = fold_every_prefix(&fine);
        for every in [7usize, 12] {
            let (_, _, coarse) = run_collecting_opts(&opts, every);
            let (done, document) = &coarse[0];
            assert_eq!(*done, every);
            let full = Checkpoint::from_json_str(document).unwrap();
            let (_, ck) = &folded[every - 1];
            assert_eq!(
                zero_clocks(ck.clone()).to_json_string(),
                zero_clocks(full).to_json_string(),
                "{label}: fold of records 1..={every} is not the capture at {every}"
            );
        }
        // What the log writes in total is one snapshot, not one per
        // record: the deltas repeat only the header.
        let (_, _, coarse) = run_collecting_opts(&opts, 7);
        let total: usize = coarse.iter().map(|(_, r)| r.len()).sum();
        let snapshot = fold(&coarse, coarse.len() - 1).to_json_string().len();
        assert!(
            total < snapshot + 4096 * coarse.len(),
            "{label}: {} records wrote {total} bytes for a {snapshot}-byte state",
            coarse.len()
        );
    }
}

#[test]
fn interrupted_session_resumes_to_the_uninterrupted_result() {
    let (baseline, baseline_trace, _) = run_collecting(7);
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
            ..options()
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

    // Picking up from the log as the interrupt left it replays the
    // prefix and finishes exactly where the uninterrupted run did. The
    // resumed session uses its own (untripped) stop state.
    let records = collected.into_inner();
    assert!(!records.is_empty(), "checkpoint saved");
    let (resumed, trace) = resume_from(&fold(&records, records.len() - 1));
    assert_eq!(baseline_fp, fingerprint(&resumed));
    assert_eq!(baseline_trace, trace);
}

/// A stop that truncates iteration `i` mid-flight writes the record for
/// boundary `i - 1` — and nothing iteration `i` inserted, emitted or
/// recorded after that boundary was marked. The truncation here is
/// deterministic: a zero fault tolerance turns the session's first
/// contained fault into a `FaultLimit` stop in the middle of `i`.
#[test]
fn a_truncated_iteration_leaves_the_previous_boundary_and_nothing_later() {
    // This plan's first fault lands in iteration 6.
    let tolerant = TunerOptions {
        fault_plan: Some(FaultPlan {
            seed: 4,
            rate: 0.05,
        }),
        ..options_faulted()
    };
    let (reference, _, fine) = run_collecting_opts(&tolerant, 1);
    let first_fault = reference.faults.first().expect("the plan faults").iteration;
    assert!(first_fault >= 2, "need a clean boundary before the fault");

    let strict = TunerOptions {
        max_faults: 0,
        ..tolerant
    };
    // Cadence 0: the only record is the one the stop flushes.
    let (stopped, _, records) = run_collecting_opts(&strict, 0);
    assert_eq!(stopped.stop_reason, StopReason::FaultLimit);
    assert_eq!(
        stopped.iterations, first_fault,
        "stopped at the next loop top"
    );
    let [(done, record)] = &records[..] else {
        panic!(
            "expected exactly the stop-time record, got {}",
            records.len()
        );
    };
    assert_eq!(*done, first_fault - 1);
    let flushed = Checkpoint::from_json_str(record).expect("a log's first record is a document");
    assert!(flushed.faults.is_empty(), "the fault came after the mark");
    // There was something to leak: the twin's record for the faulted
    // iteration carries the events and the fault it produced.
    let leaked = pdtune::trace::json::parse(&fine[first_fault - 1].1).unwrap();
    let len = |path: &[&str]| {
        let section = path.iter().try_fold(&leaked, |j, k| j.get(k));
        section.and_then(|j| j.as_arr()).map_or(0, <[_]>::len)
    };
    assert!(len(&["trace", "events"]) > 0 && len(&["faults"]) == 1);
    // Byte for byte the state at that boundary — as the tolerant twin,
    // which ran the same trajectory up to the fault, logged it. Only
    // the options signature differs (`max_faults` is part of it).
    let mut expected = fold(&fine, first_fault - 2);
    assert_eq!(expected.head.iteration, first_fault - 1);
    expected.options_sig = flushed.options_sig;
    assert_eq!(
        zero_clocks(flushed).to_json_string(),
        zero_clocks(expected).to_json_string()
    );
}

/// Frame records the way a log file holds them.
fn framed_log(records: &[(usize, String)]) -> (Vec<u8>, Vec<usize>) {
    let (mut log, mut frame, mut ends) = (Vec::new(), Vec::new(), Vec::new());
    for (_, record) in records {
        Checkpoint::frame_record(record, &mut frame);
        log.extend_from_slice(&frame);
        ends.push(log.len());
    }
    (log, ends)
}

/// Torn tails: cut a real session's log at every byte offset inside its
/// last record and `from_log` lands on the previous boundary — never an
/// error, never a half-applied record — from which the session resumes
/// to the uninterrupted report and trace. A byte flipped mid-log drops
/// its record and everything after it.
#[test]
fn a_log_torn_anywhere_in_its_last_record_resumes_from_the_one_before() {
    let (baseline, baseline_trace, records) = run_collecting(7);
    let baseline_fp = fingerprint(&baseline);
    let (log, ends) = framed_log(&records);
    let n = records.len();
    assert!(n >= 3);

    let (whole, kept) = Checkpoint::from_log(&log).unwrap();
    assert_eq!((whole.head.iteration, kept), (records[n - 1].0, log.len()));

    let previous = zero_clocks(fold(&records, n - 2)).to_json_string();
    // Every offset in release (the CI suite); a debug build re-parses
    // the log ~100x slower, so it takes every offset around the frame's
    // two ends and every 41st in between.
    let (start, end) = (ends[n - 2], log.len());
    let near_an_end = |cut: usize| cut - start < 64 || end - cut < 64;
    let cuts = (start..end)
        .filter(|&cut| !cfg!(debug_assertions) || near_an_end(cut) || (cut - start) % 41 == 0);
    for cut in cuts {
        let (ck, kept) = Checkpoint::from_log(&log[..cut])
            .unwrap_or_else(|e| panic!("cut at {cut} of {}: {e}", log.len()));
        assert_eq!(kept, ends[n - 2], "cut at {cut}");
        assert_eq!(ck.head.iteration, records[n - 2].0, "cut at {cut}");
        // Checking the whole state at every offset would be quadratic
        // in the log; the frame decides, so spot-check the fold.
        if (cut - ends[n - 2]) % 997 == 0 {
            assert_eq!(zero_clocks(ck).to_json_string(), previous, "cut at {cut}");
        }
    }
    let (torn, _) = Checkpoint::from_log(&log[..log.len() - 1]).unwrap();
    let (report, trace) = resume_from(&torn);
    assert_eq!(baseline_fp, fingerprint(&report));
    assert_eq!(baseline_trace, trace);

    // One flipped byte in record 1 (header, body, terminator): records
    // 1.. are dropped, record 0 survives, and it still resumes.
    for at in [
        ends[0] + 3,
        ends[0] + 20,
        (ends[0] + ends[1]) / 2,
        ends[1] - 1,
    ] {
        let mut flipped = log.clone();
        flipped[at] ^= 0x04;
        let (ck, kept) = Checkpoint::from_log(&flipped).unwrap();
        assert_eq!(
            (ck.head.iteration, kept),
            (records[0].0, ends[0]),
            "flip at {at}"
        );
    }
    let (first, _) = Checkpoint::from_log(&log[..ends[0]]).unwrap();
    let (report, trace) = resume_from(&first);
    assert_eq!(baseline_fp, fingerprint(&report));
    assert_eq!(baseline_trace, trace);
}

/// A resumed session with a sink extends the log it resumed from: its
/// records are deltas against the folded checkpoint, and the extended
/// log folds and resumes like one written in a single run.
#[test]
fn a_resumed_session_keeps_appending_to_its_log() {
    let (baseline, baseline_trace, records) = run_collecting(7);
    let baseline_fp = fingerprint(&baseline);
    let (db, w) = session_inputs();
    for k in [0, 1] {
        let ck = fold(&records, k);
        let tracer = Tracer::new();
        let appended: RefCell<Vec<(usize, String)>> = RefCell::new(records[..=k].to_vec());
        let sink = |done: usize, record: &str| {
            appended.borrow_mut().push((done, record.to_string()));
        };
        let report = tune_session(
            &db,
            &w,
            &options(),
            SessionCtl {
                tracer: Some(&tracer),
                checkpoint_every: 7,
                checkpoint_sink: Some(&sink),
                resume: Some(&ck),
                ..SessionCtl::default()
            },
        )
        .expect("resume with a sink succeeds");
        assert_eq!(baseline_fp, fingerprint(&report));
        assert_eq!(baseline_trace, tracer.to_jsonl());
        let appended = appended.into_inner();
        let boundaries = |r: &[(usize, String)]| r.iter().map(|(d, _)| *d).collect::<Vec<_>>();
        assert_eq!(
            boundaries(&appended),
            boundaries(&records),
            "resumed at record {k}"
        );
        assert_eq!(
            zero_clocks(fold(&appended, appended.len() - 1)).to_json_string(),
            zero_clocks(fold(&records, records.len() - 1)).to_json_string(),
            "resumed at record {k}"
        );
    }
}

#[test]
fn resume_rejects_a_mismatched_session() {
    let (plain, _, checkpoints) = run_collecting(10);
    let ck = fold(&checkpoints, 0);
    let (db, w) = session_inputs();

    // Different decision knobs -> different search -> refuse to resume.
    let mut other = options();
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
        let mut edited = ck.clone();
        edited.head.iteration = claimed;
        let err = tune_session(
            &db,
            &w,
            &options(),
            SessionCtl {
                resume: Some(&edited),
                ..SessionCtl::default()
            },
        )
        .expect_err("a checkpoint claiming unreplayable iterations must not resume");
        assert!(matches!(err, TuneError::Checkpoint(_)), "{err:?}");
    }

    // Every other field a resume verifies, edited alone: the refusal
    // names it. The ledger is edited on a budgeted session and the
    // setup costs on a warm-started one, where both are in play.
    let (_, _, budgeted) = run_collecting_opts(&options_budgeted(), 10);
    let budgeted = fold(&budgeted, 0);
    let warm_opts = TunerOptions {
        deployed: Some(plain.best.expect("the plain session recommends").config),
        ..options()
    };
    let (_, _, warm) = run_collecting_opts(&warm_opts, 10);
    let warm = fold(&warm, 0);
    type Edit = fn(&mut Checkpoint);
    let cases: [(&str, &Checkpoint, &TunerOptions, Edit); 10] = [
        ("rng_state", &budgeted, &options_budgeted(), |c| {
            c.head.rng_state ^= 1
        }),
        ("frontier_len", &budgeted, &options_budgeted(), |c| {
            c.head.frontier_len += 1
        }),
        ("budget_spent", &budgeted, &options_budgeted(), |c| {
            c.head.budget_spent += 1
        }),
        ("budget_skipped", &budgeted, &options_budgeted(), |c| {
            c.head.budget_skipped += 1
        }),
        ("best", &budgeted, &options_budgeted(), |c| {
            c.head.best = c.head.best.map(|(cost, size)| (cost + 1.0, size))
        }),
        ("initial_cost", &warm, &warm_opts, |c| c.initial_cost += 1.0),
        ("optimal_cost", &warm, &warm_opts, |c| c.optimal_cost += 1.0),
        ("deployed", &warm, &warm_opts, |c| {
            c.deployed = c.deployed.map(|(cost, size)| (cost, size + 1.0))
        }),
        ("relevance row", &ck, &options(), |c| {
            let row = c.relevance.iter().position(Option::is_some).unwrap();
            c.relevance[row] = None
        }),
        // The trace is dropped: a traced session resumes it below.
        ("trace", &ck, &options(), |c| c.trace = None),
    ];
    assert!(budgeted.head.best.is_some() && warm.deployed.is_some());
    for (field, base, opts, edit) in cases {
        let mut edited = base.clone();
        edit(&mut edited);
        let tracer = Tracer::new();
        let err = tune_session(
            &db,
            &w,
            opts,
            SessionCtl {
                tracer: (field == "trace").then_some(&tracer),
                resume: Some(&edited),
                ..SessionCtl::default()
            },
        )
        .expect_err("an edited checkpoint must not resume");
        assert!(
            matches!(&err, TuneError::Checkpoint(m) if m.contains(&format!(": {field} "))),
            "{field}: {err}"
        );
    }

    // The unedited checkpoint still resumes: the refusals above are the
    // edits' doing.
    let ok = tune_session(
        &db,
        &w,
        &options(),
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
        &options(),
        SessionCtl {
            tracer: None,
            checkpoint_every: 9,
            checkpoint_sink: Some(&sink),
            ..SessionCtl::default()
        },
    )
    .expect("untraced session succeeds");
    let checkpoints = collected.into_inner();
    assert!(checkpoints.len() >= 2, "expected several records");
    let zero = |r: &TuningReport| {
        let mut r = r.clone();
        r.elapsed = std::time::Duration::ZERO;
        format!("{r:#?}")
    };
    for (done, ck) in &fold_every_prefix(&checkpoints) {
        assert!(ck.trace.is_none());
        let resumed = tune_session(
            &db,
            &w,
            &options(),
            SessionCtl {
                resume: Some(ck),
                ..SessionCtl::default()
            },
        )
        .expect("untraced resume succeeds");
        assert_eq!(
            zero(&baseline),
            zero(&resumed),
            "untraced resume from iteration {done} diverged"
        );
    }
}

/// The approximate tier checkpoints its budget ledger mid-flight
/// (`budget_spent`/`budget_skipped`), and a budgeted session resumed
/// from any checkpoint finishes byte-identical
/// to the uninterrupted budgeted run, including the final remaining
/// budget and served-estimate counters.
#[test]
fn budgeted_resume_is_byte_identical_and_restores_the_ledger() {
    let (baseline, baseline_trace, checkpoints) = run_collecting_opts(&options_budgeted(), 7);
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

    for (done, ck) in &fold_every_prefix(&checkpoints) {
        let (report, trace) = resume_from_opts(ck, &options_budgeted());
        assert_eq!(
            baseline_fp,
            fingerprint(&report),
            "budgeted report diverged resuming from iteration {done}"
        );
        assert_eq!(
            baseline_trace, trace,
            "budgeted trace diverged resuming from iteration {done}"
        );
    }

    // The budget is a decision knob: a checkpoint from a budgeted
    // session must not resume under a different budget.
    let ck = fold(&checkpoints, 0);
    let (db, w) = session_inputs();
    let err = tune_session(
        &db,
        &w,
        &options(),
        SessionCtl {
            resume: Some(&ck),
            ..SessionCtl::default()
        },
    )
    .expect_err("a different call budget must not resume");
    assert!(matches!(err, TuneError::Checkpoint(_)), "{err:?}");
}
