//! CLI smoke tests: every subcommand runs end-to-end on a small
//! database and produces the expected sections.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn pdtune(args: &[&str]) -> (bool, String, String) {
    let (code, stdout, stderr) = pdtune_env(args, &[]);
    (code == 0, stdout, stderr)
}

/// Run the binary with extra environment variables, returning the raw
/// exit code so tests can check the documented code table.
fn pdtune_env(args: &[&str], env: &[(&str, &str)]) -> (i32, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pdtune"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("binary runs");
    (
        out.status.code().expect("no exit code (killed by signal?)"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn tune_prints_recommendation() {
    let (ok, stdout, stderr) = pdtune(&[
        "tune",
        "--db",
        "tpch",
        "--sf",
        "0.01",
        "--queries",
        "6",
        "--budget",
        "64M",
        "--iterations",
        "60",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("initial"), "{stdout}");
    assert!(stdout.contains("optimal"), "{stdout}");
    assert!(stdout.contains("recommended physical design"), "{stdout}");
}

/// The DDL the CLI recommends is that of the configuration it tuned to:
/// the structures the base configuration lacks, indexes on views
/// included — the lines the daemon's `report.txt` lists for the spec.
#[test]
fn tune_recommends_the_ddl_of_the_recommendation() {
    let (ok, stdout, stderr) = pdtune(&[
        "tune",
        "--db",
        "tpch",
        "--sf",
        "0.01",
        "--budget",
        "5M",
        "--iterations",
        "40",
    ]);
    assert!(ok, "stderr: {stderr}");
    let printed: Vec<&str> = stdout
        .lines()
        .skip_while(|l| *l != "recommended physical design:")
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .map(str::trim)
        .collect();
    let spec = pdtune::serve::JobSpec {
        sf: 0.01,
        budget: Some(5e6),
        iterations: 40,
        ..Default::default()
    };
    let db = spec.build_database().unwrap();
    let workload = spec.build_workload(&db).unwrap();
    let options = spec
        .tuner_options(None, pdtune::tuner::StopToken::new())
        .unwrap();
    let best = pdtune::tuner::tune(&db, &workload, &options)
        .best
        .expect("a configuration fits 5M");
    let base = pdtune::physical::Configuration::base(&db);
    assert_eq!(
        printed,
        pdtune::tuner::configuration_ddl(&db, &best.config, &base)
    );
    assert!(
        printed.iter().any(|l| l.contains(" ON mv")),
        "the recommendation indexes views: {printed:?}"
    );
}

/// A scale factor whose cardinality estimates overflow to infinity
/// must still finish: an infinitely large structure never fits the
/// budget, it does not hang the size model.
#[test]
fn tune_finishes_when_cardinalities_overflow() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pdtune"))
        .args([
            "tune",
            "--db",
            "tpch",
            "--sf",
            "1e100",
            "--queries",
            "4",
            "--iterations",
            "5",
            "--budget",
            "10M",
        ])
        .stdout(Stdio::null())
        .spawn()
        .expect("binary runs");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("tune at sf 1e100 did not finish within 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0));
}

#[test]
fn explain_shows_plan() {
    let (ok, stdout, stderr) = pdtune(&[
        "explain",
        "--db",
        "tpch",
        "--sf",
        "0.01",
        "--sql",
        "SELECT c_name FROM customer WHERE c_acctbal > 100",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("cost"), "{stdout}");
    assert!(stdout.contains("Project"), "{stdout}");
}

#[test]
fn explain_optimal_differs_from_base() {
    let sql = "SELECT c_name FROM customer WHERE c_acctbal > 9000";
    let (_, base_out, _) = pdtune(&["explain", "--db", "tpch", "--sf", "0.01", "--sql", sql]);
    let (ok, opt_out, stderr) = pdtune(&[
        "explain",
        "--db",
        "tpch",
        "--sf",
        "0.01",
        "--sql",
        sql,
        "--optimal",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert_ne!(base_out, opt_out, "optimal config should change the plan");
}

#[test]
fn compare_reports_both_tools() {
    let (ok, stdout, stderr) = pdtune(&[
        "compare",
        "--db",
        "bench",
        "--seed",
        "1",
        "--queries",
        "6",
        "--iterations",
        "40",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("PTT"), "{stdout}");
    assert!(stdout.contains("CTT"), "{stdout}");
    assert!(stdout.contains("dImprovement"), "{stdout}");
}

#[test]
fn corpus_lists_databases() {
    let (ok, stdout, _) = pdtune(&["corpus"]);
    assert!(ok);
    for name in ["tpch", "ds1", "ds2", "bench", "lineitem", "fact"] {
        assert!(stdout.contains(name), "missing {name}:\n{stdout}");
    }
}

#[test]
fn workload_file_round_trip() {
    let dir = std::env::temp_dir().join("pdtune_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("w.sql");
    std::fs::write(
        &path,
        "SELECT c_name FROM customer WHERE c_acctbal > 500;\n\
         SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority;",
    )
    .unwrap();
    let (ok, stdout, stderr) = pdtune(&[
        "tune",
        "--db",
        "tpch",
        "--sf",
        "0.01",
        "--workload",
        path.to_str().unwrap(),
        "--iterations",
        "40",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("2 statements"), "{stdout}");
}

#[test]
fn trace_flag_writes_parsable_jsonl() {
    let dir = std::env::temp_dir().join("pdtune_cli_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tune.jsonl");
    let (ok, stdout, stderr) = pdtune(&[
        "tune",
        "--db",
        "bench",
        "--seed",
        "3",
        "--queries",
        "5",
        "--iterations",
        "30",
        "--trace",
        path.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("trace:"), "{stdout}");
    let jsonl = std::fs::read_to_string(&path).expect("trace file written");
    let mut lines = 0;
    for line in jsonl.lines() {
        let v = pdtune::trace::json::parse(line).expect("valid JSONL");
        assert!(v.get("kind").is_some());
        lines += 1;
    }
    assert!(lines > 5, "only {lines} trace events");
}

#[test]
fn validate_bounds_flag_reports_a_clean_oracle() {
    let (ok, stdout, stderr) = pdtune(&[
        "tune",
        "--db",
        "bench",
        "--seed",
        "3",
        "--queries",
        "5",
        "--iterations",
        "30",
        "--updates",
        "0.5",
        "--validate-bounds",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("bound oracle:"), "{stdout}");
    assert!(stdout.contains("0 violations"), "{stdout}");
}

#[test]
fn bad_flags_fail_cleanly() {
    let (code, _, stderr) = pdtune_env(&["tune", "--db", "nosuch"], &[]);
    assert_eq!(code, 2, "usage errors exit 2");
    assert!(stderr.contains("unknown database"), "{stderr}");
    let (code2, _, stderr2) = pdtune_env(&["frobnicate"], &[]);
    assert_eq!(code2, 2);
    assert!(stderr2.contains("unknown command"), "{stderr2}");
    // The flag of the deleted hash-map backend is gone, not ignored
    // (spelled in two pieces so a grep for the flag stays empty).
    let (code3, _, stderr3) = pdtune_env(&["tune", concat!("--no-flat", "-hot-path")], &[]);
    assert_eq!(code3, 2);
    assert!(stderr3.contains("unknown flag"), "{stderr3}");
    // So is the flag of a reference engine: those are test oracles now.
    let (code4, _, stderr4) = pdtune_env(&["tune", "--no-incremental"], &[]);
    assert_eq!(code4, 2);
    assert!(
        stderr4.contains("unknown flag `--no-incremental`"),
        "{stderr4}"
    );
    // A flag the command does not read is an error, not ignored: each of
    // these used to run something other than what was asked for. None
    // needs a daemon — parsing fails before the client looks for one.
    for (args, flag) in [
        (&["job", "submit", "--workload", "f.sql"][..], "--workload"),
        (&["job", "submit", "--trace", "t.jsonl"], "--trace"),
        (&["replay", "--db", "ds1"], "--db"),
        (
            &["replay", "--optimizer-call-budget", "5"],
            "--optimizer-call-budget",
        ),
        (&["explain", "--slots", "2"], "--slots"),
    ] {
        let (code, _, stderr) = pdtune_env(args, &[]);
        assert_eq!(code, 2, "{args:?} should exit 2: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.contains(&format!("`{flag}` is not a `{}", args[0])),
            "{args:?}: {first}"
        );
    }
}

#[test]
fn degenerate_budgets_are_usage_errors() {
    for bad in ["NaN", "-5G", "0", "inf"] {
        let (code, _, stderr) = pdtune_env(&["tune", "--budget", bad], &[]);
        assert_eq!(code, 2, "--budget {bad} should exit 2: {stderr}");
        assert!(stderr.contains("byte size"), "{stderr}");
    }
    // The single-shot path checks its request by the daemon's rules.
    for (flag, bad, names) in [
        ("--sf", "-1", "scale factor -1"),
        ("--sf", "nan", "scale factor NaN"),
        ("--iterations", "0", "iterations must be at least 1"),
        ("--updates", "7", "update ratio 7"),
    ] {
        let (code, _, stderr) = pdtune_env(&["tune", flag, bad], &[]);
        assert_eq!(code, 2, "{flag} {bad} should exit 2: {stderr}");
        assert!(stderr.contains(names), "{flag} {bad}: {stderr}");
    }
}

#[test]
fn deadline_stop_is_a_successful_anytime_run() {
    let (code, stdout, stderr) = pdtune_env(
        &[
            "tune",
            "--db",
            "bench",
            "--seed",
            "3",
            "--queries",
            "5",
            "--iterations",
            "30",
            "--budget",
            "4M",
            "--deadline",
            "0",
        ],
        &[],
    );
    assert_eq!(code, 0, "deadline stop must exit 0: {stderr}");
    assert!(stdout.contains("(deadline)"), "{stdout}");
    assert!(stdout.contains("initial"), "{stdout}");
    assert!(stdout.contains("best"), "{stdout}");
}

#[test]
fn checkpoint_resume_round_trip_is_byte_identical() {
    let dir = std::env::temp_dir().join("pdtune_cli_ckpt_test");
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("ck.json");
    let t1 = dir.join("full.jsonl");
    let t2 = dir.join("resumed.jsonl");
    let base = [
        "tune",
        "--db",
        "bench",
        "--seed",
        "3",
        "--queries",
        "5",
        "--iterations",
        "30",
        "--budget",
        "4M",
    ];
    let run = |extra: &[&str]| {
        let args: Vec<&str> = base.iter().chain(extra).copied().collect();
        pdtune_env(&args, &[])
    };
    let (code, _, stderr) = run(&[
        "--checkpoint",
        ck.to_str().unwrap(),
        "--checkpoint-every",
        "2",
        "--trace",
        t1.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("checkpoint:"), "{stderr}");
    assert!(ck.exists(), "checkpoint file written");
    let (code, stdout, stderr) = run(&[
        "--resume",
        ck.to_str().unwrap(),
        "--trace",
        t2.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("resuming from"), "{stdout}");
    let full = std::fs::read_to_string(&t1).unwrap();
    let resumed = std::fs::read_to_string(&t2).unwrap();
    assert_eq!(
        full, resumed,
        "resumed trace must match the uninterrupted run"
    );

    // Tear the log's tail as a crash mid-append would, then resume from
    // it *and* checkpoint to it: the torn record is dropped, the session
    // picks up at the boundary before it and keeps appending to the same
    // file, which ends up a whole log again.
    let whole = std::fs::read(&ck).unwrap();
    assert!(
        whole.iter().filter(|&&b| b == b'\n').count() >= 2,
        "several records"
    );
    let (last, _) = pdtune::tuner::Checkpoint::from_log(&whole).unwrap();
    std::fs::write(&ck, &whole[..whole.len() - 40]).unwrap();
    let (code, stdout, stderr) = run(&[
        "--resume",
        ck.to_str().unwrap(),
        "--checkpoint",
        ck.to_str().unwrap(),
        "--checkpoint-every",
        "2",
        "--trace",
        t2.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("resuming from"), "{stdout}");
    assert_eq!(full, std::fs::read_to_string(&t2).unwrap());
    let appended = std::fs::read(&ck).unwrap();
    let (folded, kept) = pdtune::tuner::Checkpoint::from_log(&appended).unwrap();
    assert_eq!(kept, appended.len(), "no torn bytes left in the log");
    assert_eq!(
        folded.head.iteration, last.head.iteration,
        "the lost record was rewritten"
    );
    assert_eq!(appended, whole, "same session, same records, same log");
}

/// `--resume A --checkpoint B` with two files: B starts with A's
/// checkpoint and goes on from there, so B alone resumes the session to
/// the uninterrupted trace.
#[test]
fn resume_into_another_log_starts_it_with_the_checkpoint() {
    let dir = std::env::temp_dir().join("pdtune_cli_fork_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let base = [
        "tune",
        "--db",
        "bench",
        "--seed",
        "3",
        "--queries",
        "5",
        "--iterations",
        "30",
        "--budget",
        "4M",
        "--checkpoint-every",
        "2",
    ];
    let run = |extra: &[&str]| {
        let args: Vec<&str> = base.iter().chain(extra).copied().collect();
        pdtune_env(&args, &[])
    };
    let (full, whole) = (path("full.jsonl"), path("whole.log"));
    let (code, _, stderr) = run(&["--checkpoint", &whole, "--trace", &full]);
    assert_eq!(code, 0, "{stderr}");
    let whole_log = std::fs::read(&whole).unwrap();
    let (last, _) = pdtune::tuner::Checkpoint::from_log(&whole_log).unwrap();

    // A: the log as a crash after its second record left it.
    let second_end = whole_log
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .nth(1)
        .map(|(i, _)| i + 1)
        .expect("several records");
    let (a, b) = (path("a.log"), path("b.log"));
    std::fs::write(&a, &whole_log[..second_end]).unwrap();
    let (at_a, _) = pdtune::tuner::Checkpoint::from_log(&whole_log[..second_end]).unwrap();
    assert!(
        at_a.head.iteration < last.head.iteration,
        "A stops mid-session"
    );

    let t2 = path("resumed.jsonl");
    let (code, stdout, stderr) = run(&["--resume", &a, "--checkpoint", &b, "--trace", &t2]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("resuming from"), "{stdout}");
    let full_trace = std::fs::read_to_string(&full).unwrap();
    assert_eq!(full_trace, std::fs::read_to_string(&t2).unwrap());
    assert_eq!(
        std::fs::read(&a).unwrap(),
        &whole_log[..second_end],
        "A is only read"
    );
    let b_log = std::fs::read(&b).unwrap();
    let (at_b, kept) = pdtune::tuner::Checkpoint::from_log(&b_log).unwrap();
    assert_eq!(kept, b_log.len());
    assert!(at_b.head.iteration >= at_a.head.iteration);
    assert_eq!(
        at_b.head.iteration, last.head.iteration,
        "B reaches the whole log's end"
    );
    // B's first record is A's fold, as one complete document.
    let (first, _) = pdtune::tuner::Checkpoint::from_log(
        &b_log[..=b_log.iter().position(|&b| b == b'\n').unwrap()],
    )
    .unwrap();
    assert_eq!(first.to_json_string(), at_a.to_json_string());

    let t3 = path("from_b.jsonl");
    let (code, _, stderr) = run(&["--resume", &b, "--trace", &t3]);
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(full_trace, std::fs::read_to_string(&t3).unwrap());

    // A missing resume source is an I/O error (exit 3), not a fresh log.
    let c = path("c.log");
    let (code, _, stderr) = run(&["--resume", &path("absent.log"), "--checkpoint", &c]);
    assert_eq!(code, 3, "{stderr}");
    assert!(!std::path::Path::new(&c).exists(), "no log was started");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_garbage_exits_with_checkpoint_error() {
    let dir = std::env::temp_dir().join("pdtune_cli_badck_test");
    std::fs::create_dir_all(&dir).unwrap();
    // Garbage, and intact logs earlier builds wrote (versions 6 and 7).
    let old = |v: u32| {
        let mut log = Vec::new();
        let record = format!(r#"{{"version":{v},"kind":"pdtune-checkpoint"}}"#);
        pdtune::tuner::Checkpoint::frame_record(&record, &mut log);
        log
    };
    for (name, bytes, why) in [
        (
            "bad.json",
            b"{\"not\": \"a checkpoint\"}".to_vec(),
            "checkpoint",
        ),
        (
            "v6.log",
            old(6),
            "checkpoint version 6 was written by an earlier build",
        ),
        (
            "v7.log",
            old(7),
            "checkpoint version 7 was written by an earlier build",
        ),
    ] {
        let ck = dir.join(name);
        std::fs::write(&ck, bytes).unwrap();
        let (code, _, stderr) = pdtune_env(
            &[
                "tune",
                "--db",
                "bench",
                "--queries",
                "5",
                "--resume",
                ck.to_str().unwrap(),
            ],
            &[],
        );
        assert_eq!(code, 5, "{name}: checkpoint errors exit 5: {stderr}");
        assert!(stderr.contains(why), "{name}: {stderr}");
    }
    let (code, _, _) = pdtune_env(
        &[
            "tune",
            "--db",
            "bench",
            "--queries",
            "5",
            "--resume",
            "/nonexistent/ck.json",
        ],
        &[],
    );
    assert_eq!(code, 3, "unreadable checkpoint paths exit 3 (I/O)");
}

#[test]
fn fault_storm_exits_with_fault_limit_code() {
    let (code, stdout, stderr) = pdtune_env(
        &[
            "tune",
            "--db",
            "bench",
            "--seed",
            "3",
            "--queries",
            "5",
            "--iterations",
            "30",
            "--budget",
            "4M",
            "--max-faults",
            "1",
        ],
        &[("PDTUNE_FAULTS", "7:1.0")],
    );
    assert_eq!(code, 6, "fault limit must exit 6: {stderr}");
    assert!(stdout.contains("faults contained"), "{stdout}");
    assert!(stderr.contains("contained faults"), "{stderr}");
}

#[test]
fn contained_faults_do_not_fail_the_run() {
    let (code, _, stderr) = pdtune_env(
        &[
            "tune",
            "--db",
            "bench",
            "--seed",
            "3",
            "--queries",
            "5",
            "--iterations",
            "30",
            "--budget",
            "4M",
        ],
        &[("PDTUNE_FAULTS", "7:0.05")],
    );
    assert_eq!(code, 0, "contained faults stay under the limit: {stderr}");
}

#[test]
fn malformed_fault_plan_is_a_usage_error() {
    let (code, _, stderr) = pdtune_env(
        &["tune", "--db", "bench", "--queries", "5"],
        &[("PDTUNE_FAULTS", "not-a-plan")],
    );
    assert_eq!(code, 2, "{stderr}");
}
