//! End-to-end tests for `pdtune serve`: crash recovery with
//! byte-identical artifacts, overload backpressure, per-session fault
//! isolation, graceful shutdown, the serve-mode exit codes, and the
//! shared store's call floor (a second identical job, and a job after
//! a warm restart, make ≥3x fewer real optimizer invocations).
//!
//! Each test runs the real binary against its own scratch data dir and
//! drives it over the real socket with `pdtune job` — the same path a
//! user takes.

#![cfg(unix)]

use pdtune::tuner::Checkpoint;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_pdtune")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdtune-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Start a daemon on `data_dir` and wait until its endpoint answers.
///
/// Every caller eventually waits on the returned child (via
/// `shutdown_and_join` or an explicit kill + wait), which clippy's
/// escape analysis cannot see.
#[allow(clippy::zombie_processes)]
fn start_daemon(data_dir: &Path, extra: &[&str]) -> Child {
    let mut cmd = Command::new(bin());
    cmd.arg("serve")
        .arg("--data-dir")
        .arg(data_dir)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("daemon starts");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if data_dir.join("endpoint").exists() {
            let (code, _, _) = job(data_dir, &["ping"]);
            if code == 0 {
                return child;
            }
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("daemon never became reachable");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Run `pdtune job <args...>` against the daemon on `data_dir`.
fn job(data_dir: &Path, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(bin())
        .arg("job")
        .args(args)
        .arg("--data-dir")
        .arg(data_dir)
        .output()
        .expect("job command runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A small-but-nontrivial job: the 2M space budget forces real
/// relaxation iterations (and therefore real checkpoints).
fn submit_args<'a>(extra: &'a [&'a str]) -> Vec<&'a str> {
    let mut v = vec![
        "submit",
        "--sf",
        "0.01",
        "--queries",
        "6",
        "--budget",
        "2M",
        "--iterations",
        "20",
        "--checkpoint-every",
        "2",
    ];
    v.extend_from_slice(extra);
    v
}

fn submit(data_dir: &Path, extra: &[&str]) -> String {
    let (code, stdout, stderr) = job(data_dir, &submit_args(extra));
    assert_eq!(code, 0, "submit failed: {stderr}");
    let id = stdout.trim().to_string();
    assert!(id.starts_with('s'), "unexpected submit output: {stdout}");
    id
}

fn wait_done(data_dir: &Path, id: &str) -> (i32, String) {
    let (code, stdout, _) = job(data_dir, &["wait", "--id", id]);
    (code, stdout.trim().to_string())
}

fn shutdown_and_join(data_dir: &Path, mut daemon: Child) {
    let (code, _, stderr) = job(data_dir, &["shutdown"]);
    assert_eq!(code, 0, "shutdown op failed: {stderr}");
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "graceful shutdown must exit 0");
}

fn session_file(data_dir: &Path, id: &str, name: &str) -> PathBuf {
    data_dir.join("sessions").join(id).join(name)
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

const CRASH_SPECS: [&[&str]; 3] = [&[], &["--seed", "1"], &["--queries", "5", "--seed", "2"]];

fn submit_crash_specs(data_dir: &Path) -> Vec<String> {
    CRASH_SPECS
        .iter()
        .map(|spec| submit(data_dir, spec))
        .collect()
}

/// Leave `log` the way a `kill -9` in the middle of an append leaves
/// it: its last record half-written. (A log's first record is installed
/// by rename, so a log of one record is torn by a half-written second.)
fn tear_last_record(log: &Path) {
    let bytes = std::fs::read(log).unwrap();
    // One record per line (`<len> <checksum> {json}\n`; JSON strings
    // escape their newlines).
    if bytes.last() != Some(&b'\n') {
        return; // the kill itself landed mid-append
    }
    let body = &bytes[..bytes.len() - 1];
    let torn = match body.iter().rposition(|&b| b == b'\n') {
        Some(nl) => bytes[..nl + 1 + (body.len() - nl) / 2].to_vec(),
        None => [&bytes[..], &bytes[..bytes.len() / 2]].concat(),
    };
    std::fs::write(log, torn).unwrap();
}

/// SIGKILL a daemon running the crash specs once a checkpoint record
/// has landed, optionally tear every unfinished session's log, restart
/// on the same data dir and wait for every job. Returns the job ids and
/// how many logs were torn.
fn crash_and_recover(crash_dir: &Path, tear: bool) -> (Vec<String>, usize) {
    let mut daemon = start_daemon(crash_dir, &["--slots", "2"]);
    let crash_ids = submit_crash_specs(crash_dir);
    let deadline = Instant::now() + Duration::from_secs(30);
    while !crash_ids
        .iter()
        .any(|id| session_file(crash_dir, id, "checkpoint.log").exists())
    {
        assert!(Instant::now() < deadline, "no checkpoint ever appeared");
        std::thread::sleep(Duration::from_millis(2));
    }
    // SIGKILL: no handlers, no drain — the crash case.
    unsafe { libc_kill(daemon.id() as i32, 9) };
    let _ = daemon.wait();

    // Every accepted job must still be registered, none terminal-
    // by-luck into a lost state.
    let mut torn = 0;
    for id in &crash_ids {
        let manifest = read(&session_file(crash_dir, id, "manifest.json"));
        let done = manifest.contains("\"state\":\"done\"");
        assert!(
            manifest.contains("\"state\":\"queued\"")
                || manifest.contains("\"state\":\"running\"")
                || done,
            "unexpected post-kill manifest for {id}: {manifest}"
        );
        let log = session_file(crash_dir, id, "checkpoint.log");
        if tear && !done && log.exists() {
            tear_last_record(&log);
            torn += 1;
        }
    }

    // Restart on the same data dir: recovery resumes everything.
    let daemon = start_daemon(crash_dir, &["--slots", "2"]);
    for id in &crash_ids {
        let (code, state) = wait_done(crash_dir, id);
        assert_eq!((code, state.as_str()), (0, "done"), "session {id}");
    }
    shutdown_and_join(crash_dir, daemon);
    (crash_ids, torn)
}

/// Run the crash specs to completion, no interruption.
fn control_run(control_dir: &Path) -> Vec<String> {
    let daemon = start_daemon(control_dir, &["--slots", "2"]);
    let control_ids = submit_crash_specs(control_dir);
    for id in &control_ids {
        let (code, state) = wait_done(control_dir, id);
        assert_eq!((code, state.as_str()), (0, "done"));
    }
    shutdown_and_join(control_dir, daemon);
    control_ids
}

fn assert_same_artifacts(control: (&Path, &[String]), crash: (&Path, &[String]), label: &str) {
    for (control_id, crash_id) in control.1.iter().zip(crash.1) {
        for artifact in ["report.txt", "trace.jsonl"] {
            assert_eq!(
                read(&session_file(control.0, control_id, artifact)),
                read(&session_file(crash.0, crash_id, artifact)),
                "{label} {crash_id}: recovered {artifact} must be byte-identical"
            );
        }
    }
}

/// The tentpole contract: SIGKILL the daemon mid-run with several
/// concurrent sessions in flight, restart it on the same data dir, and
/// every session must complete with a report and trace byte-identical
/// to an uninterrupted control run.
#[test]
fn kill_dash_nine_recovery_is_byte_identical() {
    let control_dir = scratch("ctl");
    let crash_dir = scratch("crash");
    let control_ids = control_run(&control_dir);
    let (crash_ids, _) = crash_and_recover(&crash_dir, false);
    assert_same_artifacts(
        (&control_dir, &control_ids),
        (&crash_dir, &crash_ids),
        "kill -9",
    );
    let _ = std::fs::remove_dir_all(&control_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// The same crash landing *inside* an append: every unfinished
/// session's checkpoint log ends in a half-written record. Recovery
/// drops the torn record, resumes from the boundary before it, keeps
/// appending to the same log — and the artifacts still do not move.
#[test]
fn kill_mid_append_recovery_is_byte_identical() {
    let control_dir = scratch("ctl-torn");
    let control_ids = control_run(&control_dir);
    // Which sessions are mid-run when the kill lands is a race; the
    // tear needs at least one, so a run that caught none is repeated.
    let mut torn_any = false;
    for attempt in 0..5 {
        let crash_dir = scratch(&format!("crash-torn-{attempt}"));
        let (crash_ids, torn) = crash_and_recover(&crash_dir, true);
        assert_same_artifacts(
            (&control_dir, &control_ids),
            (&crash_dir, &crash_ids),
            &format!("torn={torn}"),
        );
        let _ = std::fs::remove_dir_all(&crash_dir);
        if torn > 0 {
            torn_any = true;
            break;
        }
    }
    assert!(torn_any, "five crashes and never a session mid-run");
    let _ = std::fs::remove_dir_all(&control_dir);
}

/// The checkpoint a log folds to after each of its records, rendered
/// with the per-phase wall clock zeroed: a record stores how long each
/// phase took, the one field two runs of one session may differ in.
fn checkpoint_records(log: &Path) -> Vec<String> {
    let bytes = std::fs::read(log).unwrap();
    let ends = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1);
    ends.map(|end| {
        let (mut ck, kept) = Checkpoint::from_log(&bytes[..end]).unwrap();
        assert_eq!(kept, end, "{}: record torn", log.display());
        for p in ck.trace.iter_mut().flat_map(|t| &mut t.state.phases) {
            p.elapsed = Duration::ZERO;
        }
        ck.to_json_string()
    })
    .collect()
}

/// Jobs over the same `(db, sf)` run against one shared catalog. A job
/// that ran second, on the catalog its predecessor built, must leave
/// the same artifacts, byte for byte, as the same job run alone on a
/// fresh daemon that builds the catalog for it.
#[test]
fn a_shared_catalog_leaves_the_artifacts_of_a_fresh_one() {
    let shared_dir = scratch("catalog-shared");
    let daemon = start_daemon(&shared_dir, &["--slots", "1"]);
    let shared_ids = [
        submit(&shared_dir, &[]),
        submit(&shared_dir, &["--seed", "5"]),
    ];
    for id in &shared_ids {
        assert_eq!(wait_done(&shared_dir, id), (0, "done".to_string()), "{id}");
    }
    shutdown_and_join(&shared_dir, daemon);

    let alone_dir = scratch("catalog-alone");
    let daemon = start_daemon(&alone_dir, &["--slots", "1"]);
    let alone = submit(&alone_dir, &["--seed", "5"]);
    assert_eq!(wait_done(&alone_dir, &alone), (0, "done".to_string()));
    shutdown_and_join(&alone_dir, daemon);

    for artifact in ["report.txt", "trace.jsonl"] {
        assert_eq!(
            read(&session_file(&shared_dir, &shared_ids[1], artifact)),
            read(&session_file(&alone_dir, &alone, artifact)),
            "{artifact}: a shared catalog must not move a byte"
        );
    }
    let records = checkpoint_records(&session_file(&shared_dir, &shared_ids[1], "checkpoint.log"));
    assert!(!records.is_empty(), "the job never checkpointed");
    assert_eq!(
        records,
        checkpoint_records(&session_file(&alone_dir, &alone, "checkpoint.log")),
        "checkpoint.log: a shared catalog must not move a record"
    );
    let _ = std::fs::remove_dir_all(&shared_dir);
    let _ = std::fs::remove_dir_all(&alone_dir);
}

extern "C" {
    #[link_name = "kill"]
    fn libc_kill(pid: i32, sig: i32) -> i32;
}

/// Overload: a single-slot daemon with a tiny queue must answer
/// rejected submits with explicit `retry_after_ms` backpressure, and
/// every *accepted* job must still reach a terminal state.
/// One spec, two front ends: `pdtune tune --checkpoint --trace` and a
/// daemon job drive the same session through the same log writer, so
/// they leave the same trace and the same checkpoint records.
#[test]
fn tune_and_a_daemon_job_leave_the_same_trace_and_log() {
    let dir = scratch("cli-vs-daemon");
    let daemon = start_daemon(&dir, &["--slots", "1"]);
    let id = submit(&dir, &[]);
    assert_eq!(wait_done(&dir, &id), (0, "done".to_string()));
    shutdown_and_join(&dir, daemon);

    let (log, trace) = (dir.join("cli.log"), dir.join("cli.jsonl"));
    let mut args = vec!["tune"];
    args.extend(&submit_args(&[])[1..]);
    let out = Command::new(bin())
        .args(&args)
        .arg("--checkpoint")
        .arg(&log)
        .arg("--trace")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        read(&trace),
        read(&session_file(&dir, &id, "trace.jsonl")),
        "trace.jsonl"
    );
    let records = checkpoint_records(&log);
    assert!(records.len() > 1, "the session checkpointed once");
    assert_eq!(
        records,
        checkpoint_records(&session_file(&dir, &id, "checkpoint.log")),
        "checkpoint.log"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_backpressure_rejects_explicitly_and_loses_nothing() {
    let dir = scratch("overload");
    let daemon = start_daemon(&dir, &["--slots", "1", "--queue-cap", "1"]);

    // Submit via the raw protocol (no client-side retry) so the
    // overload response itself is observable.
    let endpoint = std::fs::read_to_string(dir.join("endpoint")).unwrap();
    let endpoint = endpoint.trim();
    let raw_submit = || -> String {
        use std::io::{BufRead, BufReader, Write};
        let mut s = std::net::TcpStream::connect(endpoint).unwrap();
        writeln!(
            s,
            r#"{{"op":"submit","spec":{{"db":"tpch","sf":0.01,"queries":6,"budget":2000000.0,"iterations":20}}}}"#
        )
        .unwrap();
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line).unwrap();
        line
    };

    let mut accepted = Vec::new();
    let mut rejections = 0;
    for _ in 0..8 {
        let response = raw_submit();
        if response.contains("\"ok\":true") {
            let id = response
                .split("\"id\":\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .expect("ack carries id")
                .to_string();
            accepted.push(id);
        } else {
            assert!(
                response.contains("retry_after_ms"),
                "rejection must carry the backpressure hint: {response}"
            );
            rejections += 1;
        }
    }
    assert!(
        rejections > 0,
        "8 fast submits into slots=1/cap=1 must overload"
    );
    assert!(!accepted.is_empty(), "some submits must be accepted");

    // Zero dropped accepted jobs: each acked id reaches `done`.
    for id in &accepted {
        let (code, state) = wait_done(&dir, id);
        assert_eq!((code, state.as_str()), (0, "done"), "accepted job {id}");
    }

    // The client-side retry path: with backpressure honoring, a
    // patient submit eventually gets in despite the tiny queue.
    let id = submit(&dir, &[]);
    let (code, state) = wait_done(&dir, &id);
    assert_eq!((code, state.as_str()), (0, "done"));

    shutdown_and_join(&dir, daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fault isolation: a session that trips its fault limit (or gives up
/// on durable writes) lands in `failed`; the daemon and a healthy
/// concurrent session are unaffected.
#[test]
fn poisoned_sessions_fail_alone() {
    let dir = scratch("isolation");
    let daemon = start_daemon(&dir, &["--slots", "2"]);

    let poisoned = submit(&dir, &["--faults", "7:1.0", "--max-faults", "2"]);
    let io_poisoned = submit(&dir, &["--io-faults", "1:1.0", "--checkpoint-every", "1"]);
    let healthy = submit(&dir, &[]);

    let (code, _, stderr) = job(&dir, &["wait", "--id", &poisoned]);
    assert_eq!(code, 6, "fault-limit session maps to exit 6: {stderr}");
    assert!(stderr.contains("contained faults"), "{stderr}");

    let (code, _, stderr) = job(&dir, &["wait", "--id", &io_poisoned]);
    assert_eq!(code, 3, "I/O give-up maps to exit 3: {stderr}");
    assert!(stderr.contains("checkpoint write"), "{stderr}");

    let (code, state) = wait_done(&dir, &healthy);
    assert_eq!(
        (code, state.as_str()),
        (0, "done"),
        "healthy session must be unaffected by its poisoned neighbors"
    );

    // The daemon itself is alive and serving.
    let (code, stdout, _) = job(&dir, &["ping"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("\"ok\":true"));

    shutdown_and_join(&dir, daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful shutdown: SIGTERM drains a live session to a checkpoint
/// and exits 0; a restarted daemon completes the session.
#[test]
fn sigterm_drains_and_restart_completes() {
    let dir = scratch("sigterm");
    let mut daemon = start_daemon(&dir, &["--slots", "1"]);
    let id = submit(&dir, &[]);

    // Let the session get going, then SIGTERM the daemon.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, stdout, _) = job(&dir, &["status", "--id", &id]);
        if stdout.contains("\"state\":\"running\"") || stdout.contains("\"state\":\"done\"") {
            break;
        }
        assert!(Instant::now() < deadline, "session never started");
        std::thread::sleep(Duration::from_millis(20));
    }
    unsafe { libc_kill(daemon.id() as i32, 15) };
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "SIGTERM drain must exit 0");

    let daemon = start_daemon(&dir, &[]);
    let (code, state) = wait_done(&dir, &id);
    assert_eq!((code, state.as_str()), (0, "done"));
    shutdown_and_join(&dir, daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Watch streams the session's JSONL trace events live and ends with
/// the terminal line; the streamed events match the durable trace.
#[test]
fn watch_streams_the_full_trace() {
    let dir = scratch("watch");
    let daemon = start_daemon(&dir, &["--slots", "1"]);
    let id = submit(&dir, &[]);
    let (code, stdout, stderr) = job(&dir, &["watch", "--id", &id]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("done"), "{stderr}");
    let (code, state) = wait_done(&dir, &id);
    assert_eq!((code, state.as_str()), (0, "done"));
    let durable = read(&session_file(&dir, &id, "trace.jsonl"));
    assert_eq!(
        stdout, durable,
        "watched stream must equal the durable trace byte-for-byte"
    );
    shutdown_and_join(&dir, daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Exit code 8: binding an impossible address fails fast.
#[test]
fn bind_failure_exits_8() {
    let dir = scratch("bind");
    let out = Command::new(bin())
        .args(["serve", "--addr", "203.0.113.1:1", "--data-dir"])
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(8),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot serve on"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Exit code 9: a corrupt manifest refuses startup rather than
/// silently dropping the job it describes.
#[test]
fn corrupt_manifest_exits_9() {
    let dir = scratch("corrupt");
    let bad = dir.join("sessions").join("s0001");
    std::fs::create_dir_all(&bad).unwrap();
    std::fs::write(bad.join("manifest.json"), b"{definitely not a manifest").unwrap();
    let out = Command::new(bin())
        .args(["serve", "--data-dir"])
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(9),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("corrupt job manifest"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Read one integer counter out of `pdtune job stats`' one-per-line
/// output.
fn stat_i64(data_dir: &Path, field: &str) -> i64 {
    let (code, stdout, stderr) = job(data_dir, &["stats"]);
    assert_eq!(code, 0, "stats failed: {stderr}");
    for line in stdout.lines() {
        let mut it = line.split_whitespace();
        if it.next() == Some(field) {
            let v = it
                .next()
                .unwrap_or_else(|| panic!("`{field}` has no value: {line}"));
            return v
                .parse()
                .unwrap_or_else(|e| panic!("`{field}` is not an integer ({e}): {line}"));
        }
    }
    panic!("stats output has no `{field}` field:\n{stdout}");
}

/// One raw protocol round-trip (no client retries or parsing).
fn raw_call(data_dir: &Path, request: &str) -> String {
    use std::io::{BufRead, BufReader, Write};
    let endpoint = std::fs::read_to_string(data_dir.join("endpoint")).unwrap();
    let mut s = std::net::TcpStream::connect(endpoint.trim()).unwrap();
    writeln!(s, "{request}").unwrap();
    let mut line = String::new();
    BufReader::new(s).read_line(&mut line).unwrap();
    line
}

/// The `stats` op answers with every cumulative daemon counter and the
/// shared-store tallies — as integers, with `ok:true`, even when the
/// request line carries arbitrary junk fields — and a completed job
/// moves the cumulative side.
#[test]
fn stats_reports_daemon_totals_and_shared_counters() {
    let dir = scratch("stats");
    let daemon = start_daemon(&dir, &["--slots", "1", "--shared-store"]);

    for request in [
        r#"{"op":"stats"}"#,
        r#"{"op":"stats","junk":[1,{"x":null},"y"],"from":-3,"id":7}"#,
        r#"{"id":null,"op":"stats","spec":{"db":"tpch"}}"#,
    ] {
        let response = raw_call(&dir, request);
        assert!(response.contains("\"ok\":true"), "{request} -> {response}");
        for field in [
            "sessions_completed",
            "optimizer_calls",
            "cache_hits",
            "cache_misses",
            "plan_hits",
            "invocation_hits",
            "real_invocations",
            "shared_entries",
            "shared_hits",
            "shared_plan_hits",
            "shared_misses",
            "shared_inserts",
            "shared_evicted",
        ] {
            assert!(
                response.contains(&format!("\"{field}\":")),
                "stats response is missing `{field}`: {response}"
            );
        }
        assert!(response.contains("\"shared_store\":true"), "{response}");
    }

    assert_eq!(stat_i64(&dir, "sessions_completed"), 0);
    let id = submit(&dir, &[]);
    let (code, state) = wait_done(&dir, &id);
    assert_eq!((code, state.as_str()), (0, "done"));
    assert_eq!(stat_i64(&dir, "sessions_completed"), 1);
    assert!(stat_i64(&dir, "optimizer_calls") > 0);
    assert!(stat_i64(&dir, "real_invocations") > 0);

    shutdown_and_join(&dir, daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shared-store contract end to end: the second of two identical
/// jobs is served from the store (≥3x fewer real optimizer invocations
/// in release builds — debug builds re-invoke the optimizer to
/// cross-validate every serve, so only the byte-identity side is
/// checked there), with report and trace byte-identical to the cold
/// first job; a graceful shutdown persists the heat to the warm-store
/// file and a restarted daemon keeps the speedup.
#[test]
fn shared_store_serves_second_job_and_warm_restart_keeps_heat() {
    let dir = scratch("shared");
    let warm = dir.join("warm-store.json");
    let warm_arg = warm.to_str().unwrap().to_string();
    let daemon = start_daemon(
        &dir,
        &["--slots", "1", "--shared-store", "--warm-store", &warm_arg],
    );

    let base = stat_i64(&dir, "real_invocations");
    let first = submit(&dir, &[]);
    let (code, state) = wait_done(&dir, &first);
    assert_eq!((code, state.as_str()), (0, "done"));
    let after_first = stat_i64(&dir, "real_invocations");

    let second = submit(&dir, &[]);
    let (code, state) = wait_done(&dir, &second);
    assert_eq!((code, state.as_str()), (0, "done"));
    let after_second = stat_i64(&dir, "real_invocations");

    let (cold_calls, warm_calls) = (after_first - base, after_second - after_first);
    assert!(cold_calls > 0, "the first job must invoke the optimizer");
    assert!(
        stat_i64(&dir, "shared_hits") + stat_i64(&dir, "shared_plan_hits") > 0,
        "the second identical job never served from the shared store"
    );
    if !cfg!(debug_assertions) {
        assert!(
            warm_calls * 3 <= cold_calls,
            "second identical job must need >=3x fewer real optimizer calls: \
             cold {cold_calls} vs warm {warm_calls}"
        );
    }
    for name in ["report.txt", "trace.jsonl"] {
        assert_eq!(
            read(&session_file(&dir, &first, name)),
            read(&session_file(&dir, &second, name)),
            "{name}: shared-store serves must not change a byte of output"
        );
    }

    // Graceful shutdown persists the store; restart keeps the heat.
    shutdown_and_join(&dir, daemon);
    let dump = read(&warm);
    assert!(
        dump.contains("\"kind\":\"pdtune-warm-store\"") && dump.contains("\"entries\":["),
        "warm-store file not written on drain: {dump}"
    );

    let daemon = start_daemon(&dir, &["--slots", "1", "--warm-store", &warm_arg]);
    assert!(
        stat_i64(&dir, "shared_entries") > 0,
        "restarted daemon must load the warm store"
    );
    let restart_base = stat_i64(&dir, "real_invocations");
    let third = submit(&dir, &[]);
    let (code, state) = wait_done(&dir, &third);
    assert_eq!((code, state.as_str()), (0, "done"));
    let restart_calls = stat_i64(&dir, "real_invocations") - restart_base;
    if !cfg!(debug_assertions) {
        assert!(
            restart_calls * 3 <= cold_calls,
            "warm-store restart must preserve the speedup: \
             cold {cold_calls} vs restarted {restart_calls}"
        );
    }
    for name in ["report.txt", "trace.jsonl"] {
        assert_eq!(
            read(&session_file(&dir, &first, name)),
            read(&session_file(&dir, &third, name)),
            "{name}: warm-store serves must not change a byte of output"
        );
    }
    shutdown_and_join(&dir, daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A truncated or corrupt warm-store file must never take the daemon
/// down: it logs, cold-starts with an empty store, and rewrites a
/// valid warm file on the next graceful drain.
#[test]
fn corrupt_warm_store_cold_starts_and_is_rewritten() {
    let dir = scratch("warm-corrupt");
    let warm = dir.join("warm-store.json");
    let warm_arg = warm.to_str().unwrap().to_string();
    for garbage in [
        &b"{\"version\":1,\"kind\":\"pdtune-warm-store\",\"entri"[..],
        b"not json at all",
        b"{\"version\":99,\"kind\":\"pdtune-warm-store\",\"entries\":[]}",
    ] {
        std::fs::write(&warm, garbage).unwrap();
        let daemon = start_daemon(&dir, &["--slots", "1", "--warm-store", &warm_arg]);
        assert_eq!(
            stat_i64(&dir, "shared_entries"),
            0,
            "a corrupt warm store must cold-start empty"
        );
        shutdown_and_join(&dir, daemon);
    }
    // After a graceful drain the file is valid again (empty store).
    let dump = read(&warm);
    assert!(
        dump.contains("\"kind\":\"pdtune-warm-store\""),
        "drain must rewrite a parseable warm file: {dump}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Warm start across sessions: `--warm-from` copies the source
/// session's final configuration into the new session's directory at
/// submit time (so recovery stays self-contained), the warm job runs to
/// completion, and a bogus source is rejected at submit with an
/// explicit error rather than silently degrading to a cold start.
#[test]
fn warm_from_seeds_submit_and_rejects_unknown_source() {
    let dir = scratch("warm-from");
    let daemon = start_daemon(&dir, &["--slots", "1", "--shared-store"]);

    // Index-only so the final configuration has a portable encoding
    // (view-bearing results leave no warm-start artifact by design).
    let first = submit(&dir, &["--indexes-only"]);
    let (code, state) = wait_done(&dir, &first);
    assert_eq!((code, state.as_str()), (0, "done"));
    assert!(
        session_file(&dir, &first, "result.json").exists(),
        "finished index-only session must persist its final configuration"
    );

    let second = submit(&dir, &["--indexes-only", "--warm-from", &first]);
    assert!(
        session_file(&dir, &second, "deployed.json").exists(),
        "warm_from must copy the source configuration at submit time"
    );
    let (code, state) = wait_done(&dir, &second);
    assert_eq!((code, state.as_str()), (0, "done"));
    // The warm job's floor is the source configuration, and both jobs
    // tuned the identical workload — the recommendation cannot regress.
    let warm_report = read(&session_file(&dir, &second, "report.txt"));
    assert!(!warm_report.is_empty());

    // Unknown source: rejected at submit, before a session exists.
    let (code, stdout, stderr) = job(&dir, &submit_args(&["--warm-from", "s9999"]));
    assert_ne!(code, 0, "submit with an unknown warm_from source must fail");
    assert!(
        stderr.contains("no such session"),
        "stdout: {stdout} stderr: {stderr}"
    );

    // A session that is not done yet is also rejected explicitly. Two
    // back-to-back submits on the single slot leave the second queued,
    // so it is reliably non-terminal when the warm_from submit lands.
    let running = submit(&dir, &[]);
    let queued = submit(&dir, &[]);
    let (code, _, stderr) = job(&dir, &submit_args(&["--warm-from", &queued]));
    assert_ne!(code, 0);
    assert!(stderr.contains("not done"), "stderr: {stderr}");
    let _ = wait_done(&dir, &running);
    let _ = wait_done(&dir, &queued);

    shutdown_and_join(&dir, daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cancel: a canceled session is terminal, persisted, and maps to the
/// interrupted exit code on wait.
#[test]
fn cancel_is_terminal_and_durable() {
    let dir = scratch("cancel");
    let daemon = start_daemon(&dir, &["--slots", "1"]);
    // Occupy the single slot so the second job stays queued.
    let running = submit(&dir, &[]);
    let queued = submit(&dir, &[]);
    let (code, stdout, _) = job(&dir, &["cancel", "--id", &queued]);
    assert_eq!(code, 0, "{stdout}");
    let (code, state, _) = job(&dir, &["wait", "--id", &queued]);
    assert_eq!(code, 130, "canceled maps to the interrupted exit code");
    assert_eq!(state.trim(), "canceled");
    let (code, state) = wait_done(&dir, &running);
    assert_eq!((code, state.as_str()), (0, "done"));
    // Durability: the canceled state survives a restart.
    shutdown_and_join(&dir, daemon);
    let manifest = read(&session_file(&dir, &queued, "manifest.json"));
    assert!(manifest.contains("\"state\":\"canceled\""), "{manifest}");
    let _ = std::fs::remove_dir_all(&dir);
}
