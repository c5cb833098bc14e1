//! Cross-session shared what-if store: K identical TPC-H jobs
//! submitted to an in-process 1-slot daemon, measuring how many real
//! optimizer invocations each job costs with the shared store on. Job
//! 1 pays the cold price; jobs 2..K must be served from the store at
//! ≥3x fewer real invocations, with report and trace byte-identical
//! to job 1's solo cold run. A second daemon without the store prices
//! the same K jobs as the makespan baseline, and a third daemon
//! restarted on the warm-store file proves the heat survives a
//! restart.
//!
//! The acceptance floors (≥3x fewer real invocations for jobs 2..K
//! and for the warm restart, improved makespan) are asserted in
//! release builds only: debug builds re-invoke the real optimizer to
//! cross-validate every cross-session serve, which deliberately
//! cancels the saving being measured (the JSON marks such runs
//! `degraded`). Byte-identity is asserted in every build.
//!
//! Writes `BENCH_shared.json` into the current directory (run from
//! the repo root) in addition to the shared results directory.

use pdt_bench::json::{pretty, ToJson};
use pdt_bench::json_struct;
use pdt_bench::{render_table, write_json};
use pdt_opt::invocation_count;
use pdt_serve::{serve, Client, JobSpec, ServeOptions};
use pdt_tuner::StopToken;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const K_JOBS: usize = 3;

struct Row {
    job: usize,
    daemon: String,
    real_invocations: u64,
    wall_ms: f64,
    /// Real-invocation reduction versus the shared daemon's cold job 1.
    reduction: f64,
}
json_struct!(Row {
    job,
    daemon,
    real_invocations,
    wall_ms,
    reduction
});

struct Summary {
    k_jobs: usize,
    nproc: usize,
    /// Debug builds cross-validate every shared serve with a real
    /// optimizer call, so the invocation/makespan floors cannot hold;
    /// they are skipped and the run is marked degraded.
    degraded: bool,
    cold_invocations: u64,
    worst_warm_invocations: u64,
    warm_reduction: f64,
    restart_invocations: u64,
    restart_reduction: f64,
    makespan_shared_ms: f64,
    makespan_baseline_ms: f64,
    makespan_improvement: f64,
    shared_hits: i64,
    shared_plan_hits: i64,
    byte_identical: bool,
    rows: Vec<Row>,
}
json_struct!(Summary {
    k_jobs,
    nproc,
    degraded,
    cold_invocations,
    worst_warm_invocations,
    warm_reduction,
    restart_invocations,
    restart_reduction,
    makespan_shared_ms,
    makespan_baseline_ms,
    makespan_improvement,
    shared_hits,
    shared_plan_hits,
    byte_identical,
    rows
});

/// The probe job: small enough to finish in seconds, big enough that
/// the cold run makes dozens of real optimizer invocations *after*
/// derived costing has served everything it can — exactly the calls
/// the shared store is built to eliminate.
fn spec() -> JobSpec {
    JobSpec {
        sf: 0.05,
        queries: Some(10),
        // UPDATE statements keep the §3.3.2 bound gap wide, so the
        // relaxation loop makes real what-if calls that derived
        // costing alone cannot serve — the shared store's territory.
        updates: Some(0.5),
        budget: Some(8_000_000.0),
        iterations: 60,
        ..JobSpec::default()
    }
}

/// An in-process daemon on its own scratch dir, plus the client and
/// the thread to join after a `shutdown` op.
struct Harness {
    client: Client,
    data_dir: PathBuf,
    thread: std::thread::JoinHandle<()>,
}

fn start_daemon(tag: &str, shared: bool, warm: Option<&Path>) -> Harness {
    let data_dir =
        std::env::temp_dir().join(format!("pdtune-exp-shared-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).expect("scratch dir");
    let opts = ServeOptions {
        data_dir: data_dir.clone(),
        slots: 1,
        shared_store: shared,
        warm_store: warm.map(Path::to_path_buf),
        ..ServeOptions::default()
    };
    let thread = std::thread::spawn(move || {
        serve(opts, StopToken::default()).expect("daemon serves");
    });
    let endpoint_file = data_dir.join("endpoint");
    let deadline = Instant::now() + Duration::from_secs(20);
    let client = loop {
        if let Ok(addr) = std::fs::read_to_string(&endpoint_file) {
            let c = Client::new(addr.trim());
            if c.call_once(r#"{"op":"ping"}"#).is_ok() {
                break c;
            }
        }
        assert!(Instant::now() < deadline, "daemon never became reachable");
        std::thread::sleep(Duration::from_millis(20));
    };
    Harness {
        client,
        data_dir,
        thread,
    }
}

impl Harness {
    /// Submit the probe job, wait for `done`, and return the session
    /// id with the job's real-invocation and wall-clock cost.
    fn run_job(&self) -> (String, u64, f64) {
        let before = invocation_count();
        let start = Instant::now();
        let id = self.client.submit(&spec().to_json()).expect("submit");
        let (state, err) = self
            .client
            .wait(&id, Duration::from_millis(20))
            .expect("wait");
        assert_eq!(state, "done", "job {id} failed: {err:?}");
        let wall = start.elapsed().as_secs_f64() * 1e3;
        (id, invocation_count() - before, wall)
    }

    fn stat(&self, field: &str) -> i64 {
        self.client
            .call(r#"{"op":"stats"}"#)
            .expect("stats")
            .get(field)
            .and_then(|v| v.as_i64())
            .unwrap_or_else(|| panic!("stats has no integer `{field}`"))
    }

    fn artifact(&self, id: &str, name: &str) -> String {
        let path = self.data_dir.join("sessions").join(id).join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
    }

    fn shutdown(self) -> PathBuf {
        self.client
            .call(r#"{"op":"shutdown"}"#)
            .expect("shutdown op");
        self.thread.join().expect("daemon thread");
        self.data_dir
    }
}

fn main() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let degraded = cfg!(debug_assertions);
    let warm_file = std::env::temp_dir().join(format!(
        "pdtune-exp-shared-{}-warm.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&warm_file);
    let mut rows = Vec::new();

    // Shared daemon: job 1 cold, jobs 2..K served from the store.
    let shared = start_daemon("shared", true, Some(&warm_file));
    let shared_start = Instant::now();
    let jobs: Vec<(String, u64, f64)> = (0..K_JOBS).map(|_| shared.run_job()).collect();
    let makespan_shared_ms = shared_start.elapsed().as_secs_f64() * 1e3;
    let cold_invocations = jobs[0].1;
    let worst_warm_invocations = jobs[1..].iter().map(|j| j.1).max().unwrap_or(0);
    for (i, (_, calls, wall)) in jobs.iter().enumerate() {
        rows.push(Row {
            job: i + 1,
            daemon: "shared".to_string(),
            real_invocations: *calls,
            wall_ms: *wall,
            reduction: cold_invocations as f64 / (*calls).max(1) as f64,
        });
    }
    let (shared_hits, shared_plan_hits) =
        (shared.stat("shared_hits"), shared.stat("shared_plan_hits"));
    assert!(
        shared_hits + shared_plan_hits > 0,
        "jobs 2..{K_JOBS} never served from the shared store"
    );

    // Byte identity: every warm job's artifacts equal cold job 1's.
    let mut byte_identical = true;
    for (id, _, _) in &jobs[1..] {
        for name in ["report.txt", "trace.jsonl"] {
            let (a, b) = (shared.artifact(&jobs[0].0, name), shared.artifact(id, name));
            byte_identical &= a == b;
            assert_eq!(a, b, "{id}/{name} diverged from the cold run");
        }
    }
    let cold_report = shared.artifact(&jobs[0].0, "report.txt");
    let cold_trace = shared.artifact(&jobs[0].0, "trace.jsonl");
    shared.shutdown();

    // Baseline daemon: same K jobs, no store — the makespan yardstick.
    let baseline = start_daemon("baseline", false, None);
    let baseline_start = Instant::now();
    let base_jobs: Vec<(String, u64, f64)> = (0..K_JOBS).map(|_| baseline.run_job()).collect();
    let makespan_baseline_ms = baseline_start.elapsed().as_secs_f64() * 1e3;
    for (i, (_, calls, wall)) in base_jobs.iter().enumerate() {
        rows.push(Row {
            job: i + 1,
            daemon: "baseline".to_string(),
            real_invocations: *calls,
            wall_ms: *wall,
            reduction: cold_invocations as f64 / (*calls).max(1) as f64,
        });
    }
    baseline.shutdown();

    // Restarted daemon on the warm-store file: the heat survives.
    let restarted = start_daemon("restarted", true, Some(&warm_file));
    let (restart_id, restart_invocations, restart_wall) = restarted.run_job();
    rows.push(Row {
        job: 1,
        daemon: "warm-restart".to_string(),
        real_invocations: restart_invocations,
        wall_ms: restart_wall,
        reduction: cold_invocations as f64 / restart_invocations.max(1) as f64,
    });
    assert_eq!(
        cold_report,
        restarted.artifact(&restart_id, "report.txt"),
        "warm-restart report diverged from the cold run"
    );
    assert_eq!(
        cold_trace,
        restarted.artifact(&restart_id, "trace.jsonl"),
        "warm-restart trace diverged from the cold run"
    );
    restarted.shutdown();

    let warm_reduction = cold_invocations as f64 / worst_warm_invocations.max(1) as f64;
    let restart_reduction = cold_invocations as f64 / restart_invocations.max(1) as f64;
    let makespan_improvement = makespan_baseline_ms / makespan_shared_ms;
    if !degraded {
        assert!(
            warm_reduction >= 3.0,
            "jobs 2..{K_JOBS} only dropped real invocations \
             {cold_invocations} -> {worst_warm_invocations}, \
             {warm_reduction:.2}x is below the 3x floor"
        );
        assert!(
            restart_reduction >= 3.0,
            "warm restart only dropped real invocations \
             {cold_invocations} -> {restart_invocations}, \
             {restart_reduction:.2}x is below the 3x floor"
        );
        assert!(
            makespan_improvement > 1.0,
            "K-job makespan did not improve: shared {makespan_shared_ms:.0} ms \
             vs baseline {makespan_baseline_ms:.0} ms"
        );
    }

    let summary = Summary {
        k_jobs: K_JOBS,
        nproc,
        degraded,
        cold_invocations,
        worst_warm_invocations,
        warm_reduction,
        restart_invocations,
        restart_reduction,
        makespan_shared_ms,
        makespan_baseline_ms,
        makespan_improvement,
        shared_hits,
        shared_plan_hits,
        byte_identical,
        rows,
    };

    let table: Vec<Vec<String>> = summary
        .rows
        .iter()
        .map(|r| {
            vec![
                r.daemon.clone(),
                r.job.to_string(),
                r.real_invocations.to_string(),
                format!("{:.0}", r.wall_ms),
                format!("{:.2}x", r.reduction),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["daemon", "job", "real calls", "wall ms", "vs cold"],
            &table
        )
    );
    println!(
        "warm reduction: {:.2}x   restart reduction: {:.2}x   makespan: {:.0} ms vs {:.0} ms ({:.2}x){}",
        summary.warm_reduction,
        summary.restart_reduction,
        summary.makespan_shared_ms,
        summary.makespan_baseline_ms,
        summary.makespan_improvement,
        if summary.degraded {
            "   [degraded: debug build cross-validates every serve]"
        } else {
            ""
        }
    );

    let _ = std::fs::remove_file(&warm_file);
    write_json("BENCH_shared", &summary);
    std::fs::write("BENCH_shared.json", pretty(&summary.to_json()))
        .expect("write BENCH_shared.json");
    eprintln!("[saved BENCH_shared.json]");
}
