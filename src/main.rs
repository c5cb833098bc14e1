//! `pdtune` — command-line physical design tuning.
//!
//! ```text
//! pdtune tune    --db tpch --sf 0.1 --budget 256MB [--workload FILE] [--indexes-only]
//! pdtune explain --db tpch --sf 0.1 --sql "SELECT ..." [--optimal]
//! pdtune compare --db ds1 --seed 3 --queries 12
//! pdtune corpus
//! ```
//!
//! Every flag is one row of [`FLAGS`]: parsing, the OPTIONS block of the
//! usage text and both flag errors (unknown; not read by this command)
//! are derived from the table. Every command that tunes builds its
//! database and built-in workload through one validated [`JobSpec`] —
//! the request the daemon persists.

#![deny(clippy::too_many_lines)]

use pdtune::baseline::{BaselineAdvisor, BaselineOptions};
use pdtune::catalog::Database;
use pdtune::expr::Binder;
use pdtune::prelude::*;
use pdtune::serve::{CheckpointLog, DurableWriter, JobSpec};
use pdtune::tuner::instrument::gather_optimal_configuration;
use pdtune::tuner::{configuration_ddl, StopReason};
use pdtune::workloads::bench::{bench_database, BenchParams};
use pdtune::workloads::star::{star_database, StarParams};
use pdtune::workloads::{tpch, WorkloadSpec};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, TuneError::Usage(_)) {
                eprintln!("\n{}", usage());
            }
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(args: &[String]) -> Result<(), TuneError> {
    let Some(command) = args.first().map(String::as_str) else {
        return Err(TuneError::Usage("missing command".to_string()));
    };
    if command == "job" {
        // `pdtune job <action> [flags]` — the action comes before the
        // flag list.
        let Some(action) = args.get(1).map(String::as_str) else {
            return Err(TuneError::Usage(
                "job needs an action (submit|status|wait|watch|cancel|list|stats|ping|shutdown)"
                    .to_string(),
            ));
        };
        let cmd = if action == "submit" {
            Cmd::Submit
        } else {
            Cmd::Job
        };
        let opts = parse(cmd, &format!("job {action}"), &args[2..])?;
        return cmd_job(action, &opts);
    }
    type Handler = fn(&CliOptions) -> Result<(), TuneError>;
    let (cmd, handler): (Cmd, Handler) = match command {
        "tune" => (Cmd::Tune, cmd_tune),
        "replay" => (Cmd::Replay, cmd_replay),
        "serve" => (Cmd::Serve, cmd_serve),
        "explain" => (Cmd::Explain, cmd_explain),
        "compare" => (Cmd::Compare, cmd_compare),
        "corpus" => (Cmd::Corpus, |_| cmd_corpus()),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            return Ok(());
        }
        other => return Err(TuneError::Usage(format!("unknown command `{other}`"))),
    };
    handler(&parse(cmd, command, &args[1..])?)
}

/// A command, as far as flags go; the discriminant is its bit in
/// [`Flag::cmds`]. `Job` is every `job` action but `submit`.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    Tune = 1,
    Replay = 2,
    Serve = 4,
    Submit = 8,
    Job = 16,
    Explain = 32,
    Compare = 64,
    /// Reads no flag.
    Corpus = 128,
}

const TUNE: u8 = Cmd::Tune as u8;
const REPLAY: u8 = Cmd::Replay as u8;
const SERVE: u8 = Cmd::Serve as u8;
const SUBMIT: u8 = Cmd::Submit as u8;
const JOB: u8 = Cmd::Job as u8;
const EXPLAIN: u8 = Cmd::Explain as u8;
const COMPARE: u8 = Cmd::Compare as u8;
/// The commands that tune one request.
const SESSION: u8 = TUNE | SUBMIT | COMPARE;

/// One command-line flag.
struct Flag {
    name: &'static str,
    /// Placeholder of the value the flag takes; `None` for a switch.
    value: Option<&'static str>,
    /// Bit set of the [`Cmd`]s that read the flag.
    cmds: u8,
    /// Usage text; the renderer indents continuation lines.
    help: &'static str,
    /// Parse, range-check and store the value (`""` for a switch).
    set: fn(&mut CliOptions, &str) -> Result<(), String>,
}

fn num<T: std::str::FromStr>(v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e: T::Err| e.to_string())
}

fn at_least_one(v: &str) -> Result<usize, String> {
    match num(v)? {
        0 => Err("must be at least 1".to_string()),
        n => Ok(n),
    }
}

fn unit_interval(v: &str) -> Result<f64, String> {
    match num(v)? {
        x if (0.0..=1.0).contains(&x) => Ok(x),
        _ => Err("must be in [0, 1]".to_string()),
    }
}

fn non_negative(v: &str) -> Result<f64, String> {
    match num::<f64>(v)? {
        x if x.is_finite() && x >= 0.0 => Ok(x),
        _ => Err("must be a non-negative number".to_string()),
    }
}

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--db", value: Some("<tpch|ds1|ds2|bench>"), cmds: SESSION | EXPLAIN,
           help: "benchmark database            [default: tpch]",
           set: |o, v| { o.spec.db = v.to_string(); Ok(()) } },
    Flag { name: "--sf", value: Some("<float>"), cmds: SESSION | EXPLAIN | REPLAY,
           help: "TPC-H scale factor            [default: 0.1]",
           set: |o, v| num(v).map(|x| o.spec.sf = x) },
    Flag { name: "--budget", value: Some("<bytes|K|M|G>"), cmds: SESSION | REPLAY,
           help: "storage budget, e.g. 256M     [default: none]",
           set: |o, v| parse_bytes(v).map(|x| o.spec.budget = Some(x)) },
    Flag { name: "--workload", value: Some("<file.sql>"), cmds: TUNE | COMPARE,
           help: "semicolon-separated SQL file  [default: built-in]",
           set: |o, v| { o.workload_file = Some(v.to_string()); Ok(()) } },
    Flag { name: "--queries", value: Some("<n>"), cmds: SESSION,
           help: "built-in workload size        [default: all]",
           set: |o, v| num(v).map(|x| o.spec.queries = Some(x)) },
    Flag { name: "--seed", value: Some("<n>"), cmds: SESSION | REPLAY,
           help: "workload generator seed       [default: 0]",
           set: |o, v| num(v).map(|x| o.spec.seed = x) },
    Flag { name: "--iterations", value: Some("<n>"), cmds: SESSION | REPLAY,
           help: "relaxation iteration budget   [default: 300]",
           set: |o, v| num(v).map(|x| o.spec.iterations = x) },
    Flag { name: "--indexes-only", value: None, cmds: SESSION | REPLAY | EXPLAIN,
           help: "do not recommend materialized views",
           set: |o, _| { o.spec.indexes_only = true; Ok(()) } },
    Flag { name: "--updates", value: Some("<ratio>"), cmds: SESSION | REPLAY,
           help: "mix in DML statements (e.g. 0.5)",
           set: |o, v| num(v).map(|x| o.spec.updates = Some(x)) },
    Flag { name: "--optimizer-call-budget", value: Some("<n>"), cmds: TUNE | SUBMIT,
           help: "approximate tier: spend at most n real\n\
                  what-if invocations, serving bound-gap\n\
                  midpoint estimates elsewhere; exhausting\n\
                  the budget reports best-so-far (exit 0,\n\
                  like --deadline)  [default: unlimited]",
           set: |o, v| num(v).map(|x| o.spec.call_budget = Some(x)) },
    Flag { name: "--trace", value: Some("<file.jsonl>"), cmds: TUNE | REPLAY,
           help: "write structured search telemetry as JSONL",
           set: |o, v| { o.trace = Some(v.to_string()); Ok(()) } },
    Flag { name: "--validate-bounds", value: None, cmds: TUNE,
           help: "re-optimize after each step and check the\n\
                  §3.3.2 cost upper bound (fails on violation)",
           set: |o, _| { o.validate_bounds = true; Ok(()) } },
    Flag { name: "--deadline", value: Some("<ms>"), cmds: TUNE,
           help: "anytime stop: report best-so-far after this\n\
                  many milliseconds (exit 0)",
           set: |o, v| num(v).map(|x| o.deadline = Some(x)) },
    Flag { name: "--checkpoint", value: Some("<file>"), cmds: TUNE,
           help: "append a checkpoint record to this log on the\n\
                  cadence below and when the session stops\n\
                  early (a new session replaces the file)",
           set: |o, v| { o.checkpoint = Some(v.to_string()); Ok(()) } },
    Flag { name: "--checkpoint-every", value: Some("<n>"), cmds: TUNE | SUBMIT,
           help: "checkpoint cadence in completed iterations\n\
                  [default: 10]",
           set: |o, v| at_least_one(v).map(|x| o.spec.checkpoint_every = x) },
    Flag { name: "--resume", value: Some("<file>"), cmds: TUNE,
           help: "resume a prior session from its checkpoint\n\
                  log (a record torn by a crash is dropped);\n\
                  the resumed report/trace are byte-identical\n\
                  to an uninterrupted run, and --checkpoint on\n\
                  the same file keeps appending to it",
           set: |o, v| { o.resume = Some(v.to_string()); Ok(()) } },
    Flag { name: "--max-faults", value: Some("<n>"), cmds: TUNE | SUBMIT,
           help: "abort (exit 6) after more than n contained\n\
                  faults                         [default: 16]",
           set: |o, v| num(v).map(|x| o.spec.max_faults = Some(x)) },
    Flag { name: "--sql", value: Some("<text>"), cmds: EXPLAIN,
           help: "query text (explain)",
           set: |o, v| { o.sql = Some(v.to_string()); Ok(()) } },
    Flag { name: "--optimal", value: None, cmds: EXPLAIN,
           help: "explain under the optimal configuration",
           set: |o, _| { o.optimal = true; Ok(()) } },
    Flag { name: "--epochs", value: Some("<n>"), cmds: REPLAY,
           help: "replay: epochs in the stream  [default: 8]",
           set: |o, v| at_least_one(v).map(|x| o.epochs = x) },
    Flag { name: "--per-epoch", value: Some("<n>"), cmds: REPLAY,
           help: "replay: statements per epoch  [default: 12]",
           set: |o, v| num(v).map(|x| o.per_epoch = x) },
    Flag { name: "--window-cap", value: Some("<n>"), cmds: REPLAY,
           help: "replay: distinct statements the sliding\n\
                  window keeps                  [default: 256]",
           set: |o, v| at_least_one(v).map(|x| o.window_cap = x) },
    Flag { name: "--decay", value: Some("<0..1>"), cmds: REPLAY,
           help: "replay: per-epoch weight decay [default: 0.5]",
           set: |o, v| unit_interval(v).map(|x| o.decay = x) },
    Flag { name: "--drift-threshold", value: Some("<x>"), cmds: REPLAY,
           help: "replay: relative window-cost drift that\n\
                  triggers a re-tune            [default: 0.15]",
           set: |o, v| non_negative(v).map(|x| o.drift_threshold = x) },
    Flag { name: "--shared-store-cap", value: Some("<n>"), cmds: REPLAY | SERVE,
           help: "replay, serve: entries the shared what-if\n\
                  store may hold                [default: 65536]",
           set: |o, v| at_least_one(v).map(|x| o.shared_store_cap = Some(x)) },
    Flag { name: "--addr", value: Some("<host:port>"), cmds: SERVE | SUBMIT | JOB,
           help: "serve: listen address [default: 127.0.0.1:0];\n\
                  job: the daemon's address",
           set: |o, v| { o.addr = Some(v.to_string()); Ok(()) } },
    Flag { name: "--data-dir", value: Some("<dir>"), cmds: SERVE | SUBMIT | JOB,
           help: "serve: durable state  [default: pdtune-serve];\n\
                  job: read the daemon's address from here",
           set: |o, v| { o.data_dir = Some(v.to_string()); Ok(()) } },
    Flag { name: "--slots", value: Some("<n>"), cmds: SERVE,
           help: "serve: concurrent sessions    [default: 2]",
           set: |o, v| at_least_one(v).map(|x| o.slots = x) },
    Flag { name: "--queue-cap", value: Some("<n>"), cmds: SERVE,
           help: "serve: queued jobs before the daemon answers\n\
                  overloaded                    [default: 16]",
           set: |o, v| num(v).map(|x| o.queue_cap = x) },
    Flag { name: "--global-call-budget", value: Some("<n>"), cmds: SERVE,
           help: "serve: what-if call budget shared out among\n\
                  admitted jobs                 [default: none]",
           set: |o, v| num(v).map(|x| o.global_call_budget = Some(x)) },
    Flag { name: "--retry-after-ms", value: Some("<ms>"), cmds: SERVE,
           help: "serve: retry hint sent with an overloaded\n\
                  answer                        [default: 250]",
           set: |o, v| num(v).map(|x| o.retry_after_ms = x) },
    Flag { name: "--shared-store", value: None, cmds: SERVE,
           help: "serve: answer one tenant's what-if calls from\n\
                  another's with matching schema + query +\n\
                  relevant subset; reports and traces stay\n\
                  byte-identical to solo runs",
           set: |o, _| { o.shared_store = true; Ok(()) } },
    Flag { name: "--warm-store", value: Some("<file>"), cmds: SERVE,
           help: "serve: persist the shared store across\n\
                  graceful restarts (implies --shared-store; a\n\
                  corrupt file cold-starts, never fails the daemon)",
           set: |o, v| { o.warm_store = Some(v.to_string()); Ok(()) } },
    Flag { name: "--id", value: Some("<sNNNN>"), cmds: JOB,
           help: "job: the session to address",
           set: |o, v| { o.id = Some(v.to_string()); Ok(()) } },
    Flag { name: "--wait", value: None, cmds: SUBMIT,
           help: "job submit: block until the session is\n\
                  terminal, exit with its outcome",
           set: |o, _| { o.wait = true; Ok(()) } },
    Flag { name: "--faults", value: Some("<seed:rate>"), cmds: SUBMIT,
           help: "job submit: eval-layer fault injection (testing)",
           set: |o, v| { o.spec.faults = Some(v.to_string()); Ok(()) } },
    Flag { name: "--io-faults", value: Some("<seed:rate>"), cmds: SUBMIT,
           help: "job submit: checkpoint-write fault injection\n\
                  (testing)",
           set: |o, v| { o.spec.io_faults = Some(v.to_string()); Ok(()) } },
    Flag { name: "--warm-from", value: Some("<sNNNN>"), cmds: SUBMIT,
           help: "job submit: start from a finished session's\n\
                  final configuration, copied at submit (start\n\
                  point + never-regress floor)",
           set: |o, v| { o.spec.warm_from = Some(v.to_string()); Ok(()) } },
];

/// Parse `args` as the flags of `cmd` (`label` names it in errors).
fn parse(cmd: Cmd, label: &str, args: &[String]) -> Result<CliOptions, TuneError> {
    let mut o = CliOptions::defaults();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(flag) = FLAGS.iter().find(|f| f.name == arg) else {
            return Err(TuneError::Usage(format!("unknown flag `{arg}`")));
        };
        if flag.cmds & cmd as u8 == 0 {
            let reads = FLAGS.iter().filter(|f| f.cmds & cmd as u8 != 0);
            let mut reads: Vec<&str> = reads.map(|f| f.name).collect();
            if reads.is_empty() {
                reads.push("no flags");
            }
            return Err(TuneError::Usage(format!(
                "`{arg}` is not a `{label}` flag (`{label}` reads: {})",
                reads.join(" ")
            )));
        }
        let value = match flag.value {
            Some(_) => it
                .next()
                .ok_or_else(|| TuneError::Usage(format!("{arg} needs a value")))?,
            None => "",
        };
        (flag.set)(&mut o, value).map_err(|e| TuneError::Usage(format!("{arg}: {e}")))?;
    }
    o.spec.validate().map_err(TuneError::Usage)?;
    Ok(o)
}

/// The usage text: the OPTIONS block is rendered from [`FLAGS`].
fn usage() -> String {
    let mut options = String::new();
    for f in FLAGS {
        let head = format!("{} {}", f.name, f.value.unwrap_or(""));
        let mut help = f.help.lines();
        let _ = writeln!(options, "  {head:<30}{}", help.next().unwrap_or(""));
        for line in help {
            let _ = writeln!(options, "{:32}{line}", "");
        }
    }
    format!("{USAGE_COMMANDS}\nOPTIONS:\n{options}\n{USAGE_MODES}")
}

const USAGE_COMMANDS: &str = "\
pdtune — relaxation-based automatic physical database tuning
(Bruno & Chaudhuri, SIGMOD 2005)

USAGE:
  pdtune tune    [options]      run a tuning session and print the recommendation
  pdtune replay  [options]      online re-tuning over a drifting stream (see REPLAY MODE)
  pdtune serve   [options]      run the crash-safe tuning daemon (see SERVE MODE)
  pdtune job <action> [options] talk to a running daemon (see SERVE MODE)
  pdtune explain [options]      show a query's plan (optionally under the optimal config)
  pdtune compare [options]      relaxation (PTT) vs bottom-up (CTT) on one workload
  pdtune corpus                 list the built-in benchmark databases

A flag a command does not read is a usage error, not ignored; the
error lists the flags the command does read.
";

const USAGE_MODES: &str = "\
REPLAY MODE:
  pdtune replay [--sf 0.01] [--seed 42] [--epochs 8] [--per-epoch 12]
                [--updates 0.3] [--budget SIZE] [--iterations 60]
                [--window-cap 256] [--decay 0.5] [--drift-threshold 0.15]
                [--shared-store-cap 65536] [--indexes-only] [--trace FILE]
      Feed a drifting TPC-H stream (query-mix shift at epochs/2, with
      --updates DML mixed in after the shift) through the online
      re-tuning loop: a sliding window summarizes the stream (weights
      decay by --decay per epoch, at most --window-cap distinct
      statements), a drift detector re-tunes when the window's
      predicted cost under the deployed configuration diverges by more
      than --drift-threshold (or on new statements), and each re-tune
      warm-starts from the deployed configuration and the cross-epoch
      what-if store. The recommendation never prices worse than the
      deployed configuration on the new window. Deterministic: same
      stream + seed => byte-identical report and trace.

SERVE MODE:
  pdtune serve --data-dir DIR [--addr 127.0.0.1:0] [--slots 2]
               [--queue-cap 16] [--global-call-budget N]
               [--retry-after-ms 250] [--shared-store]
               [--shared-store-cap 65536] [--warm-store FILE]
      Long-lived daemon accepting tuning jobs as line-delimited JSON on
      a local TCP socket (actual address published in DIR/endpoint).
      Sessions checkpoint durably and survive kill -9: restarting the
      daemon on the same --data-dir resumes every registered session
      and produces byte-identical reports and traces. SIGTERM drains
      live sessions to a final checkpoint and exits 0.

  pdtune job submit [--db NAME] [--sf F] [--queries N] [--seed N]
                    [--budget SIZE] [--iterations N] [--updates RATIO]
                    [--indexes-only] [--checkpoint-every N]
                    [--optimizer-call-budget N] [--max-faults N]
                    [--data-dir DIR | --addr HOST:PORT]
                    [--wait] [--faults s:r] [--io-faults s:r]
                    [--warm-from sNNNN]
  pdtune job status|wait|watch|cancel --id sNNNN
                    [--data-dir DIR | --addr HOST:PORT]
  pdtune job list|stats|ping|shutdown [--data-dir DIR | --addr HOST:PORT]
      Submit prints the assigned session id; --wait blocks until the
      session is terminal and maps its outcome to the exit codes below.
      An overloaded daemon answers {\"error\":\"overloaded\",
      \"retry_after_ms\":N}; the client honors the hint and retries.

ENVIRONMENT:
  PDTUNE_FAULTS=<seed>:<rate>   deterministic fault injection (testing);
                                in serve mode this drives manifest-write
                                faults (checkpoint-write faults come from
                                each job's io_faults spec field)

EXIT CODES:
  0  success (including a deadline stop: anytime runs report best-so-far)
  2  usage error            6  fault limit exceeded
  3  I/O error              7  bound oracle violation
  4  workload error         8  serve: cannot bind socket
  5  checkpoint error       9  serve: corrupt job manifest
  10 serve: recovery mismatch (resumed checkpoint does not replay)
  130  interrupted (SIGINT; a final checkpoint is written first)
";

/// What the flags said: the tuning request, and what only this process
/// reads.
#[derive(Debug, Default)]
struct CliOptions {
    /// The request behind `tune`, `compare`, `explain`, `replay` and
    /// `job submit` — what the daemon persists for a submitted job;
    /// the flags the daemon also understands are stored here directly,
    /// and [`parse`] checks it by the daemon's rules.
    spec: JobSpec,
    workload_file: Option<String>,
    trace: Option<String>,
    validate_bounds: bool,
    deadline: Option<u64>,
    checkpoint: Option<String>,
    resume: Option<String>,
    sql: Option<String>,
    optimal: bool,
    // serve/job options
    addr: Option<String>,
    data_dir: Option<String>,
    slots: usize,
    queue_cap: usize,
    global_call_budget: Option<usize>,
    retry_after_ms: u64,
    shared_store: bool,
    shared_store_cap: Option<usize>,
    warm_store: Option<String>,
    id: Option<String>,
    wait: bool,
    // replay options
    epochs: usize,
    per_epoch: usize,
    window_cap: usize,
    decay: f64,
    drift_threshold: f64,
}

impl CliOptions {
    fn defaults() -> CliOptions {
        CliOptions {
            spec: JobSpec {
                checkpoint_every: 10,
                ..JobSpec::default()
            },
            slots: 2,
            queue_cap: 16,
            retry_after_ms: 250,
            epochs: 8,
            per_epoch: 12,
            window_cap: 256,
            decay: 0.5,
            drift_threshold: 0.15,
            ..Default::default()
        }
    }
}

/// Parse a byte size such as `256M` or `1.5G`. A budget must be a
/// positive, finite number of bytes — `NaN`, infinities, zero, and
/// negative sizes are rejected (a NaN budget silently disables every
/// space check, which is never what the user meant).
fn parse_bytes(s: &str) -> Result<f64, String> {
    let (num, mult) = match s.chars().last() {
        Some('K') | Some('k') => (&s[..s.len() - 1], 1e3),
        Some('M') | Some('m') => (&s[..s.len() - 1], 1e6),
        Some('G') | Some('g') => (&s[..s.len() - 1], 1e9),
        _ => (s, 1.0),
    };
    let v = num
        .parse::<f64>()
        .map_err(|e| format!("bad byte size `{s}`: {e}"))?
        * mult;
    if !v.is_finite() || v <= 0.0 {
        return Err(format!(
            "bad byte size `{s}`: budget must be a positive finite number of bytes"
        ));
    }
    Ok(v)
}

fn read_file(path: &str) -> Result<String, TuneError> {
    std::fs::read_to_string(path).map_err(|e| TuneError::Io {
        path: path.to_string(),
        msg: e.to_string(),
    })
}

fn write_file(path: &str, contents: &str) -> Result<(), TuneError> {
    std::fs::write(path, contents).map_err(|e| TuneError::Io {
        path: path.to_string(),
        msg: e.to_string(),
    })
}

fn build_database(o: &CliOptions) -> Result<Database, TuneError> {
    o.spec.build_database().map_err(TuneError::Usage)
}

/// The workload a single-shot command tunes: `--workload FILE` (mixed
/// with `--updates` like a built-in one) or the request's built-in.
fn load_workload(o: &CliOptions, db: &Database) -> Result<(WorkloadSpec, Workload), TuneError> {
    let statements = match &o.workload_file {
        None => o.spec.workload_spec(db),
        Some(path) => {
            let statements = pdtune::sql::parse_workload(&read_file(path)?)
                .map_err(|e| TuneError::Workload(format!("{path}: {e}")))?;
            let file = WorkloadSpec::new(path.clone(), statements);
            match o.spec.updates {
                Some(r) => pdtune::workloads::updates::with_updates(db, &file, r, o.spec.seed),
                None => file,
            }
        }
    };
    let workload = Workload::bind(db, &statements.statements)
        .map_err(|e| TuneError::Workload(format!("binding workload: {e}")))?;
    Ok((statements, workload))
}

fn cmd_tune(o: &CliOptions) -> Result<(), TuneError> {
    let db = build_database(o)?;
    let (statements, workload) = load_workload(o, &db)?;

    let fault_plan = FaultPlan::from_env().map_err(TuneError::Usage)?;
    if fault_plan.is_some() {
        pdtune::serve::daemon::quiet_injected_panics();
    }

    // `--resume`: the log's longest intact prefix, and how long it is.
    let resumed = match &o.resume {
        Some(path) => Some(CheckpointLog::read(Path::new(path))?),
        None => None,
    };

    // Ctrl-C trips the token; the search notices at the next stop
    // check, writes a final checkpoint, and returns a complete
    // best-so-far report before the process exits with code 130.
    let token = StopToken::default();
    #[cfg(unix)]
    pdtune::tuner::install_sigint(&token);

    let options = TunerOptions {
        validate_bounds: o.validate_bounds,
        deadline_ms: o.deadline,
        fault_plan,
        ..o.spec
            .tuner_options(o.spec.call_budget.map(|n| n as u64), token.clone())
            .map_err(TuneError::Usage)?
    };

    println!(
        "tuning `{}` over {} statements ({} updates)...",
        db.name,
        workload.len(),
        statements.update_count()
    );
    if let (Some(path), Some((ck, _))) = (&o.resume, &resumed) {
        println!(
            "resuming from {path} ({} completed iterations)",
            ck.iteration
        );
    }

    let tracer = (o.trace.is_some() || o.validate_bounds).then(pdtune::trace::Tracer::new);
    // A session resumed from `--checkpoint`'s own log goes on appending
    // to it; one resumed from elsewhere starts it with the checkpoint.
    let log = match &o.checkpoint {
        Some(path) => {
            let to = Path::new(path);
            let same_file = |from: &str| {
                std::fs::canonicalize(from)
                    .ok()
                    .is_some_and(|from| std::fs::canonicalize(to).ok() == Some(from))
            };
            let writer = DurableWriter::default();
            let log = match &resumed {
                Some((_, kept)) if o.resume.as_deref().is_some_and(same_file) => {
                    CheckpointLog::extend(to, *kept, writer)?
                }
                Some((ck, _)) => CheckpointLog::fork(to, ck, writer)?,
                None => CheckpointLog::create(to, writer),
            };
            Some((path, RefCell::new(log)))
        }
        None => None,
    };
    // A lost record ends the log, not the session: warn once, keep tuning.
    let sink = |done: usize, record: &str| {
        let Some((path, log)) = &log else { return };
        let mut log = log.borrow_mut();
        if log.lost().is_none() {
            match log.append(record) {
                Ok(()) => eprintln!("checkpoint: {done} iterations -> {path}"),
                Err(e) => eprintln!("warning: checkpoint {e}; the log ends here"),
            }
        }
    };
    let report = pdtune::tuner::tune_session(
        &db,
        &workload,
        &options,
        SessionCtl {
            tracer: tracer.as_ref(),
            checkpoint_every: o.spec.checkpoint_every,
            checkpoint_sink: log.is_some().then_some(&sink as &dyn Fn(usize, &str)),
            resume: resumed.as_ref().map(|(ck, _)| ck),
            ..SessionCtl::default()
        },
    )?;

    print_recommendation(&db, &report);
    print_counters(&report);
    if let (Some(path), Some(tracer)) = (&o.trace, tracer.as_ref()) {
        write_file(path, &tracer.to_jsonl())?;
        println!("trace: {} events -> {path}", tracer.len());
    }
    if o.validate_bounds {
        println!(
            "bound oracle: {} checks, {} violations",
            report.bound_checks,
            report.bound_violations.len()
        );
        if let Some(v) = report.bound_violations.first() {
            return Err(TuneError::BoundViolation {
                iteration: v.iteration,
                transformation: v.transformation.clone(),
                bound: v.bound,
                actual: v.actual,
            });
        }
    }
    match report.stop_reason {
        // A deadline or call-budget stop is a successful anytime run:
        // best-so-far was reported above, exit 0.
        StopReason::Converged
        | StopReason::IterationBudget
        | StopReason::Deadline
        | StopReason::CallBudget => Ok(()),
        StopReason::Interrupted => Err(TuneError::Interrupted),
        StopReason::FaultLimit => Err(TuneError::FaultLimit {
            faults: report.faults.len(),
        }),
    }
}

/// The reference costs, the recommendation's cost and its DDL.
fn print_recommendation(db: &Database, report: &TuningReport) {
    println!(
        "\ninitial  cost {:>12.0}   ({:.1} MB)",
        report.initial_cost,
        report.initial_size / 1e6
    );
    println!(
        "optimal  cost {:>12.0}   ({:.1} MB, {:+.1}%)",
        report.optimal_cost,
        report.optimal_size / 1e6,
        report.optimal_improvement_pct()
    );
    match &report.best {
        Some(best) => {
            println!(
                "best     cost {:>12.0}   ({:.1} MB, {:+.1}%)\n",
                best.cost,
                best.size_bytes / 1e6,
                report.best_improvement_pct()
            );
            println!("recommended physical design:");
            for ddl in configuration_ddl(db, &best.config, &Configuration::base(db)) {
                println!("  {ddl}");
            }
        }
        None => println!("no configuration fits the budget"),
    }
}

/// How the session ended and what its stores and tiers counted.
fn print_counters(report: &TuningReport) {
    println!(
        "\n{} iterations ({}), {} optimizer calls, {:?}",
        report.iterations,
        report.stop_reason.label(),
        report.optimizer_calls,
        report.elapsed
    );
    println!("{}", cache_line(report.cache_hits, report.cache_misses));
    if report.workload_deduped > 0 {
        println!(
            "workload: {} duplicate statements folded into weighted entries",
            report.workload_deduped
        );
    }
    if let Some(remaining) = report.budget_remaining {
        println!(
            "call budget: {} estimates served, {} budget remaining",
            report.optimizer_calls_skipped, remaining
        );
    }
    if report.optimizer_calls_avoided > 0 {
        println!(
            "derived costing: {} optimizer calls avoided beyond coarse keying",
            report.optimizer_calls_avoided
        );
    }
    let plan_probes = report.plan_cache_hits + report.plan_cache_misses;
    if plan_probes > 0 {
        println!(
            "plan cache: {} reused / {} probes missed, {} repriced",
            report.plan_cache_hits, report.plan_cache_misses, report.plan_cache_repriced
        );
    }
    let scored = report.candidates_generated + report.candidates_reused;
    if scored > 0 {
        println!(
            "scoring: {} candidates generated, {} reused ({:.1}x amplification)",
            report.candidates_generated,
            report.candidates_reused,
            scored as f64 / report.candidates_generated.max(1) as f64
        );
    }
    if !report.faults.is_empty() {
        println!("faults contained: {}", report.faults.len());
        for f in &report.faults {
            println!(
                "  iteration {:>3}  {:<12} {}",
                f.iteration,
                f.kind.label(),
                f.detail
            );
        }
    }
}

fn cmd_replay(o: &CliOptions) -> Result<(), TuneError> {
    use pdtune::tuner::{render_replay_report, run_replay, ReplayOptions, WindowOptions};
    use pdtune::workloads::drift::{drifting_tpch_stream, DriftSpec};

    // `--db` is not a replay flag: the request names the default, TPC-H.
    let db = build_database(o)?;
    let spec = DriftSpec {
        epochs: o.epochs,
        per_epoch: o.per_epoch,
        shift_epoch: o.epochs / 2,
        update_ratio: o.spec.updates.unwrap_or(0.3),
        seed: o.spec.seed,
    };
    let stream = drifting_tpch_stream(&db, &spec);
    let options = ReplayOptions {
        window: WindowOptions {
            cap: o.window_cap,
            decay: o.decay,
            ..WindowOptions::default()
        },
        drift_threshold: o.drift_threshold,
        shared_cap: o
            .shared_store_cap
            .unwrap_or(pdtune::tuner::DEFAULT_SHARED_CAP),
        tuner: TunerOptions {
            space_budget: o.spec.budget,
            max_iterations: o.spec.iterations,
            with_views: !o.spec.indexes_only,
            ..TunerOptions::default()
        },
    };
    println!(
        "replaying a drifting tpch stream (sf {}): {} epochs x {} statements, \
         shift at epoch {}, update ratio {} after the shift",
        o.spec.sf, spec.epochs, spec.per_epoch, spec.shift_epoch, spec.update_ratio
    );
    let tracer = o.trace.is_some().then(pdtune::trace::Tracer::new);
    let report = run_replay(&db, &stream, &options, tracer.as_ref())?;
    print!("{}", render_replay_report(&db, &report));
    if let (Some(path), Some(tracer)) = (&o.trace, tracer.as_ref()) {
        write_file(path, &tracer.to_jsonl())?;
        println!("trace: {} events -> {path}", tracer.len());
    }
    Ok(())
}

/// Render the cost-cache counter line of a report.
fn cache_line(hits: u64, misses: u64) -> String {
    let total = hits + misses;
    let rate = if total == 0 {
        0.0
    } else {
        100.0 * hits as f64 / total as f64
    };
    format!("cost cache: {hits} hits / {misses} misses ({rate:.1}% hit rate)")
}

fn cmd_serve(o: &CliOptions) -> Result<(), TuneError> {
    let opts = pdtune::serve::ServeOptions {
        addr: o.addr.clone().unwrap_or_else(|| "127.0.0.1:0".to_string()),
        data_dir: std::path::PathBuf::from(
            o.data_dir
                .clone()
                .unwrap_or_else(|| "pdtune-serve".to_string()),
        ),
        slots: o.slots,
        queue_cap: o.queue_cap,
        global_call_budget: o.global_call_budget,
        retry_after_ms: o.retry_after_ms,
        manifest_faults: FaultPlan::from_env().map_err(TuneError::Usage)?,
        shared_store: o.shared_store,
        shared_store_cap: o
            .shared_store_cap
            .unwrap_or(pdtune::tuner::DEFAULT_SHARED_CAP),
        warm_store: o.warm_store.clone().map(std::path::PathBuf::from),
    };
    // SIGTERM and Ctrl-C both request a graceful drain: stop
    // accepting, checkpoint live sessions, exit 0. kill -9 is the
    // crash case the durable manifests recover from.
    let shutdown = StopToken::default();
    #[cfg(unix)]
    {
        pdtune::tuner::install_sigint(&shutdown);
        pdtune::tuner::install_sigterm(&shutdown);
    }
    pdtune::serve::serve(opts, shutdown)
}

/// Map a terminal serve-mode session outcome to the process exit
/// policy (same classes as single-shot `tune`).
fn job_exit(state: &str, error: Option<String>) -> Result<(), TuneError> {
    match state {
        "done" => Ok(()),
        "canceled" => Err(TuneError::Interrupted),
        _ => {
            let msg = error.unwrap_or_else(|| "session failed".to_string());
            if let Some(detail) = msg.strip_prefix("recovery mismatch: ") {
                Err(TuneError::RecoveryMismatch(detail.to_string()))
            } else if msg.contains("contained faults") {
                let faults = msg
                    .split_whitespace()
                    .find_map(|w| w.parse::<usize>().ok())
                    .unwrap_or(0);
                Err(TuneError::FaultLimit { faults })
            } else if let Some(detail) = msg.strip_prefix("workload error: ") {
                Err(TuneError::Workload(detail.to_string()))
            } else {
                Err(TuneError::Io {
                    path: "session".to_string(),
                    msg,
                })
            }
        }
    }
}

fn cmd_job(action: &str, o: &CliOptions) -> Result<(), TuneError> {
    use pdtune::serve::Client;
    use pdtune::trace::json::Json;

    let addr = match (&o.addr, &o.data_dir) {
        (Some(a), _) => a.clone(),
        (None, Some(dir)) => {
            Client::discover(std::path::Path::new(dir)).map_err(|e| TuneError::Io {
                path: dir.clone(),
                msg: e,
            })?
        }
        (None, None) => {
            return Err(TuneError::Usage(
                "job needs --addr or --data-dir to find the daemon".to_string(),
            ))
        }
    };
    let client = Client::new(&addr);
    let need_id = || {
        o.id.clone()
            .ok_or_else(|| TuneError::Usage(format!("job {action} needs --id")))
    };
    let simple = |op: &str, id: Option<&str>| {
        let mut fields = vec![("op".to_string(), Json::Str(op.to_string()))];
        if let Some(id) = id {
            fields.push(("id".to_string(), Json::Str(id.to_string())));
        }
        Json::Obj(fields).to_string()
    };
    let call_err = |e: String| TuneError::Io {
        path: addr.clone(),
        msg: e,
    };

    match action {
        "submit" => {
            let id = client.submit(&o.spec.to_json()).map_err(call_err)?;
            println!("{id}");
            if o.wait {
                let (state, error) = client
                    .wait(&id, std::time::Duration::from_millis(100))
                    .map_err(call_err)?;
                eprintln!("session {id}: {state}");
                return job_exit(&state, error);
            }
            Ok(())
        }
        "status" => {
            let doc = client
                .call(&simple("status", Some(&need_id()?)))
                .map_err(call_err)?;
            println!("{doc}");
            Ok(())
        }
        "wait" => {
            let id = need_id()?;
            let (state, error) = client
                .wait(&id, std::time::Duration::from_millis(100))
                .map_err(call_err)?;
            println!("{state}");
            job_exit(&state, error)
        }
        "watch" => {
            let id = need_id()?;
            let (done, state) = client
                .watch(&id, 0, |line| println!("{line}"))
                .map_err(call_err)?;
            eprintln!(
                "session {id}: {state}{}",
                if done { "" } else { " (daemon shutting down)" }
            );
            Ok(())
        }
        "cancel" => {
            let doc = client
                .call(&simple("cancel", Some(&need_id()?)))
                .map_err(call_err)?;
            println!("{doc}");
            Ok(())
        }
        "stats" => {
            // Render the daemon's cumulative counters one per line;
            // scripts that want the raw JSON can speak the protocol
            // directly (it is one line of JSON on the socket).
            let doc = client.call(&simple("stats", None)).map_err(call_err)?;
            match doc.as_obj() {
                Some(fields) => {
                    for (k, v) in fields {
                        if k == "ok" {
                            continue;
                        }
                        println!("{k:<20} {v}");
                    }
                }
                None => println!("{doc}"),
            }
            Ok(())
        }
        "list" | "ping" | "shutdown" => {
            let doc = client.call(&simple(action, None)).map_err(call_err)?;
            println!("{doc}");
            Ok(())
        }
        other => Err(TuneError::Usage(format!("unknown job action `{other}`"))),
    }
}

fn cmd_explain(o: &CliOptions) -> Result<(), TuneError> {
    let db = build_database(o)?;
    let sql = o
        .sql
        .as_deref()
        .ok_or_else(|| TuneError::Usage("explain needs --sql".to_string()))?;
    let stmt = parse_statement(sql).map_err(|e| TuneError::Workload(e.to_string()))?;
    let bound = Binder::new(&db)
        .bind(&stmt)
        .map_err(|e| TuneError::Workload(e.to_string()))?;
    let query = bound
        .as_select()
        .ok_or_else(|| TuneError::Workload("explain supports SELECT only".to_string()))?;
    let optimizer = Optimizer::new(&db);

    let config = if o.optimal {
        let w = Workload::bind(&db, std::slice::from_ref(&stmt))
            .map_err(|e| TuneError::Workload(e.to_string()))?;
        let (c, _) = gather_optimal_configuration(&db, &w, !o.spec.indexes_only);
        c
    } else {
        Configuration::base(&db)
    };
    let plan = optimizer.optimize(&config, query);
    println!(
        "cost {:.1}, rows {:.0}\n{}",
        plan.cost,
        plan.rows,
        plan.explain()
    );
    Ok(())
}

fn cmd_compare(o: &CliOptions) -> Result<(), TuneError> {
    let db = build_database(o)?;
    let (statements, workload) = load_workload(o, &db)?;
    let ptt = tune(
        &db,
        &workload,
        &TunerOptions {
            space_budget: o.spec.budget,
            max_iterations: o.spec.iterations,
            with_views: !o.spec.indexes_only,
            ..TunerOptions::default()
        },
    );
    let ctt = BaselineAdvisor::new(
        &db,
        BaselineOptions {
            space_budget: o.spec.budget,
            with_views: !o.spec.indexes_only,
            ..BaselineOptions::default()
        },
    )
    .tune(&workload);
    println!(
        "workload `{}` ({} statements)",
        statements.name,
        workload.len()
    );
    println!(
        "PTT (relaxation): {:+.1}% improvement, {} optimizer calls, {:?}",
        ptt.best_improvement_pct(),
        ptt.optimizer_calls,
        ptt.elapsed
    );
    println!("    {}", cache_line(ptt.cache_hits, ptt.cache_misses));
    println!(
        "CTT (bottom-up) : {:+.1}% improvement, {} optimizer calls, {:?}",
        ctt.improvement_pct(),
        ctt.optimizer_calls,
        ctt.elapsed
    );
    println!("    {}", cache_line(ctt.cache_hits, ctt.cache_misses));
    println!(
        "dImprovement = {:+.1} points",
        ptt.best_improvement_pct() - ctt.improvement_pct()
    );
    Ok(())
}

fn cmd_corpus() -> Result<(), TuneError> {
    println!("built-in benchmark databases:\n");
    for (name, db) in [
        ("tpch (SF 0.1)", tpch::tpch_database(0.1)),
        ("ds1", star_database(&StarParams::ds1())),
        ("ds2", star_database(&StarParams::ds2())),
        ("bench", bench_database(&BenchParams::default())),
    ] {
        println!(
            "  {name:<14} {:>2} tables, {:>8.2} GB",
            db.tables().len(),
            db.total_heap_bytes() / 1e9
        );
        for t in db.tables() {
            println!(
                "      {:<12} {:>12.0} rows x {:>3} cols",
                t.name,
                t.rows,
                t.columns.len()
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse a space-separated flag list as `cmd`'s.
    fn parse_as(cmd: Cmd, args: &str) -> Result<CliOptions, TuneError> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        parse(cmd, "test", &args)
    }

    #[test]
    fn parse_bytes_accepts_positive_sizes() {
        assert_eq!(parse_bytes("1024"), Ok(1024.0));
        assert_eq!(parse_bytes("256M"), Ok(256e6));
        assert_eq!(parse_bytes("64k"), Ok(64e3));
        assert_eq!(parse_bytes("1.5G"), Ok(1.5e9));
    }

    #[test]
    fn parse_bytes_rejects_non_positive_and_non_finite() {
        for bad in ["NaN", "nan", "inf", "-inf", "infG", "0", "0M", "-5G", "-1"] {
            assert!(parse_bytes(bad).is_err(), "`{bad}` should be rejected");
        }
        assert!(parse_bytes("").is_err());
        assert!(parse_bytes("twelve").is_err());
    }

    #[test]
    fn cli_rejects_bad_budgets_with_usage_errors() {
        for bad in ["NaN", "-5G", "0"] {
            match parse_as(Cmd::Tune, &format!("--budget {bad}")) {
                Err(TuneError::Usage(msg)) => assert!(msg.contains("byte size"), "{msg}"),
                other => panic!("`--budget {bad}` should be a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn cli_parses_anytime_flags() {
        let flags = "--deadline 1500 --checkpoint ck.json --checkpoint-every 5 --max-faults 3";
        let o = parse_as(Cmd::Tune, flags).unwrap();
        assert_eq!(o.deadline, Some(1500));
        assert_eq!(o.checkpoint.as_deref(), Some("ck.json"));
        assert_eq!(o.spec.checkpoint_every, 5);
        assert_eq!(o.spec.max_faults, Some(3));
    }

    #[test]
    fn cli_parses_replay_flags() {
        let o = parse_as(Cmd::Replay, "").unwrap();
        assert_eq!(o.epochs, 8);
        assert_eq!(o.per_epoch, 12);
        assert_eq!(o.window_cap, 256);
        assert_eq!(o.decay, 0.5);
        assert_eq!(o.drift_threshold, 0.15);
        assert_eq!(o.spec.warm_from, None);
        let flags = "--epochs 4 --per-epoch 6 --window-cap 32 --decay 0.25 --drift-threshold 0.05";
        let o = parse_as(Cmd::Replay, flags).unwrap();
        assert_eq!(o.epochs, 4);
        assert_eq!(o.per_epoch, 6);
        assert_eq!(o.window_cap, 32);
        assert_eq!(o.decay, 0.25);
        assert_eq!(o.drift_threshold, 0.05);
        let o = parse_as(Cmd::Submit, "--warm-from s0001").unwrap();
        assert_eq!(o.spec.warm_from.as_deref(), Some("s0001"));
    }

    #[test]
    fn cli_rejects_bad_replay_flags() {
        for bad in [
            "--epochs 0",
            "--window-cap 0",
            "--decay 1.5",
            "--decay -0.1",
            "--drift-threshold -1",
            "--drift-threshold NaN",
        ] {
            assert!(
                matches!(parse_as(Cmd::Replay, bad), Err(TuneError::Usage(_))),
                "`{bad}` should be a usage error"
            );
        }
    }

    #[test]
    fn cli_parses_optimizer_call_budget() {
        let o = parse_as(Cmd::Tune, "").unwrap();
        assert_eq!(o.spec.call_budget, None, "unlimited is the default");
        let o = parse_as(Cmd::Tune, "--optimizer-call-budget 64").unwrap();
        assert_eq!(o.spec.call_budget, Some(64));
        let bad = parse_as(Cmd::Tune, "--optimizer-call-budget lots");
        assert!(matches!(bad, Err(TuneError::Usage(_))));
    }

    #[test]
    fn cli_rejects_zero_checkpoint_cadence() {
        let bad = parse_as(Cmd::Tune, "--checkpoint-every 0");
        assert!(matches!(bad, Err(TuneError::Usage(_))));
    }

    #[test]
    fn cli_parses_shared_store_flags() {
        let o = parse_as(Cmd::Serve, "").unwrap();
        assert!(!o.shared_store, "shared store is opt-in");
        assert_eq!(o.shared_store_cap, None);
        assert_eq!(o.warm_store, None);
        let flags = "--shared-store --shared-store-cap 1024 --warm-store /tmp/warm.json";
        let o = parse_as(Cmd::Serve, flags).unwrap();
        assert!(o.shared_store);
        assert_eq!(o.shared_store_cap, Some(1024));
        assert_eq!(o.warm_store.as_deref(), Some("/tmp/warm.json"));
        let bad = parse_as(Cmd::Serve, "--shared-store-cap 0");
        assert!(matches!(bad, Err(TuneError::Usage(_))));
    }

    /// The table is the usage text: every flag is one OPTIONS entry, and
    /// a command's synopsis names only flags the command reads.
    #[test]
    fn usage_and_synopses_agree_with_the_flag_table() {
        let usage = usage();
        for f in FLAGS {
            let entry =
                |l: &&str| l.strip_prefix("  ").and_then(|l| l.split(' ').next()) == Some(f.name);
            let entries = usage.lines().filter(entry).count();
            assert_eq!(entries, 1, "{} has {entries} OPTIONS entries", f.name);
            assert!(f.cmds != 0, "{} is read by no command", f.name);
        }
        // A synopsis is a `  pdtune <command> ...` line and the bracketed
        // continuation lines under it.
        let (mut cmd, mut checked) = (None, 0);
        for line in usage.lines() {
            if let Some(rest) = line.strip_prefix("  pdtune ") {
                let mut words = rest.split_whitespace();
                cmd = Some(match (words.next(), words.next()) {
                    (Some("tune"), _) => Cmd::Tune,
                    (Some("replay"), _) => Cmd::Replay,
                    (Some("serve"), _) => Cmd::Serve,
                    (Some("job"), Some("submit")) => Cmd::Submit,
                    (Some("job"), _) => Cmd::Job,
                    (Some("explain"), _) => Cmd::Explain,
                    (Some("compare"), _) => Cmd::Compare,
                    (Some("corpus"), _) => Cmd::Corpus,
                    other => panic!("synopsis of an unknown command: {other:?}"),
                });
            } else if !line.trim_start().starts_with('[') {
                cmd = None;
            }
            let Some(cmd) = cmd else { continue };
            let words = line.split(|c: char| !(c.is_ascii_lowercase() || c == '-'));
            for word in words.filter(|w| w.starts_with("--")) {
                let flag = FLAGS.iter().find(|f| f.name == word);
                let flag = flag.unwrap_or_else(|| panic!("synopsis names unknown flag {word}"));
                let reads = flag.cmds & cmd as u8 != 0;
                assert!(
                    reads,
                    "{cmd:?}'s synopsis names {word}, which it does not read"
                );
                checked += 1;
            }
        }
        assert!(checked > 40, "only {checked} synopsis flags found");
    }
}
