//! `pdtune` — command-line physical design tuning.
//!
//! ```text
//! pdtune tune    --db tpch --sf 0.1 --budget 256MB [--workload FILE] [--indexes-only]
//! pdtune explain --db tpch --sf 0.1 --sql "SELECT ..." [--optimal]
//! pdtune compare --db ds1 --seed 3 --queries 12
//! pdtune corpus
//! ```

use pdtune::baseline::{BaselineAdvisor, BaselineOptions};
use pdtune::catalog::Database;
use pdtune::expr::Binder;
use pdtune::prelude::*;
use pdtune::tuner::instrument::gather_optimal_configuration;
use pdtune::tuner::StopReason;
use pdtune::workloads::bench::{bench_database, bench_workload, BenchParams};
use pdtune::workloads::star::{star_database, star_workload, StarParams};
use pdtune::workloads::{tpch, WorkloadSpec};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, TuneError::Usage(_)) {
                eprintln!("\n{USAGE}");
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
        let opts = CliOptions::parse(&args[2..])?;
        return cmd_job(action, &opts);
    }
    let opts = CliOptions::parse(&args[1..])?;
    match command {
        "tune" => cmd_tune(&opts),
        "replay" => cmd_replay(&opts),
        "serve" => cmd_serve(&opts),
        "explain" => cmd_explain(&opts),
        "compare" => cmd_compare(&opts),
        "corpus" => cmd_corpus(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(TuneError::Usage(format!("unknown command `{other}`"))),
    }
}

const USAGE: &str = "\
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

OPTIONS:
  --db <tpch|ds1|ds2|bench>     benchmark database            [default: tpch]
  --sf <float>                  TPC-H scale factor            [default: 0.1]
  --budget <bytes|K|M|G>        storage budget, e.g. 256M     [default: none]
  --workload <file.sql>         semicolon-separated SQL file  [default: built-in]
  --queries <n>                 built-in workload size        [default: all]
  --seed <n>                    workload generator seed       [default: 0]
  --iterations <n>              relaxation iteration budget   [default: 300]
  --indexes-only                do not recommend materialized views
  --updates <ratio>             mix in DML statements (e.g. 0.5)
  --threads <n>                 worker threads, 0 = all cores  [default: 1]
  --no-cache                    disable the shared what-if cost cache
  --no-incremental              disable the incremental candidate engine
                                (delta enumeration + bound memo); output
                                is byte-identical either way
  --no-derived-costs            disable derived what-if costing (relevant-
                                structure cache keys + plan reuse); output
                                is byte-identical either way
  --optimizer-call-budget <n>   approximate tier: spend at most n real
                                what-if invocations, serving bound-gap
                                midpoint estimates elsewhere; exhausting
                                the budget reports best-so-far (exit 0,
                                like --deadline)  [default: unlimited]
  --trace <file.jsonl>          write structured search telemetry as JSONL
  --validate-bounds             re-optimize after each step and check the
                                \u{a7}3.3.2 cost upper bound (fails on violation)
  --deadline <ms>               anytime stop: report best-so-far after this
                                many milliseconds (exit 0)
  --checkpoint <file>           write a resumable checkpoint on the cadence
                                below and when the session stops early
  --checkpoint-every <n>        checkpoint cadence in completed iterations
                                [default: 10]
  --resume <file>               resume a prior session from its checkpoint;
                                the resumed report/trace are byte-identical
                                to an uninterrupted run
  --max-faults <n>              abort (exit 6) after more than n contained
                                faults                         [default: 16]
  --sql <text>                  query text (explain)
  --optimal                     explain under the optimal configuration

REPLAY MODE:
  pdtune replay [--sf 0.01] [--seed 42] [--epochs 8] [--per-epoch 12]
                [--updates 0.3] [--budget SIZE] [--iterations 60]
                [--window-cap 256] [--decay 0.5] [--drift-threshold 0.15]
                [--shared-store-cap 65536] [--threads N] [--trace FILE]
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
      stream + seed => byte-identical report and trace at any
      --threads.

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
      --shared-store serves one tenant's what-if optimizer answers to
      every other tenant with matching content keys (schema + query +
      relevant subset); reports and traces stay byte-identical to solo
      runs. --shared-store-cap bounds it in entries. --warm-store
      persists it across graceful restarts (a corrupt warm file
      cold-starts; it never fails the daemon) and implies
      --shared-store.

  pdtune job submit [tune options] [--data-dir DIR | --addr HOST:PORT]
                    [--wait] [--faults s:r] [--io-faults s:r]
                    [--warm-from sNNNN]
      --warm-from seeds the new session from a finished session's
      final configuration (deployed start point + never-regress
      safety floor); the config is copied into the new session's
      directory, so recovery does not depend on the source session.
  pdtune job status|wait|watch|cancel --id sNNNN [--data-dir DIR]
  pdtune job list|stats|ping|shutdown [--data-dir DIR]
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

#[derive(Debug, Default)]
struct CliOptions {
    db: String,
    sf: f64,
    budget: Option<f64>,
    workload_file: Option<String>,
    queries: Option<usize>,
    seed: u64,
    iterations: usize,
    indexes_only: bool,
    updates: Option<f64>,
    threads: usize,
    no_cache: bool,
    no_incremental: bool,
    no_derived_costs: bool,
    optimizer_call_budget: Option<usize>,
    trace: Option<String>,
    validate_bounds: bool,
    deadline: Option<u64>,
    checkpoint: Option<String>,
    checkpoint_every: usize,
    resume: Option<String>,
    max_faults: Option<usize>,
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
    faults: Option<String>,
    io_faults: Option<String>,
    warm_from: Option<String>,
    // replay options
    epochs: usize,
    per_epoch: usize,
    window_cap: usize,
    decay: f64,
    drift_threshold: f64,
}

impl CliOptions {
    fn parse(args: &[String]) -> Result<CliOptions, TuneError> {
        let mut o = CliOptions {
            db: "tpch".to_string(),
            sf: 0.1,
            iterations: 300,
            threads: 1,
            checkpoint_every: 10,
            slots: 2,
            queue_cap: 16,
            retry_after_ms: 250,
            epochs: 8,
            per_epoch: 12,
            window_cap: 256,
            decay: 0.5,
            drift_threshold: 0.15,
            ..Default::default()
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| TuneError::Usage(format!("{name} needs a value")))
            };
            let usage =
                |name: &str, e: &dyn std::fmt::Display| TuneError::Usage(format!("{name}: {e}"));
            match flag.as_str() {
                "--db" => o.db = value("--db")?,
                "--sf" => o.sf = value("--sf")?.parse().map_err(|e| usage("--sf", &e))?,
                "--budget" => {
                    o.budget = Some(parse_bytes(&value("--budget")?).map_err(TuneError::Usage)?)
                }
                "--workload" => o.workload_file = Some(value("--workload")?),
                "--queries" => {
                    o.queries = Some(
                        value("--queries")?
                            .parse()
                            .map_err(|e| usage("--queries", &e))?,
                    )
                }
                "--seed" => o.seed = value("--seed")?.parse().map_err(|e| usage("--seed", &e))?,
                "--iterations" => {
                    o.iterations = value("--iterations")?
                        .parse()
                        .map_err(|e| usage("--iterations", &e))?
                }
                "--indexes-only" => o.indexes_only = true,
                "--updates" => {
                    o.updates = Some(
                        value("--updates")?
                            .parse()
                            .map_err(|e| usage("--updates", &e))?,
                    )
                }
                "--threads" => {
                    o.threads = value("--threads")?
                        .parse()
                        .map_err(|e| usage("--threads", &e))?
                }
                "--no-cache" => o.no_cache = true,
                "--no-incremental" => o.no_incremental = true,
                "--no-derived-costs" => o.no_derived_costs = true,
                "--optimizer-call-budget" => {
                    o.optimizer_call_budget = Some(
                        value("--optimizer-call-budget")?
                            .parse()
                            .map_err(|e| usage("--optimizer-call-budget", &e))?,
                    )
                }
                "--trace" => o.trace = Some(value("--trace")?),
                "--validate-bounds" => o.validate_bounds = true,
                "--deadline" => {
                    o.deadline = Some(
                        value("--deadline")?
                            .parse()
                            .map_err(|e| usage("--deadline", &e))?,
                    )
                }
                "--checkpoint" => o.checkpoint = Some(value("--checkpoint")?),
                "--checkpoint-every" => {
                    o.checkpoint_every = value("--checkpoint-every")?
                        .parse()
                        .map_err(|e| usage("--checkpoint-every", &e))?;
                    if o.checkpoint_every == 0 {
                        return Err(TuneError::Usage(
                            "--checkpoint-every must be at least 1".to_string(),
                        ));
                    }
                }
                "--resume" => o.resume = Some(value("--resume")?),
                "--max-faults" => {
                    o.max_faults = Some(
                        value("--max-faults")?
                            .parse()
                            .map_err(|e| usage("--max-faults", &e))?,
                    )
                }
                "--sql" => o.sql = Some(value("--sql")?),
                "--optimal" => o.optimal = true,
                "--addr" => o.addr = Some(value("--addr")?),
                "--data-dir" => o.data_dir = Some(value("--data-dir")?),
                "--slots" => {
                    o.slots = value("--slots")?
                        .parse()
                        .map_err(|e| usage("--slots", &e))?;
                    if o.slots == 0 {
                        return Err(TuneError::Usage("--slots must be at least 1".to_string()));
                    }
                }
                "--queue-cap" => {
                    o.queue_cap = value("--queue-cap")?
                        .parse()
                        .map_err(|e| usage("--queue-cap", &e))?
                }
                "--global-call-budget" => {
                    o.global_call_budget = Some(
                        value("--global-call-budget")?
                            .parse()
                            .map_err(|e| usage("--global-call-budget", &e))?,
                    )
                }
                "--retry-after-ms" => {
                    o.retry_after_ms = value("--retry-after-ms")?
                        .parse()
                        .map_err(|e| usage("--retry-after-ms", &e))?
                }
                "--shared-store" => o.shared_store = true,
                "--shared-store-cap" => {
                    let cap: usize = value("--shared-store-cap")?
                        .parse()
                        .map_err(|e| usage("--shared-store-cap", &e))?;
                    if cap == 0 {
                        return Err(TuneError::Usage(
                            "--shared-store-cap must be at least 1".to_string(),
                        ));
                    }
                    o.shared_store_cap = Some(cap);
                }
                "--warm-store" => o.warm_store = Some(value("--warm-store")?),
                "--id" => o.id = Some(value("--id")?),
                "--warm-from" => o.warm_from = Some(value("--warm-from")?),
                "--epochs" => {
                    o.epochs = value("--epochs")?
                        .parse()
                        .map_err(|e| usage("--epochs", &e))?;
                    if o.epochs == 0 {
                        return Err(TuneError::Usage("--epochs must be at least 1".to_string()));
                    }
                }
                "--per-epoch" => {
                    o.per_epoch = value("--per-epoch")?
                        .parse()
                        .map_err(|e| usage("--per-epoch", &e))?
                }
                "--window-cap" => {
                    o.window_cap = value("--window-cap")?
                        .parse()
                        .map_err(|e| usage("--window-cap", &e))?;
                    if o.window_cap == 0 {
                        return Err(TuneError::Usage(
                            "--window-cap must be at least 1".to_string(),
                        ));
                    }
                }
                "--decay" => {
                    o.decay = value("--decay")?
                        .parse()
                        .map_err(|e| usage("--decay", &e))?;
                    if !(0.0..=1.0).contains(&o.decay) {
                        return Err(TuneError::Usage("--decay must be in [0, 1]".to_string()));
                    }
                }
                "--drift-threshold" => {
                    o.drift_threshold = value("--drift-threshold")?
                        .parse()
                        .map_err(|e| usage("--drift-threshold", &e))?;
                    if !o.drift_threshold.is_finite() || o.drift_threshold < 0.0 {
                        return Err(TuneError::Usage(
                            "--drift-threshold must be a non-negative number".to_string(),
                        ));
                    }
                }
                "--wait" => o.wait = true,
                "--faults" => o.faults = Some(value("--faults")?),
                "--io-faults" => o.io_faults = Some(value("--io-faults")?),
                other => return Err(TuneError::Usage(format!("unknown flag `{other}`"))),
            }
        }
        Ok(o)
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

fn load_database(o: &CliOptions) -> Result<Database, TuneError> {
    match o.db.as_str() {
        "tpch" => Ok(tpch::tpch_database(o.sf)),
        "ds1" => Ok(star_database(&StarParams::ds1())),
        "ds2" => Ok(star_database(&StarParams::ds2())),
        "bench" => Ok(bench_database(&BenchParams::default())),
        other => Err(TuneError::Usage(format!(
            "unknown database `{other}` (try tpch|ds1|ds2|bench)"
        ))),
    }
}

fn load_workload(o: &CliOptions, db: &Database) -> Result<WorkloadSpec, TuneError> {
    let mut spec = if let Some(path) = &o.workload_file {
        let text = read_file(path)?;
        let statements = pdtune::sql::parse_workload(&text)
            .map_err(|e| TuneError::Workload(format!("{path}: {e}")))?;
        WorkloadSpec::new(path.clone(), statements)
    } else {
        match o.db.as_str() {
            "tpch" => match o.queries {
                Some(n) => tpch::tpch_workload_variant(o.seed, n),
                None => tpch::tpch_workload(),
            },
            "ds1" => star_workload(&StarParams::ds1(), o.seed, o.queries.unwrap_or(12)),
            "ds2" => star_workload(&StarParams::ds2(), o.seed, o.queries.unwrap_or(12)),
            _ => bench_workload(db, o.seed, o.queries.unwrap_or(15)),
        }
    };
    if let Some(ratio) = o.updates {
        spec = pdtune::workloads::updates::with_updates(db, &spec, ratio, o.seed);
    }
    Ok(spec)
}

fn bind_workload(db: &Database, spec: &WorkloadSpec) -> Result<Workload, TuneError> {
    Workload::bind(db, &spec.statements)
        .map_err(|e| TuneError::Workload(format!("binding workload: {e}")))
}

/// Suppress the default "thread panicked" stderr noise for panics the
/// fault injector fires on purpose; everything else still reaches the
/// previous hook.
fn quiet_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with("injected fault:"));
        if !injected {
            prev(info);
        }
    }));
}

fn cmd_tune(o: &CliOptions) -> Result<(), TuneError> {
    let db = load_database(o)?;
    let spec = load_workload(o, &db)?;
    let workload = bind_workload(&db, &spec)?;

    let fault_plan = FaultPlan::from_env().map_err(TuneError::Usage)?;
    if fault_plan.is_some() {
        quiet_injected_panics();
    }

    let resumed = match &o.resume {
        Some(path) => Some(Checkpoint::from_json_str(&read_file(path)?)?),
        None => None,
    };

    // Ctrl-C trips the token; the search notices at the next stop
    // check, writes a final checkpoint, and returns a complete
    // best-so-far report before the process exits with code 130.
    let token = StopToken::default();
    #[cfg(unix)]
    pdtune::tuner::install_sigint(&token);

    let options = TunerOptions {
        space_budget: o.budget,
        max_iterations: o.iterations,
        with_views: !o.indexes_only,
        threads: o.threads,
        cost_cache: !o.no_cache,
        incremental: !o.no_incremental,
        derived_costs: !o.no_derived_costs,
        optimizer_call_budget: o.optimizer_call_budget,
        validate_bounds: o.validate_bounds,
        deadline_ms: o.deadline,
        stop: Some(token.clone()),
        fault_plan,
        max_faults: o
            .max_faults
            .unwrap_or_else(|| TunerOptions::default().max_faults),
        ..TunerOptions::default()
    };

    println!(
        "tuning `{}` over {} statements ({} updates)...",
        db.name,
        workload.len(),
        spec.update_count()
    );
    if let (Some(path), Some(ck)) = (&o.resume, &resumed) {
        println!(
            "resuming from {path} ({} completed iterations)",
            ck.iteration
        );
    }

    let tracer = (o.trace.is_some() || o.validate_bounds).then(pdtune::trace::Tracer::new);
    // Checkpoints land crash-safely: tmp + fsync(file) + rename +
    // fsync(dir), so neither process death nor a host crash can leave
    // a torn or unreachable checkpoint.
    let sink = o.checkpoint.clone().map(|path| {
        move |done: usize, body: &str| match pdtune::serve::atomic_write(
            std::path::Path::new(&path),
            body.as_bytes(),
        ) {
            Ok(()) => eprintln!("checkpoint: {done} iterations -> {path}"),
            Err(e) => eprintln!("warning: checkpoint write to {path} failed: {e}"),
        }
    });
    let report = pdtune::tuner::tune_session(
        &db,
        &workload,
        &options,
        SessionCtl {
            tracer: tracer.as_ref(),
            checkpoint_every: o.checkpoint_every,
            checkpoint_sink: sink.as_ref().map(|s| s as &dyn Fn(usize, &str)),
            resume: resumed.as_ref(),
            shared_store: None,
        },
    )?;

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
            for index in best.config.indexes() {
                if index.table.is_view() {
                    continue;
                }
                let t = db.table(index.table);
                let cols: Vec<&str> = index
                    .key
                    .iter()
                    .map(|c| t.column(c.ordinal).name.as_str())
                    .collect();
                let suffix: Vec<&str> = index
                    .suffix
                    .iter()
                    .map(|c| t.column(c.ordinal).name.as_str())
                    .collect();
                let kind = if index.clustered { "CLUSTERED " } else { "" };
                if suffix.is_empty() {
                    println!("  CREATE {kind}INDEX ON {} ({})", t.name, cols.join(", "));
                } else {
                    println!(
                        "  CREATE {kind}INDEX ON {} ({}) INCLUDE ({})",
                        t.name,
                        cols.join(", "),
                        suffix.join(", ")
                    );
                }
            }
            for view in best.config.views() {
                println!("  CREATE MATERIALIZED VIEW AS {}", view.def.to_sql(&db));
            }
        }
        None => println!("no configuration fits the budget"),
    }
    println!(
        "\n{} iterations ({}), {} optimizer calls, {:?}",
        report.iterations,
        report.stop_reason.label(),
        report.optimizer_calls,
        report.elapsed
    );
    println!(
        "{}",
        cache_line(report.cache_hits, report.cache_misses, o.no_cache)
    );
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
    let memo_probes = report.bound_memo_hits + report.bound_memo_misses;
    if memo_probes > 0 {
        println!(
            "bound memo: {} hits / {} misses ({:.1}% hit rate)",
            report.bound_memo_hits,
            report.bound_memo_misses,
            100.0 * report.bound_memo_hits as f64 / memo_probes as f64
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

fn cmd_replay(o: &CliOptions) -> Result<(), TuneError> {
    use pdtune::tuner::{render_replay_report, run_replay, ReplayOptions, WindowOptions};
    use pdtune::workloads::drift::{drifting_tpch_stream, DriftSpec};

    let db = tpch::tpch_database(o.sf);
    let spec = DriftSpec {
        epochs: o.epochs,
        per_epoch: o.per_epoch,
        shift_epoch: o.epochs / 2,
        update_ratio: o.updates.unwrap_or(0.3),
        seed: o.seed,
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
            space_budget: o.budget,
            max_iterations: o.iterations,
            with_views: !o.indexes_only,
            threads: o.threads,
            cost_cache: !o.no_cache,
            incremental: !o.no_incremental,
            derived_costs: !o.no_derived_costs,
            ..TunerOptions::default()
        },
    };
    println!(
        "replaying a drifting tpch stream (sf {}): {} epochs x {} statements, \
         shift at epoch {}, update ratio {} after the shift",
        o.sf, spec.epochs, spec.per_epoch, spec.shift_epoch, spec.update_ratio
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
fn cache_line(hits: u64, misses: u64, disabled: bool) -> String {
    if disabled {
        return "cost cache disabled".to_string();
    }
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

/// Build the serve-mode job spec from the shared CLI flags.
fn job_spec(o: &CliOptions) -> pdtune::serve::JobSpec {
    pdtune::serve::JobSpec {
        db: o.db.clone(),
        sf: o.sf,
        queries: o.queries,
        seed: o.seed,
        budget: o.budget,
        iterations: o.iterations,
        updates: o.updates,
        indexes_only: o.indexes_only,
        threads: o.threads,
        checkpoint_every: o.checkpoint_every,
        call_budget: o.optimizer_call_budget,
        max_faults: o.max_faults,
        faults: o.faults.clone(),
        io_faults: o.io_faults.clone(),
        warm_from: o.warm_from.clone(),
    }
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
            let spec = job_spec(o);
            spec.validate().map_err(TuneError::Usage)?;
            let id = client.submit(&spec.to_json()).map_err(call_err)?;
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
    let db = load_database(o)?;
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
        let (c, _) = gather_optimal_configuration(&db, &w, !o.indexes_only);
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
    let db = load_database(o)?;
    let spec = load_workload(o, &db)?;
    let workload = bind_workload(&db, &spec)?;
    let ptt = tune(
        &db,
        &workload,
        &TunerOptions {
            space_budget: o.budget,
            max_iterations: o.iterations,
            with_views: !o.indexes_only,
            threads: o.threads,
            cost_cache: !o.no_cache,
            ..TunerOptions::default()
        },
    );
    let ctt = BaselineAdvisor::new(
        &db,
        BaselineOptions {
            space_budget: o.budget,
            with_views: !o.indexes_only,
            threads: o.threads,
            cost_cache: !o.no_cache,
            ..BaselineOptions::default()
        },
    )
    .tune(&workload);
    println!("workload `{}` ({} statements)", spec.name, workload.len());
    println!(
        "PTT (relaxation): {:+.1}% improvement, {} optimizer calls, {:?}",
        ptt.best_improvement_pct(),
        ptt.optimizer_calls,
        ptt.elapsed
    );
    println!(
        "    {}",
        cache_line(ptt.cache_hits, ptt.cache_misses, o.no_cache)
    );
    println!(
        "CTT (bottom-up) : {:+.1}% improvement, {} optimizer calls, {:?}",
        ctt.improvement_pct(),
        ctt.optimizer_calls,
        ctt.elapsed
    );
    println!(
        "    {}",
        cache_line(ctt.cache_hits, ctt.cache_misses, o.no_cache)
    );
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
            let args = vec!["--budget".to_string(), bad.to_string()];
            match CliOptions::parse(&args) {
                Err(TuneError::Usage(msg)) => assert!(msg.contains("byte size"), "{msg}"),
                other => panic!("`--budget {bad}` should be a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn cli_parses_anytime_flags() {
        let args: Vec<String> = [
            "--deadline",
            "1500",
            "--checkpoint",
            "ck.json",
            "--checkpoint-every",
            "5",
            "--max-faults",
            "3",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = CliOptions::parse(&args).unwrap();
        assert_eq!(o.deadline, Some(1500));
        assert_eq!(o.checkpoint.as_deref(), Some("ck.json"));
        assert_eq!(o.checkpoint_every, 5);
        assert_eq!(o.max_faults, Some(3));
    }

    #[test]
    fn cli_parses_replay_flags() {
        let o = CliOptions::parse(&[]).unwrap();
        assert_eq!(o.epochs, 8);
        assert_eq!(o.per_epoch, 12);
        assert_eq!(o.window_cap, 256);
        assert_eq!(o.decay, 0.5);
        assert_eq!(o.drift_threshold, 0.15);
        assert_eq!(o.warm_from, None);
        let args: Vec<String> = [
            "--epochs",
            "4",
            "--per-epoch",
            "6",
            "--window-cap",
            "32",
            "--decay",
            "0.25",
            "--drift-threshold",
            "0.05",
            "--warm-from",
            "s0001",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = CliOptions::parse(&args).unwrap();
        assert_eq!(o.epochs, 4);
        assert_eq!(o.per_epoch, 6);
        assert_eq!(o.window_cap, 32);
        assert_eq!(o.decay, 0.25);
        assert_eq!(o.drift_threshold, 0.05);
        assert_eq!(o.warm_from.as_deref(), Some("s0001"));
    }

    #[test]
    fn cli_rejects_bad_replay_flags() {
        for bad in [
            vec!["--epochs", "0"],
            vec!["--window-cap", "0"],
            vec!["--decay", "1.5"],
            vec!["--decay", "-0.1"],
            vec!["--drift-threshold", "-1"],
            vec!["--drift-threshold", "NaN"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                matches!(CliOptions::parse(&args), Err(TuneError::Usage(_))),
                "`{bad:?}` should be a usage error"
            );
        }
    }

    #[test]
    fn cli_parses_incremental_flag() {
        let o = CliOptions::parse(&[]).unwrap();
        assert!(!o.no_incremental, "incremental engine is the default");
        let args = vec!["--no-incremental".to_string()];
        let o = CliOptions::parse(&args).unwrap();
        assert!(o.no_incremental);
    }

    #[test]
    fn cli_parses_derived_costs_flag() {
        let o = CliOptions::parse(&[]).unwrap();
        assert!(!o.no_derived_costs, "derived costing is the default");
        let args = vec!["--no-derived-costs".to_string()];
        let o = CliOptions::parse(&args).unwrap();
        assert!(o.no_derived_costs);
    }

    #[test]
    fn cli_parses_optimizer_call_budget() {
        let o = CliOptions::parse(&[]).unwrap();
        assert_eq!(o.optimizer_call_budget, None, "unlimited is the default");
        let args = vec!["--optimizer-call-budget".to_string(), "64".to_string()];
        let o = CliOptions::parse(&args).unwrap();
        assert_eq!(o.optimizer_call_budget, Some(64));
        let args = vec!["--optimizer-call-budget".to_string(), "lots".to_string()];
        assert!(matches!(CliOptions::parse(&args), Err(TuneError::Usage(_))));
    }

    #[test]
    fn cli_rejects_zero_checkpoint_cadence() {
        let args = vec!["--checkpoint-every".to_string(), "0".to_string()];
        assert!(matches!(CliOptions::parse(&args), Err(TuneError::Usage(_))));
    }

    #[test]
    fn cli_parses_shared_store_flags() {
        let o = CliOptions::parse(&[]).unwrap();
        assert!(!o.shared_store, "shared store is opt-in");
        assert_eq!(o.shared_store_cap, None);
        assert_eq!(o.warm_store, None);
        let args: Vec<String> = [
            "--shared-store",
            "--shared-store-cap",
            "1024",
            "--warm-store",
            "/tmp/warm.json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = CliOptions::parse(&args).unwrap();
        assert!(o.shared_store);
        assert_eq!(o.shared_store_cap, Some(1024));
        assert_eq!(o.warm_store.as_deref(), Some("/tmp/warm.json"));
        let args = vec!["--shared-store-cap".to_string(), "0".to_string()];
        assert!(matches!(CliOptions::parse(&args), Err(TuneError::Usage(_))));
    }
}
