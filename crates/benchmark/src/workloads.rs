//! The five workloads: what one op is, how a pass runs them, and how
//! an op's recommendation is checked.
//!
//! Everything here drives the program through its public functions
//! only, single-threaded inside the tuner (`threads: 1`): the box this
//! was sized on has two cores, and worker threads on it measure the
//! scheduler (ROADMAP open item 1).

use crate::inputs::{self, DbPool, StreamInput, TuneInput};
use crate::probes::{self, measure, Acc};
use crate::spans::Recorder;
use crate::stats::median;
use pdt_catalog::Database;
use pdt_opt::Optimizer;
use pdt_physical::Configuration;
use pdt_serve::{atomic_write, serve, Client, JobSpec, ServeOptions};
use pdt_trace::json::Json;
use pdt_trace::Tracer;
use pdt_tuner::eval::evaluate_full;
use pdt_tuner::{
    config_from_json, run_replay, tune_session, ReplayOptions, SessionCtl, SharedInvocationStore,
    StopReason, StopToken, TuneError, TunerOptions, WindowOptions, WindowSummarizer, Workload,
    DEFAULT_SHARED_CAP,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

pub const NAMES: [&str; 5] = [
    "relax_deep",
    "prepass_wide",
    "updates_mixed",
    "serve_fleet",
    "replay_drift",
];

/// What one op recommended, in the form the output checks need.
pub struct Recommendation {
    pub config: Configuration,
    /// Workload cost the program reported for `config`.
    pub reported_cost: f64,
    /// Absolute slack on `reported_cost`, for reports that print it
    /// rounded.
    pub cost_slack: f64,
}

pub struct OpOutcome {
    pub latency_ms: f64,
    pub result: Result<Recommendation, String>,
}

#[derive(Default, Clone, Copy)]
pub struct HotTotals {
    pub nanos: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Sums over the traced sessions of one pass, read from the program's
/// own `Tracer` roll-ups.
#[derive(Default)]
pub struct TraceTotals {
    /// Wall-clock of the calls the tracers were attached to.
    pub session_us: f64,
    /// Closed `setup` / `prepass` / `search` spans.
    pub phase_ns: BTreeMap<&'static str, u64>,
    /// `candidates` / `pricing` / `eval` / `skyline` hot sections.
    pub hot: BTreeMap<&'static str, HotTotals>,
    pub counters: BTreeMap<&'static str, u64>,
    pub events: u64,
    pub jsonl_bytes: u64,
    pub to_jsonl_us: f64,
    /// `serve_fleet` only: the daemon's `stats` answer at the end of
    /// the pass, and ping round trips against the live daemon.
    pub daemon_stats: Option<Json>,
    pub ping_ms: Vec<f64>,
    /// Time the pass spent asking for those, which is not the pass's.
    pub probe_us: f64,
    /// Submits the daemon refused.
    pub rejected: u64,
    /// `replay_drift` only.
    pub retunes: u64,
    pub warm_serves: u64,
    pub replay_invocations: u64,
}

impl TraceTotals {
    /// Fold in one finished tracer, rendering its JSONL the way every
    /// traced user path does.
    pub fn add(&mut self, tracer: &Tracer, session_us: f64) {
        let summary = tracer.summary();
        self.session_us += session_us;
        for p in &summary.phases {
            *self.phase_ns.entry(p.name).or_default() += p.elapsed.as_nanos() as u64;
        }
        for h in &summary.hot_phases {
            let t = self.hot.entry(h.name).or_default();
            t.nanos += h.nanos;
            t.allocs += h.allocs;
            t.alloc_bytes += h.alloc_bytes;
        }
        for (name, v) in &summary.counters {
            *self.counters.entry(name).or_default() += v;
        }
        self.events += summary.events;
        let (jsonl, us, _) = measure(|| tracer.to_jsonl());
        self.to_jsonl_us += us;
        self.jsonl_bytes += jsonl.len() as u64;
    }
}

/// One workload, set up and ready to run passes.
pub trait Bench {
    /// Run every op once, closed loop. With `totals` the pass is the
    /// traced one: sessions run with a `Tracer` attached.
    fn pass(&mut self, rec: &mut Recorder, totals: Option<&mut TraceTotals>) -> Vec<OpOutcome>;

    /// Re-price op `op`'s recommendation on inputs rebuilt from the
    /// generated ones; returns `100 * (1 - cost / cost(base))`.
    fn check(&self, op: usize, r: &Recommendation) -> Result<f64, String>;

    /// Layer probes on each op's inputs, after the traced pass whose
    /// outcomes are `traced`.
    fn probe(
        &self,
        acc: &mut Acc,
        totals: &mut TraceTotals,
        traced: &[OpOutcome],
    ) -> Result<(), String>;
}

fn probe_catalog_builds(pool: &DbPool, acc: &mut Acc) {
    for kind in pool.kinds() {
        acc.add("catalog.build_ms", measure(|| kind.build()).1 / 1e3);
    }
}

pub fn set_up(name: &str, seed: u64, work_dir: &Path) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "relax_deep" => Box::new(TuneBench::set_up(inputs::relax_deep, seed)),
        "prepass_wide" => Box::new(TuneBench::set_up(inputs::prepass_wide, seed)),
        "updates_mixed" => Box::new(TuneBench::set_up(inputs::updates_mixed, seed)),
        "serve_fleet" => Box::new(FleetBench::set_up(seed, work_dir)?),
        "replay_drift" => Box::new(ReplayBench::set_up(seed)),
        other => {
            return Err(format!(
                "unknown workload `{other}` (one of {})",
                NAMES.join(", ")
            ))
        }
    })
}

/// The output check shared by every workload: the recommendation,
/// re-priced by a fresh optimizer, costs no more than the program said,
/// fits the budget, and (`floored`: a tuning session promises it, the
/// online loop between re-tunes does not) is no worse than
/// recommending nothing.
fn verify(
    db: &Database,
    workload: &Workload,
    r: &Recommendation,
    budget: f64,
    floored: bool,
) -> Result<f64, String> {
    let opt = Optimizer::new(db);
    let cost = evaluate_full(db, &opt, &r.config, workload).total_cost;
    // The reported cost is an upper bound by design: after a step the
    // search re-optimizes only the queries whose plans lost a structure
    // (§3.3), so a query that a merged index would now serve better
    // keeps its old price. Under-reporting would be a bug.
    if cost - r.reported_cost > r.cost_slack.max(1e-9 * cost.abs()) {
        return Err(format!(
            "re-priced cost {cost} exceeds the reported {}",
            r.reported_cost
        ));
    }
    let size = r.config.size_bytes(db);
    if size > budget {
        return Err(format!(
            "recommended size {size} exceeds the budget {budget}"
        ));
    }
    let base_cost = evaluate_full(db, &opt, &Configuration::base(db), workload).total_cost;
    if floored && cost > base_cost * (1.0 + 1e-9) {
        return Err(format!(
            "recommendation costs {cost}, worse than the base configuration's {base_cost}"
        ));
    }
    Ok(100.0 * (1.0 - cost / base_cost))
}

fn bind_sql(db: &Database, sql: &str) -> Result<Workload, String> {
    let statements = pdt_sql::parse_workload(sql).map_err(|e| format!("parse: {e}"))?;
    Workload::bind(db, &statements).map_err(|e| format!("bind: {e}"))
}

// ---- relax_deep / prepass_wide / updates_mixed ----------------------

fn tuner_options(input: &TuneInput) -> TunerOptions {
    TunerOptions {
        space_budget: Some(input.budget),
        max_iterations: input.iterations,
        with_views: input.with_views,
        threads: 1,
        ..TunerOptions::default()
    }
}

pub struct TuneBench {
    pool: DbPool,
    sessions: Vec<TuneInput>,
}

impl TuneBench {
    fn set_up(generate: fn(u64, &mut DbPool) -> Vec<TuneInput>, seed: u64) -> TuneBench {
        let mut pool = DbPool::default();
        let sessions = generate(seed, &mut pool);
        TuneBench { pool, sessions }
    }

    /// One op: SQL text -> `parse_workload` -> `Workload::bind` ->
    /// `tune_session` -> recommendation.
    fn op(
        &self,
        k: usize,
        rec: &mut Recorder,
        totals: Option<&mut TraceTotals>,
    ) -> Result<Recommendation, String> {
        let s = &self.sessions[k];
        let db = self.pool.get(s.db);
        let statements = rec
            .span("sql.parse", Some(k), |_| pdt_sql::parse_workload(&s.sql))
            .map_err(|e| format!("parse: {e}"))?;
        let workload = rec
            .span("expr.bind", Some(k), |_| Workload::bind(db, &statements))
            .map_err(|e| format!("bind: {e}"))?;
        let tracer = totals.is_some().then(Tracer::new);
        let (report, session_us, _) = measure(|| {
            rec.span("core.tune_session", Some(k), |_| {
                tune_session(
                    db,
                    &workload,
                    &tuner_options(s),
                    SessionCtl {
                        tracer: tracer.as_ref(),
                        ..SessionCtl::default()
                    },
                )
            })
        });
        let report = report.map_err(|e| e.to_string())?;
        if let (Some(totals), Some(tracer)) = (totals, &tracer) {
            rec.span("trace.to_jsonl", Some(k), |_| {
                totals.add(tracer, session_us)
            });
        }
        let best = report.best.ok_or("no configuration fits the budget")?;
        Ok(Recommendation {
            config: best.config,
            reported_cost: best.cost,
            cost_slack: 0.0,
        })
    }
}

impl Bench for TuneBench {
    fn pass(&mut self, rec: &mut Recorder, mut totals: Option<&mut TraceTotals>) -> Vec<OpOutcome> {
        (0..self.sessions.len())
            .map(|k| {
                let start = Instant::now();
                let result = rec.span("op", Some(k), |rec| self.op(k, rec, totals.as_deref_mut()));
                OpOutcome {
                    latency_ms: start.elapsed().as_secs_f64() * 1e3,
                    result,
                }
            })
            .collect()
    }

    fn check(&self, op: usize, r: &Recommendation) -> Result<f64, String> {
        let s = &self.sessions[op];
        let db = self.pool.get(s.db);
        verify(db, &bind_sql(db, &s.sql)?, r, s.budget, true)
    }

    fn probe(
        &self,
        acc: &mut Acc,
        _totals: &mut TraceTotals,
        _traced: &[OpOutcome],
    ) -> Result<(), String> {
        probe_catalog_builds(&self.pool, acc);
        for (k, s) in self.sessions.iter().enumerate() {
            let db = self.pool.get(s.db);
            probes::session_layers(db, &s.sql, &tuner_options(s), acc)?;
            if k == 0 {
                probes::checkpoint_layers(db, &bind_sql(db, &s.sql)?, &tuner_options(s), acc)?;
            }
        }
        Ok(())
    }
}

// ---- serve_fleet ------------------------------------------------------

/// Closed-loop clients of the fleet. One daemon slot serves them: two
/// tuner processes on the two-core sizing box reach 1.24x of one, so a
/// second slot would measure the scheduler, not the daemon.
const FLEET_CLIENTS: usize = 2;
const FLEET_POLL: Duration = Duration::from_millis(2);
const PING: &str = r#"{"op":"ping"}"#;

pub struct FleetBench {
    /// Distinct specs, budgets calibrated.
    specs: Vec<JobSpec>,
    /// Submission order of a pass; entries index `specs`.
    order: Vec<usize>,
    data_dir: PathBuf,
    /// Session directory of each op of the latest pass.
    session_dirs: Vec<Option<PathBuf>>,
}

type Daemon<'scope> = ScopedJoinHandle<'scope, Result<(), TuneError>>;

/// The daemon, started in-process on a fresh data directory, and a
/// client connected to it.
fn start_daemon<'scope>(
    scope: &'scope Scope<'scope, '_>,
    data_dir: &Path,
    stop: &StopToken,
) -> Result<(Client, Daemon<'scope>), String> {
    let _ = std::fs::remove_dir_all(data_dir);
    std::fs::create_dir_all(data_dir).map_err(|e| format!("{}: {e}", data_dir.display()))?;
    let opts = ServeOptions {
        data_dir: data_dir.to_path_buf(),
        slots: 1,
        queue_cap: 64,
        shared_store: true,
        ..ServeOptions::default()
    };
    let token = stop.clone();
    let daemon = scope.spawn(move || serve(opts, token));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(addr) = Client::discover(data_dir) {
            let client = Client::new(&addr);
            if client.call_once(PING).is_ok() {
                return Ok((client, daemon));
            }
        }
        if daemon.is_finished() || Instant::now() > deadline {
            stop.trip(StopReason::Interrupted);
            return Err(match daemon.join() {
                Ok(Err(e)) => format!("daemon: {e}"),
                _ => "daemon did not come up within 10 s".to_string(),
            });
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Trip the daemon's token and wait for its drain.
fn shut_down(stop: &StopToken, daemon: Daemon<'_>) -> Result<(), String> {
    stop.trip(StopReason::Interrupted);
    match daemon.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("daemon: {e}")),
        Err(_) => Err("the daemon thread panicked".to_string()),
    }
}

/// `best     cost 123.45  size 678  (+9.10%)` -> 123.45
fn reported_best_cost(report: &str) -> Option<f64> {
    report
        .lines()
        .find_map(|l| l.strip_prefix("best     cost "))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

impl FleetBench {
    fn set_up(seed: u64, work_dir: &Path) -> Result<FleetBench, String> {
        let specs = inputs::fleet_specs(seed);
        for spec in &specs {
            spec.validate()?;
        }
        let bench = FleetBench {
            specs,
            order: inputs::fleet_order(seed),
            data_dir: work_dir.join("serve"),
            session_dirs: Vec::new(),
        };
        // First daemon start: a user's first submit waits for it.
        let stop = StopToken::new();
        std::thread::scope(|scope| {
            let (_, daemon) = start_daemon(scope, &bench.data_dir, &stop)?;
            shut_down(&stop, daemon)
        })?;
        Ok(bench)
    }

    /// One op: `Client::submit` -> terminal state. `turn` hands out the
    /// pass's jobs; it stays locked across the submit so jobs reach the
    /// daemon's queue in the generated order on every pass.
    fn op(
        &self,
        client: &Client,
        turn: &Mutex<usize>,
        rec: &mut Recorder,
    ) -> Option<(usize, OpOutcome, Option<PathBuf>)> {
        let mut next = turn.lock().expect("a client thread panicked");
        let op = *next;
        let spec = &self.specs[*self.order.get(op)?];
        *next += 1;
        let start = Instant::now();
        let mut dir = None;
        let result = rec.span("op", Some(op), |rec| {
            let id = rec.span("serve.submit", Some(op), |_| client.submit(&spec.to_json()));
            drop(next);
            let id = id?;
            let session_dir = self.data_dir.join("sessions").join(&id);
            dir = Some(session_dir.clone());
            match rec.span("serve.wait", Some(op), |_| client.wait(&id, FLEET_POLL))? {
                (state, _) if state == "done" => Ok(session_dir),
                (state, error) => Err(format!(
                    "job {id} ended {state}: {}",
                    error.unwrap_or_default()
                )),
            }
        });
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        // Reading the artifacts back is the check's work, not the op's.
        let result = result.and_then(|session_dir| {
            let read = |file: &str| {
                let path = session_dir.join(file);
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
            };
            Ok(Recommendation {
                config: config_from_json(&read("result.json")?).map_err(|e| e.to_string())?,
                reported_cost: reported_best_cost(&read("report.txt")?)
                    .ok_or("report.txt has no `best cost` line")?,
                // `report.txt` prints the cost with two decimals.
                cost_slack: 0.005,
            })
        });
        Some((op, OpOutcome { latency_ms, result }, dir))
    }
}

impl Bench for FleetBench {
    fn pass(&mut self, rec: &mut Recorder, totals: Option<&mut TraceTotals>) -> Vec<OpOutcome> {
        let stop = StopToken::new();
        let this = &*self;
        let mut done: Vec<(usize, OpOutcome, Option<PathBuf>)> = std::thread::scope(|scope| {
            let (client, daemon) = match rec.span("serve.start", None, |_| {
                start_daemon(scope, &this.data_dir, &stop)
            }) {
                Ok(up) => up,
                Err(e) => {
                    return (0..this.order.len())
                        .map(|op| {
                            let failed = OpOutcome {
                                latency_ms: 0.0,
                                result: Err(e.clone()),
                            };
                            (op, failed, None)
                        })
                        .collect()
                }
            };
            let turn = Mutex::new(0);
            let mut done = Vec::new();
            std::thread::scope(|clients| {
                let handles: Vec<_> = (0..FLEET_CLIENTS)
                    .map(|_| {
                        let mut rec = rec.fork();
                        let (client, turn) = (&client, &turn);
                        clients.spawn(move || {
                            let mut mine = Vec::new();
                            while let Some(finished) = this.op(client, turn, &mut rec) {
                                mine.push(finished);
                            }
                            (mine, rec)
                        })
                    })
                    .collect();
                for handle in handles {
                    let (mine, theirs) = handle.join().expect("a client thread panicked");
                    done.extend(mine);
                    rec.absorb(theirs);
                }
            });
            if let Some(totals) = totals {
                // Only the live daemon can answer these, so the probes
                // sit inside the pass; their time is taken out again.
                let ((), us, _) = measure(|| {
                    rec.span("probes", None, |_| {
                        totals.daemon_stats = client.call_once(r#"{"op":"stats"}"#).ok();
                        totals.ping_ms = (0..32)
                            .filter_map(|_| {
                                let (pong, us, _) = measure(|| client.call_once(PING));
                                pong.ok().map(|_| us / 1e3)
                            })
                            .collect();
                    })
                });
                totals.probe_us = us;
                totals.rejected = done.iter().filter(|(_, _, dir)| dir.is_none()).count() as u64;
            }
            // The drain is part of the pass a user waits for.
            if let Err(e) = rec.span("serve.shutdown", None, |_| shut_down(&stop, daemon)) {
                eprintln!("pdt-benchmark: {e}");
            }
            done
        });
        done.sort_by_key(|(op, _, _)| *op);
        self.session_dirs = done.iter().map(|(_, _, dir)| dir.clone()).collect();
        done.into_iter().map(|(_, outcome, _)| outcome).collect()
    }

    fn check(&self, op: usize, r: &Recommendation) -> Result<f64, String> {
        let spec_at = self.order[op];
        let spec = &self.specs[spec_at];
        let db = spec.build_database()?;
        let workload = spec.build_workload(&db)?;
        let budget = spec.budget.expect("set-up calibrated it");
        let improvement = verify(&db, &workload, r, budget, true)?;
        // Tenants submitting one spec must get byte-identical artifacts,
        // whichever of them the shared store served.
        let twin = (0..self.order.len())
            .find(|&other| other != op && self.order[other] == spec_at)
            .expect("every spec is submitted twice");
        for file in ["report.txt", "trace.jsonl"] {
            let read = |at: usize| {
                let dir = self.session_dirs[at]
                    .as_ref()
                    .ok_or("job was never accepted")?;
                std::fs::read(dir.join(file)).map_err(|e| format!("{file}: {e}"))
            };
            if read(op)? != read(twin)? {
                return Err(format!(
                    "{file} differs between the two jobs of spec {spec_at}"
                ));
            }
        }
        Ok(improvement)
    }

    fn probe(
        &self,
        acc: &mut Acc,
        totals: &mut TraceTotals,
        traced: &[OpOutcome],
    ) -> Result<(), String> {
        // The pass again without the daemon around it: the same jobs in
        // the same order through `tune_session`, traced like the
        // daemon's and sharing one what-if store. What an op took
        // beyond this is protocol, queueing and durability.
        let store = SharedInvocationStore::new(DEFAULT_SHARED_CAP, 1);
        let mut overhead_ms = Vec::with_capacity(self.order.len());
        for (op, &spec_at) in self.order.iter().enumerate() {
            let spec = &self.specs[spec_at];
            let start = Instant::now();
            let db = spec.build_database()?;
            let workload = spec.build_workload(&db)?;
            let options = spec.tuner_options(None, StopToken::new())?;
            let tracer = Tracer::new();
            let (report, session_us, _) = measure(|| {
                tune_session(
                    &db,
                    &workload,
                    &options,
                    SessionCtl {
                        tracer: Some(&tracer),
                        shared_store: Some(&store),
                        ..SessionCtl::default()
                    },
                )
            });
            report.map_err(|e| e.to_string())?;
            totals.add(&tracer, session_us);
            overhead_ms.push(traced[op].latency_ms - start.elapsed().as_secs_f64() * 1e3);
        }
        acc.add("serve.overhead_ms_p50", median(&overhead_ms));

        for (spec_at, spec) in self.specs.iter().enumerate() {
            let (db, us, _) = measure(|| spec.build_database());
            let db = db?;
            acc.add("catalog.build_ms", us / 1e3);
            let workload = spec.build_workload(&db)?;
            let statements: Vec<_> = workload
                .entries
                .iter()
                .map(|e| e.statement.clone())
                .collect();
            let options = spec.tuner_options(None, StopToken::new())?;
            probes::session_layers(&db, &inputs::sql_text(&statements), &options, acc)?;
            if spec_at == 0 {
                probes::checkpoint_layers(&db, &workload, &options, acc)?;
            }
            let first = self.order.iter().position(|&s| s == spec_at);
            if let Some(Ok(r)) = first.map(|op| &traced[op].result) {
                probes::shared_store(&db, &workload, &r.config, acc);
            }
        }

        // One manifest-or-checkpoint-sized durable write.
        let path = self.data_dir.join("probe.bin");
        let body = vec![b'x'; 64 * 1024];
        for _ in 0..32 {
            let (written, us, _) = measure(|| atomic_write(&path, &body));
            written.map_err(|e| format!("{}: {e}", path.display()))?;
            acc.add("serve.durable.atomic_write_us", us);
        }
        Ok(())
    }
}

// ---- replay_drift -----------------------------------------------------

pub struct ReplayBench {
    pool: DbPool,
    streams: Vec<StreamInput>,
}

impl ReplayBench {
    fn set_up(seed: u64) -> ReplayBench {
        let mut pool = DbPool::default();
        let streams = inputs::replay_drift(seed, &mut pool);
        ReplayBench { pool, streams }
    }

    fn options(stream: &StreamInput) -> ReplayOptions {
        ReplayOptions {
            tuner: TunerOptions {
                space_budget: Some(stream.budget),
                // Views make a stream's cost swing 1.7x with the seed.
                with_views: false,
                max_iterations: stream.iterations,
                threads: 1,
                ..TunerOptions::default()
            },
            ..ReplayOptions::default()
        }
    }

    /// The window the online loop holds after the last epoch, rebuilt
    /// from the stream alone.
    fn final_window(db: &Database, stream: &StreamInput) -> Result<Workload, String> {
        let mut window = WindowSummarizer::new(WindowOptions::default());
        for batch in &stream.epochs {
            window.advance_epoch();
            for statement in batch {
                window.observe(statement.clone());
            }
        }
        window.bind(db).map_err(|e| e.to_string())
    }
}

impl Bench for ReplayBench {
    /// One op: one `run_replay` over a whole stream.
    fn pass(&mut self, rec: &mut Recorder, mut totals: Option<&mut TraceTotals>) -> Vec<OpOutcome> {
        self.streams
            .iter()
            .enumerate()
            .map(|(k, stream)| {
                let db = self.pool.get(stream.db);
                let tracer = totals.is_some().then(Tracer::new);
                let start = Instant::now();
                let result = rec.span("op", Some(k), |rec| {
                    let (report, session_us, _) = measure(|| {
                        rec.span("core.run_replay", Some(k), |_| {
                            run_replay(db, &stream.epochs, &Self::options(stream), tracer.as_ref())
                        })
                    });
                    let report = report.map_err(|e| e.to_string())?;
                    if let (Some(totals), Some(tracer)) = (totals.as_deref_mut(), &tracer) {
                        rec.span("trace.to_jsonl", Some(k), |_| {
                            totals.add(tracer, session_us)
                        });
                        totals.retunes += report.retunes;
                        totals.warm_serves += report.warm_serves;
                        totals.replay_invocations += report.real_invocations;
                    }
                    Ok(Recommendation {
                        config: report
                            .deployed
                            .ok_or("the stream never deployed anything")?,
                        reported_cost: report.final_window_cost,
                        cost_slack: 0.0,
                    })
                });
                OpOutcome {
                    latency_ms: start.elapsed().as_secs_f64() * 1e3,
                    result,
                }
            })
            .collect()
    }

    fn check(&self, op: usize, r: &Recommendation) -> Result<f64, String> {
        let stream = &self.streams[op];
        let db = self.pool.get(stream.db);
        verify(
            db,
            &Self::final_window(db, stream)?,
            r,
            stream.budget,
            false,
        )
    }

    fn probe(
        &self,
        acc: &mut Acc,
        _totals: &mut TraceTotals,
        traced: &[OpOutcome],
    ) -> Result<(), String> {
        probe_catalog_builds(&self.pool, acc);
        for (k, (stream, outcome)) in self.streams.iter().zip(traced).enumerate() {
            let db = self.pool.get(stream.db);
            let window = Self::final_window(db, stream)?;
            let statements: Vec<_> = window.entries.iter().map(|e| e.statement.clone()).collect();
            let options = Self::options(stream).tuner;
            probes::session_layers(db, &inputs::sql_text(&statements), &options, acc)?;
            if k == 0 {
                probes::checkpoint_layers(db, &window, &options, acc)?;
            }
            if let Ok(r) = &outcome.result {
                probes::shared_store(db, &window, &r.config, acc);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_cost_is_read_from_the_daemon_report() {
        let report = "pdtune session: db=tpch sf=0.02 seed=1 iterations=60\n\
                      initial  cost 10.00  size 5\n\
                      best     cost 1234.56  size 789  (+12.34%)\n";
        assert_eq!(reported_best_cost(report), Some(1234.56));
        assert_eq!(
            reported_best_cost("best     (no configuration fits the budget)\n"),
            None
        );
    }
}
