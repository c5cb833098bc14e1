//! The `pdtune serve` daemon: accept loop, worker pool, admission
//! control, recovery scan, and graceful shutdown.
//!
//! Layout of the data directory:
//!
//! ```text
//! <data-dir>/
//!   endpoint            "host:port\n" of the bound listener
//!   sessions/s0001/...  one directory per session (see `session`)
//! ```
//!
//! Lifecycle:
//!
//! 1. **Recovery scan** (before binding): read every
//!    `sessions/*/manifest.json`. A corrupt manifest aborts startup
//!    with [`TuneError::Manifest`] (exit 9) — silently dropping an
//!    accepted job is the one thing this daemon must never do.
//!    Non-terminal sessions (`queued`, `running`) re-enter the queue;
//!    `running` ones resume from their durable checkpoint.
//! 2. **Bind** the TCP listener ([`TuneError::Bind`], exit 8, on
//!    failure) and durably publish the actual address in `endpoint`
//!    (port 0 lets tests pick a free port).
//! 3. **Serve**: a blocking accept loop hands each connection to a
//!    short-lived handler thread (a waker thread watches the shutdown
//!    token and releases the `accept` with a self-connection); `slots`
//!    worker threads drain the session queue. Admission is bounded: more than `queue_cap`
//!    waiting sessions → explicit backpressure
//!    (`{"error":"overloaded","retry_after_ms":...}`), never
//!    unbounded memory.
//! 4. **Shutdown** (SIGTERM or the `shutdown` op): stop accepting,
//!    trip every running session's stop token, and join the workers.
//!    Running sessions drain to a final durable checkpoint with their
//!    manifests left `running` — the next daemon resumes them
//!    byte-identically.

use crate::catalogs::CatalogTable;
use crate::durable::{atomic_write, DurableWriter, RetryPolicy};
use crate::manifest::{Manifest, SessionState};
use crate::protocol::{err_response, ok_response, overloaded_response, parse_request, Request};
use crate::session::{run_session, Session};
use pdt_trace::json::Json;
use pdt_tuner::fault::FaultPlan;
use pdt_tuner::{StopReason, StopToken, TuneError};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Daemon configuration (the `pdtune serve` flags).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address; port 0 picks a free port (published in the
    /// `endpoint` file).
    pub addr: String,
    /// Root of the durable state (sessions, endpoint file).
    pub data_dir: PathBuf,
    /// Concurrent tuning sessions.
    pub slots: usize,
    /// Bound on *waiting* sessions before submits are rejected with
    /// backpressure.
    pub queue_cap: usize,
    /// Global what-if call budget shared fairly across sessions; each
    /// admission is assigned `global / slots` (capped by its request).
    pub global_call_budget: Option<usize>,
    /// Backpressure hint returned with overload rejections.
    pub retry_after_ms: u64,
    /// Fault plan for *manifest* writes (from `PDTUNE_FAULTS`); session
    /// checkpoint writes use each job's own `io_faults` plan.
    pub manifest_faults: Option<FaultPlan>,
    /// Cross-session shared what-if store (`--shared-store`): serve
    /// one tenant's optimizer answers to every other tenant with a
    /// matching (schema, query, relevant-subset) content key.
    pub shared_store: bool,
    /// Shared-store capacity bound in entries (`--shared-store-cap`).
    pub shared_store_cap: usize,
    /// Warm-store file (`--warm-store`): the shared store is loaded
    /// from here at startup (corrupt file → log and cold-start) and
    /// persisted here on graceful shutdown, so a restarted daemon
    /// keeps its heat. Implies `shared_store`.
    pub warm_store: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            data_dir: PathBuf::from("pdtune-serve"),
            slots: 2,
            queue_cap: 16,
            global_call_budget: None,
            retry_after_ms: 250,
            manifest_faults: None,
            shared_store: false,
            shared_store_cap: pdt_tuner::DEFAULT_SHARED_CAP,
            warm_store: None,
        }
    }
}

/// Fair-share assignment of the global what-if budget. The share is
/// fixed at admission and persisted in the manifest: a dynamic share
/// would change the options signature across restarts and break
/// checkpoint resume.
fn assign_budget(opts: &ServeOptions, requested: Option<usize>) -> Option<u64> {
    match (opts.global_call_budget, requested) {
        (None, None) => None,
        (None, Some(r)) => Some(r as u64),
        (Some(g), r) => {
            let share = (g / opts.slots.max(1)).max(1) as u64;
            Some(r.map_or(share, |r| share.min(r as u64)))
        }
    }
}

struct Queue {
    items: std::collections::VecDeque<Arc<Session>>,
    shutdown: bool,
}

/// Cumulative per-daemon counters (stats op), aggregated from every
/// finished [`crate::session::RunOutcome`].
#[derive(Default)]
struct Totals {
    /// Sessions that reached `done`.
    sessions_completed: AtomicU64,
    optimizer_calls: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    plan_hits: AtomicU64,
    invocation_hits: AtomicU64,
}

struct Daemon {
    opts: ServeOptions,
    registry: Mutex<BTreeMap<String, Arc<Session>>>,
    queue: Mutex<Queue>,
    queue_cv: Condvar,
    next_id: Mutex<u64>,
    writer: DurableWriter,
    shutdown: StopToken,
    /// Aggregate what-if calls spent by finished sessions (stats op).
    budget_spent: AtomicU64,
    totals: Totals,
    /// Built catalogs, shared by every session over the same key.
    catalogs: CatalogTable,
    /// The cross-session what-if store (`--shared-store`).
    shared: Option<Arc<pdt_tuner::SharedInvocationStore>>,
    /// How the startup warm-store load went (satellite of DESIGN.md
    /// §16: a corrupt warm file used to log-and-cold-start invisibly).
    /// Surfaced verbatim in the `stats` op as `warm_store_status`.
    warm_store_status: String,
}

impl Daemon {
    fn sessions_dir(&self) -> PathBuf {
        self.opts.data_dir.join("sessions")
    }

    fn waiting(&self) -> usize {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .items
            .len()
    }

    fn enqueue(&self, session: Arc<Session>) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.items.push_back(session);
        drop(q);
        self.queue_cv.notify_one();
    }
}

/// Scan `sessions/` and rebuild the registry. Corrupt manifests abort
/// startup; non-terminal sessions are returned for re-queueing in id
/// order (oldest first).
fn recover(daemon: &Daemon) -> Result<Vec<Arc<Session>>, TuneError> {
    let dir = daemon.sessions_dir();
    let io_err = |e: std::io::Error| TuneError::Io {
        path: dir.display().to_string(),
        msg: e.to_string(),
    };
    std::fs::create_dir_all(&dir).map_err(io_err)?;
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(io_err)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    entries.sort();

    let mut requeue = Vec::new();
    let mut max_id = 0u64;
    for session_dir in entries {
        let manifest_path = session_dir.join("manifest.json");
        if !manifest_path.exists() {
            // A session dir without a manifest is a submit that died
            // before its first durable write — it was never acked, so
            // it is not an accepted job. Ignore it.
            continue;
        }
        let body = std::fs::read_to_string(&manifest_path)
            .map_err(|e| TuneError::Manifest(format!("{}: {e}", manifest_path.display())))?;
        let manifest = Manifest::from_json_str(&body)
            .map_err(|e| TuneError::Manifest(format!("{}: {e}", manifest_path.display())))?;
        if let Some(n) = manifest
            .id
            .strip_prefix('s')
            .and_then(|n| n.parse::<u64>().ok())
        {
            max_id = max_id.max(n);
        }
        let session = Arc::new(Session::new(
            manifest.id.clone(),
            session_dir,
            manifest.spec,
            manifest.assigned_call_budget,
            manifest.state,
            manifest.error,
        ));
        if !manifest.state.is_terminal() {
            requeue.push(Arc::clone(&session));
        }
        daemon
            .registry
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(manifest.id, session);
    }
    *daemon.next_id.lock().unwrap_or_else(|e| e.into_inner()) = max_id + 1;
    Ok(requeue)
}

fn worker_loop(daemon: &Daemon) {
    loop {
        let session = {
            let mut q = daemon.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if q.shutdown {
                    return;
                }
                if let Some(s) = q.items.pop_front() {
                    break s;
                }
                q = daemon.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        if session.cancel_requested.load(Ordering::Acquire) {
            // Canceled while still queued: terminal without a run.
            session.set_state(SessionState::Canceled, None);
            if let Err(e) = session.persist_manifest(&daemon.writer) {
                eprintln!("serve: session {}: cancel manifest: {e}", session.id);
            }
            continue;
        }
        let outcome = run_session(
            &session,
            &daemon.writer,
            &daemon.catalogs,
            daemon.shared.as_deref(),
        );
        daemon
            .budget_spent
            .fetch_add(outcome.budget_spent, Ordering::Relaxed);
        let t = &daemon.totals;
        if outcome.state == SessionState::Done {
            t.sessions_completed.fetch_add(1, Ordering::Relaxed);
        }
        let c = outcome.counters;
        t.optimizer_calls
            .fetch_add(c.optimizer_calls, Ordering::Relaxed);
        t.cache_hits.fetch_add(c.cache_hits, Ordering::Relaxed);
        t.cache_misses.fetch_add(c.cache_misses, Ordering::Relaxed);
        t.plan_hits.fetch_add(c.plan_hits, Ordering::Relaxed);
        t.invocation_hits
            .fetch_add(c.invocation_hits, Ordering::Relaxed);
    }
}

fn state_counts(daemon: &Daemon) -> BTreeMap<&'static str, i64> {
    let mut counts = BTreeMap::new();
    for s in daemon
        .registry
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .values()
    {
        *counts.entry(s.state().0.label()).or_insert(0) += 1;
    }
    counts
}

fn handle_submit(daemon: &Daemon, spec: crate::job::JobSpec) -> String {
    // Admission control: bounded queue, explicit backpressure.
    if daemon.waiting() >= daemon.opts.queue_cap {
        return overloaded_response(daemon.opts.retry_after_ms);
    }
    // Warm start: resolve the source session's final configuration
    // *before* accepting the job — an acked submit must be runnable.
    let deployed_body: Option<String> = match &spec.warm_from {
        None => None,
        Some(src) => {
            let source = daemon
                .registry
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(src)
                .cloned();
            let Some(source) = source else {
                return err_response(&format!("warm_from: no such session `{src}`"));
            };
            if source.state().0 != SessionState::Done {
                return err_response(&format!(
                    "warm_from: session `{src}` is {}, not done",
                    source.state().0.label()
                ));
            }
            let body = match std::fs::read_to_string(source.result_path()) {
                Ok(b) => b,
                Err(_) => {
                    return err_response(&format!(
                        "warm_from: session `{src}` has no warm-startable configuration \
                         (no best within budget, or it contains materialized views)"
                    ))
                }
            };
            if let Err(e) = pdt_tuner::config_from_json(&body) {
                return err_response(&format!("warm_from: session `{src}`: {e}"));
            }
            Some(body)
        }
    };
    let id = {
        let mut next = daemon.next_id.lock().unwrap_or_else(|e| e.into_inner());
        let id = format!("s{:04}", *next);
        *next += 1;
        id
    };
    let dir = daemon.sessions_dir().join(&id);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return err_response(&format!("creating {}: {e}", dir.display()));
    }
    // The deployed config is copied into the new session's directory —
    // recovery is self-contained even if the source session is deleted.
    if let Some(body) = &deployed_body {
        if let Err(e) = atomic_write(&dir.join("deployed.json"), body.as_bytes()) {
            let _ = std::fs::remove_dir_all(&dir);
            return err_response(&format!("warm_from: persisting deployed config: {e}"));
        }
    }
    let assigned = assign_budget(&daemon.opts, spec.call_budget);
    let session = Arc::new(Session::new(
        id.clone(),
        dir.clone(),
        spec,
        assigned,
        SessionState::Queued,
        None,
    ));
    // The ack happens only after this durable write: an acked submit
    // survives kill -9 by construction.
    if let Err(e) = session.persist_manifest(&daemon.writer) {
        let _ = std::fs::remove_dir_all(&dir);
        return err_response(&format!("manifest write: {e}"));
    }
    daemon
        .registry
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(id.clone(), Arc::clone(&session));
    daemon.enqueue(session);
    let mut fields = vec![
        ("id".to_string(), Json::Str(id)),
        ("state".to_string(), Json::Str("queued".into())),
    ];
    if let Some(b) = assigned {
        fields.push(("assigned_call_budget".to_string(), Json::Int(b as i64)));
    }
    ok_response(fields)
}

fn status_fields(session: &Session) -> Vec<(String, Json)> {
    let (state, error) = session.state();
    vec![
        ("id".to_string(), Json::Str(session.id.clone())),
        ("state".to_string(), Json::Str(state.label().into())),
        ("error".to_string(), error.map_or(Json::Null, Json::Str)),
    ]
}

fn handle_watch(
    daemon: &Daemon,
    stream: &mut TcpStream,
    id: &str,
    mut from: u64,
) -> std::io::Result<()> {
    let session = match daemon
        .registry
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(id)
        .cloned()
    {
        Some(s) => s,
        None => {
            writeln!(
                stream,
                "{}",
                err_response(&format!("no such session `{id}`"))
            )?;
            return Ok(());
        }
    };
    loop {
        // Order matters: read the state BEFORE fetching events. A
        // session is marked terminal only after its last event is in
        // the tracer, so terminal-then-fetch can never miss a tail the
        // other order would drop.
        let (state, _) = session.state();
        let (chunk, next) = session.tracer.events_jsonl_from(from);
        if !chunk.is_empty() {
            stream.write_all(chunk.as_bytes())?;
        }
        if state.is_terminal() {
            if next == 0 && from == 0 {
                // Terminal session recovered from a previous daemon:
                // its live tracer is empty, but the durable trace is
                // the same stream. Replay it from disk.
                if let Ok(body) = std::fs::read_to_string(session.trace_path()) {
                    stream.write_all(body.as_bytes())?;
                }
            }
            writeln!(
                stream,
                "{}",
                ok_response(vec![
                    ("done".to_string(), Json::Bool(true)),
                    ("state".to_string(), Json::Str(state.label().into())),
                ])
            )?;
            return Ok(());
        }
        if daemon.shutdown.get().is_some() {
            writeln!(
                stream,
                "{}",
                ok_response(vec![
                    ("done".to_string(), Json::Bool(false)),
                    ("state".to_string(), Json::Str(state.label().into())),
                ])
            )?;
            return Ok(());
        }
        from = next;
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Longest request line the daemon will buffer. Real requests are a
/// job spec — a few hundred bytes, or a workload file's SQL inline.
const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// The first line of `stream`, or `Err` with the protocol answer when
/// it runs past [`MAX_REQUEST_BYTES`] without ending — a client can
/// make the daemon hold a megabyte, never more. `Ok(None)`: nothing to
/// answer (closed, timed out, empty, not UTF-8).
fn read_request_line(stream: impl Read) -> Result<Option<String>, String> {
    let mut line = String::new();
    let mut capped = BufReader::new(stream.take(MAX_REQUEST_BYTES));
    if capped.read_line(&mut line).is_err() {
        return Ok(None);
    }
    if line.len() as u64 >= MAX_REQUEST_BYTES && !line.ends_with('\n') {
        return Err(err_response("request too large"));
    }
    Ok(Some(line).filter(|l| !l.trim().is_empty()))
}

fn handle_connection(daemon: &Daemon, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    let line = match read_request_line(reader) {
        Ok(Some(line)) => line,
        Ok(None) => return,
        Err(too_large) => {
            let _ = writeln!(stream, "{too_large}");
            return;
        }
    };
    let response = match parse_request(&line) {
        Err(e) => err_response(&e),
        Ok(Request::Ping) => ok_response(vec![(
            "pid".to_string(),
            Json::Int(std::process::id() as i64),
        )]),
        Ok(Request::Submit { spec }) => handle_submit(daemon, spec),
        Ok(Request::Status { id }) => {
            match daemon
                .registry
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(&id)
            {
                Some(s) => ok_response(status_fields(s)),
                None => err_response(&format!("no such session `{id}`")),
            }
        }
        Ok(Request::List) => {
            let sessions: Vec<Json> = daemon
                .registry
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .values()
                .map(|s| Json::Obj(status_fields(s)))
                .collect();
            ok_response(vec![("sessions".to_string(), Json::Arr(sessions))])
        }
        Ok(Request::Cancel { id }) => {
            match daemon
                .registry
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(&id)
                .cloned()
            {
                Some(s) => {
                    let (state, _) = s.state();
                    if !state.is_terminal() {
                        s.cancel_requested.store(true, Ordering::Release);
                        s.token.trip(StopReason::Interrupted);
                        // Wake a worker in case the session is queued so
                        // the cancel is persisted promptly.
                        daemon.queue_cv.notify_all();
                    }
                    ok_response(status_fields(&s))
                }
                None => err_response(&format!("no such session `{id}`")),
            }
        }
        Ok(Request::Watch { id, from }) => {
            let _ = handle_watch(daemon, &mut stream, &id, from);
            return;
        }
        Ok(Request::Stats) => {
            let mut fields: Vec<(String, Json)> = state_counts(daemon)
                .into_iter()
                .map(|(k, v)| (k.to_string(), Json::Int(v)))
                .collect();
            fields.push(("waiting".to_string(), Json::Int(daemon.waiting() as i64)));
            fields.push(("slots".to_string(), Json::Int(daemon.opts.slots as i64)));
            fields.push((
                "queue_cap".to_string(),
                Json::Int(daemon.opts.queue_cap as i64),
            ));
            fields.push((
                "global_call_budget".to_string(),
                daemon
                    .opts
                    .global_call_budget
                    .map_or(Json::Null, |b| Json::Int(b as i64)),
            ));
            fields.push((
                "budget_spent".to_string(),
                Json::Int(daemon.budget_spent.load(Ordering::Relaxed) as i64),
            ));
            // Cumulative per-daemon engine counters (mode-invariant
            // logical tallies), plus the process-global count of real
            // optimizer invocations — the one number the shared store
            // actually shrinks.
            let t = &daemon.totals;
            for (name, v) in [
                ("sessions_completed", &t.sessions_completed),
                ("optimizer_calls", &t.optimizer_calls),
                ("cache_hits", &t.cache_hits),
                ("cache_misses", &t.cache_misses),
                ("plan_hits", &t.plan_hits),
                ("invocation_hits", &t.invocation_hits),
            ] {
                fields.push((
                    name.to_string(),
                    Json::Int(v.load(Ordering::Relaxed) as i64),
                ));
            }
            fields.push((
                "real_invocations".to_string(),
                Json::Int(pdt_opt::invocation_count() as i64),
            ));
            fields.push((
                "shared_store".to_string(),
                Json::Bool(daemon.shared.is_some()),
            ));
            fields.push((
                "warm_store_status".to_string(),
                Json::Str(daemon.warm_store_status.clone()),
            ));
            let s = daemon
                .shared
                .as_ref()
                .map(|s| s.stats())
                .unwrap_or_default();
            for (name, v) in [
                ("shared_entries", s.entries),
                ("shared_hits", s.hits),
                ("shared_plan_hits", s.plan_hits),
                ("shared_misses", s.misses),
                ("shared_inserts", s.inserts),
                ("shared_evicted", s.evicted),
            ] {
                fields.push((name.to_string(), Json::Int(v as i64)));
            }
            ok_response(fields)
        }
        Ok(Request::Shutdown) => {
            daemon.shutdown.trip(StopReason::Interrupted);
            ok_response(vec![("shutting_down".to_string(), Json::Bool(true))])
        }
    };
    let _ = writeln!(stream, "{response}");
}

/// Load a warm-store dump into `store`, classifying the outcome for
/// the `stats` op. Operators previously could not tell a warm start
/// from a cold one forced by a corrupt or unreadable warm file — the
/// load only logged to stderr. The returned status is one of:
///
/// * `loaded:N` — N entries restored;
/// * `absent` — no file at the path (first boot);
/// * `corrupt:<why>` — the file parsed as nothing and the store
///   cold-started;
/// * `unreadable:<why>` — the file exists but could not be read.
pub fn warm_load_status(
    store: &pdt_tuner::SharedInvocationStore,
    path: &std::path::Path,
) -> String {
    match std::fs::read_to_string(path) {
        Ok(body) => match store.load_warm_json(&body) {
            Ok(n) => format!("loaded:{n}"),
            Err(e) => format!("corrupt:{e}"),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => "absent".to_string(),
        Err(e) => format!("unreadable:{e}"),
    }
}

/// Quiet the default panic printer for *injected* fault payloads so
/// fault-injection tests don't spray backtrace noise; real panics
/// still print (and are contained per-session by `run_session`).
pub fn quiet_injected_panics() {
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

/// How often the waker looks at the shutdown token: the most a
/// SIGTERM or `shutdown` op waits before the drain starts.
const SHUTDOWN_POLL: Duration = Duration::from_millis(5);

/// Where to reach a listener bound to `local` from this host: a
/// wildcard bind address is not a destination.
fn loopback(mut local: SocketAddr) -> SocketAddr {
    if local.ip().is_unspecified() {
        local.set_ip(match local {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    local
}

/// Run the daemon until `shutdown` trips (SIGTERM, Ctrl-C, or the
/// `shutdown` op). On a clean return every running session has drained
/// to a durable checkpoint and every queued session's manifest is on
/// disk — a subsequent `serve` on the same data dir finishes the work.
pub fn serve(opts: ServeOptions, shutdown: StopToken) -> Result<(), TuneError> {
    quiet_injected_panics();
    // Shared what-if store: built before the workers, warm-loaded from
    // the previous daemon's dump when one exists. A truncated or
    // corrupt warm file loads nothing (the parse is all-or-nothing) —
    // the daemon logs it and cold-starts; it never refuses to boot.
    let mut warm_store_status = "disabled".to_string();
    let shared = (opts.shared_store || opts.warm_store.is_some()).then(|| {
        let store = Arc::new(pdt_tuner::SharedInvocationStore::new(
            opts.shared_store_cap.max(1),
            opts.slots.max(1),
        ));
        warm_store_status = match &opts.warm_store {
            Some(path) => {
                let status = warm_load_status(&store, path);
                eprintln!("pdtune serve: warm store {}: {status}", path.display());
                status
            }
            None => "no-warm-file".to_string(),
        };
        store
    });
    let daemon = Arc::new(Daemon {
        writer: DurableWriter::new(opts.manifest_faults, RetryPolicy::default()),
        opts,
        registry: Mutex::new(BTreeMap::new()),
        queue: Mutex::new(Queue {
            items: std::collections::VecDeque::new(),
            shutdown: false,
        }),
        queue_cv: Condvar::new(),
        next_id: Mutex::new(1),
        shutdown,
        budget_spent: AtomicU64::new(0),
        totals: Totals::default(),
        catalogs: CatalogTable::default(),
        shared,
        warm_store_status,
    });

    // 1. Recovery scan (before bind: a corrupt store must fail fast).
    for session in recover(&daemon)? {
        daemon.enqueue(session);
    }

    // 2. Bind and durably publish the endpoint.
    let listener = TcpListener::bind(&daemon.opts.addr).map_err(|e| TuneError::Bind {
        addr: daemon.opts.addr.clone(),
        msg: e.to_string(),
    })?;
    let local = listener.local_addr().map_err(|e| TuneError::Bind {
        addr: daemon.opts.addr.clone(),
        msg: e.to_string(),
    })?;
    let endpoint = daemon.opts.data_dir.join("endpoint");
    atomic_write(&endpoint, format!("{local}\n").as_bytes()).map_err(|e| TuneError::Io {
        path: endpoint.display().to_string(),
        msg: e.to_string(),
    })?;
    eprintln!(
        "pdtune serve: listening on {local}, data dir {}",
        daemon.opts.data_dir.display()
    );

    // 3. Worker pool.
    let workers: Vec<_> = (0..daemon.opts.slots.max(1))
        .map(|i| {
            let d = Arc::clone(&daemon);
            std::thread::Builder::new()
                .name(format!("pdtune-worker-{i}"))
                .spawn(move || worker_loop(&d))
                .expect("spawn worker")
        })
        .collect();

    // 4. Accept loop. `accept` blocks, so a request is picked up the
    // moment it arrives; the waker turns a tripped shutdown token into
    // one more connection for the loop to wake on.
    let waker = {
        let token = daemon.shutdown.clone();
        std::thread::Builder::new()
            .name("pdtune-waker".to_string())
            .spawn(move || {
                while token.get().is_none() {
                    std::thread::sleep(SHUTDOWN_POLL);
                }
                let _ = TcpStream::connect(loopback(local));
            })
            .expect("spawn waker")
    };
    for stream in listener.incoming() {
        if daemon.shutdown.get().is_some() {
            break;
        }
        match stream {
            Ok(stream) => {
                let d = Arc::clone(&daemon);
                let _ = std::thread::Builder::new()
                    .name("pdtune-conn".to_string())
                    .spawn(move || handle_connection(&d, stream));
            }
            Err(e) => {
                eprintln!("serve: accept: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    let _ = waker.join();

    // 5. Graceful drain: no new work, trip every running session, join.
    eprintln!("pdtune serve: shutting down, draining live sessions");
    {
        let mut q = daemon.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.shutdown = true;
    }
    daemon.queue_cv.notify_all();
    for session in daemon
        .registry
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .values()
    {
        if session.state().0 == SessionState::Running {
            session.token.trip(StopReason::Interrupted);
        }
    }
    for w in workers {
        let _ = w.join();
    }
    // Persist the shared store's heat for the next daemon (tmp + fsync
    // + rename, like every other durable artifact). Best-effort: a
    // failed dump costs warmth, never correctness.
    if let (Some(store), Some(path)) = (&daemon.shared, &daemon.opts.warm_store) {
        match atomic_write(path, store.to_warm_json().as_bytes()) {
            Ok(()) => eprintln!("pdtune serve: warm store {} written", path.display()),
            Err(e) => eprintln!("pdtune serve: warm store {}: {e}", path.display()),
        }
    }
    eprintln!("pdtune serve: drained");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_shares_are_fair_and_capped_by_request() {
        let mut opts = ServeOptions {
            global_call_budget: Some(100),
            slots: 4,
            ..ServeOptions::default()
        };
        assert_eq!(assign_budget(&opts, None), Some(25));
        assert_eq!(assign_budget(&opts, Some(10)), Some(10));
        assert_eq!(assign_budget(&opts, Some(400)), Some(25));
        opts.global_call_budget = None;
        assert_eq!(assign_budget(&opts, None), None);
        assert_eq!(assign_budget(&opts, Some(7)), Some(7));
        // Degenerate global budgets still assign at least one call.
        opts.global_call_budget = Some(2);
        assert_eq!(assign_budget(&opts, None), Some(1));
    }

    #[test]
    fn request_lines_are_bounded() {
        let ok = read_request_line(&b"{\"op\":\"ping\"}\nignored"[..]).unwrap();
        assert_eq!(ok.as_deref(), Some("{\"op\":\"ping\"}\n"));
        assert_eq!(read_request_line(&b"  \n"[..]).unwrap(), None);
        assert_eq!(read_request_line(&b""[..]).unwrap(), None);
        assert_eq!(read_request_line(&b"\xff\xfe\n"[..]).unwrap(), None);
        // The largest line that fits is still a request…
        let mut fits = vec![b'a'; MAX_REQUEST_BYTES as usize - 1];
        fits.push(b'\n');
        assert_eq!(
            read_request_line(&fits[..]).unwrap().map(|l| l.len()),
            Some(MAX_REQUEST_BYTES as usize)
        );
        // …a 2 MiB one is answered, not buffered…
        let mut big = vec![b'a'; 2 << 20];
        big.push(b'\n');
        let answer = read_request_line(&big[..]).unwrap_err();
        assert!(answer.contains("request too large"), "{answer}");
        assert_eq!(
            parse_request_ok(&answer),
            Some(false),
            "the refusal is a protocol answer"
        );
        // …and so is one that never ends.
        let endless = read_request_line(std::io::repeat(b'{')).unwrap_err();
        assert_eq!(endless, answer);
    }

    fn parse_request_ok(response: &str) -> Option<bool> {
        pdt_trace::json::parse(response).ok()?.get("ok")?.as_bool()
    }

    #[test]
    fn wildcard_listeners_are_woken_through_loopback() {
        let woken = |bind: &str| loopback(bind.parse().unwrap()).to_string();
        assert_eq!(woken("0.0.0.0:7070"), "127.0.0.1:7070");
        assert_eq!(woken("[::]:7070"), "[::1]:7070");
        assert_eq!(woken("127.0.0.1:9"), "127.0.0.1:9");
    }

    #[test]
    fn warm_store_status_distinguishes_cold_start_causes() {
        let dir = std::env::temp_dir().join(format!("pdtune-warmstatus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = pdt_tuner::SharedInvocationStore::new(64, 1);

        // First boot: no file — an expected cold start.
        assert_eq!(warm_load_status(&store, &dir.join("none.json")), "absent");

        // Corrupt dump: the silent-cold-start case this status exists
        // for — the daemon still boots, but stats now says why it is
        // cold.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, b"{definitely not a warm dump").unwrap();
        let status = warm_load_status(&store, &bad);
        assert!(status.starts_with("corrupt:"), "{status}");

        // A valid (empty) dump round-trips as a warm start.
        let good = dir.join("good.json");
        std::fs::write(&good, store.to_warm_json()).unwrap();
        let status = warm_load_status(&store, &good);
        assert!(status.starts_with("loaded:"), "{status}");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
