//! Online re-tuning under workload drift.
//!
//! The relaxation engine tunes a *fixed* workload. This module wraps it
//! in a continuous loop: a sliding-window summarizer ingests a query
//! stream epoch by epoch, a drift detector decides when the deployed
//! configuration has fallen behind the stream, and each re-tune
//! warm-starts from the previous session instead of re-instrumenting
//! from scratch:
//!
//! * the epoch's session probes a long-lived [`SharedInvocationStore`]
//!   (the PR 9 cross-session tier) carrying every what-if answer priced
//!   in earlier epochs — served answers are pure functions of their
//!   keys (schema signature, statement signature, relevant-subset
//!   signature), so carrying them across epochs is sound by the same
//!   argument as serving them across daemon tenants;
//! * the deployed configuration seeds the search
//!   ([`TunerOptions::deployed`]) both as a relaxation start point and
//!   as a safety floor: per DBA-bandits, the recommendation is
//!   rejected in favour of the deployed configuration whenever it
//!   would price worse on the new window.
//!
//! Determinism: the whole loop is a pure function of the stream and the
//! options. Window state, drift arithmetic, and the per-statement cost
//! map all derive from deterministic evaluations, so the same stream
//! and seed produce byte-identical reports and traces on every run.

use crate::cache::CostCache;
use crate::derived::RelevanceTable;
use crate::error::TuneError;
use crate::eval::{evaluate_full_ctx, EvalCtx};
use crate::search::{tune_session, SessionCtl, TunerOptions};
use crate::shared::{
    schema_signature, statement_signature, SharedCtx, SharedInvocationStore, DEFAULT_SHARED_CAP,
};
use crate::workload::Workload;
use pdt_catalog::Database;
use pdt_opt::{invocation_count, Optimizer};
use pdt_physical::Configuration;
use pdt_sql::Statement;
use pdt_trace::Tracer;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Knobs of the sliding-window summarizer.
#[derive(Debug, Clone, Copy)]
pub struct WindowOptions {
    /// Maximum distinct statements held in the window. On overflow the
    /// entry with the smallest weight (oldest arrival on ties) is
    /// evicted, deterministically.
    pub cap: usize,
    /// Per-epoch multiplicative decay applied to every weight when the
    /// window advances (1.0 = never forget).
    pub decay: f64,
    /// Entries whose decayed weight falls below this are dropped when
    /// the window advances.
    pub min_weight: f64,
}

impl Default for WindowOptions {
    fn default() -> WindowOptions {
        WindowOptions {
            cap: 256,
            decay: 0.5,
            min_weight: 1e-6,
        }
    }
}

struct WindowEntry {
    statement: Statement,
    sig: u128,
    weight: f64,
    /// Monotone arrival counter of the *first* observation; snapshot
    /// order and eviction tie-breaks both use it, so the window is a
    /// pure function of the observation sequence.
    arrival: u64,
}

/// Sliding-window workload summarizer: dedups a statement stream by
/// text signature, accumulates decayed weights, and caps the number of
/// distinct statements. All state transitions are deterministic.
pub struct WindowSummarizer {
    opts: WindowOptions,
    /// First-arrival order; eviction removes from the middle but never
    /// reorders survivors.
    entries: Vec<WindowEntry>,
    arrivals: u64,
    evicted: u64,
    expired: u64,
}

impl WindowSummarizer {
    pub fn new(opts: WindowOptions) -> WindowSummarizer {
        WindowSummarizer {
            opts,
            entries: Vec::new(),
            arrivals: 0,
            evicted: 0,
            expired: 0,
        }
    }

    /// Distinct statements currently in the window.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted by the distinct-statement cap so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Entries expired by decay below `min_weight` so far.
    pub fn expired(&self) -> u64 {
        self.expired
    }

    /// Ingest one statement: a repeat (by text signature) adds 1.0 to
    /// its weight; a new statement enters at weight 1.0, evicting the
    /// (smallest-weight, oldest-arrival) entry if the window is full.
    pub fn observe(&mut self, statement: Statement) {
        let sig = statement_signature(&statement);
        self.arrivals += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.sig == sig) {
            e.weight += 1.0;
            return;
        }
        if self.entries.len() >= self.opts.cap.max(1) {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by(|(ai, a), (bi, b)| {
                    a.weight
                        .total_cmp(&b.weight)
                        .then(a.arrival.cmp(&b.arrival))
                        .then(ai.cmp(bi))
                })
                .map(|(i, _)| i)
                .expect("cap >= 1 implies a non-empty window here");
            self.entries.remove(victim);
            self.evicted += 1;
        }
        self.entries.push(WindowEntry {
            statement,
            sig,
            weight: 1.0,
            arrival: self.arrivals,
        });
    }

    /// Advance the window one epoch: decay every weight and expire
    /// entries that fall below `min_weight`.
    pub fn advance_epoch(&mut self) {
        let decay = self.opts.decay;
        let floor = self.opts.min_weight;
        for e in &mut self.entries {
            e.weight *= decay;
        }
        let before = self.entries.len();
        self.entries.retain(|e| e.weight >= floor);
        self.expired += (before - self.entries.len()) as u64;
    }

    /// The window as `(statement, weight)` pairs in first-arrival
    /// order.
    pub fn snapshot(&self) -> Vec<(Statement, f64)> {
        self.entries
            .iter()
            .map(|e| (e.statement.clone(), e.weight))
            .collect()
    }

    /// Bind the window against a catalog as a weighted workload.
    pub fn bind(&self, db: &Database) -> Result<Workload, TuneError> {
        Workload::bind_weighted(db, self.snapshot()).map_err(|e| TuneError::Workload(e.to_string()))
    }
}

/// What the drift detector concluded about one epoch's window.
#[derive(Debug, Clone, Copy)]
pub struct DriftDecision {
    /// Relative divergence between the window's per-unit-weight cost
    /// predicted from the last re-tune's per-statement prices and the
    /// per-unit-weight cost the last re-tune actually recommended at
    /// (volume-invariant: uniformly scaling every weight is the same
    /// tuning problem). Computed over the priced subset when the window
    /// contains unpriced statements.
    pub drift: f64,
    /// The window contains a statement the deployed configuration has
    /// never been priced on (statement-set delta).
    pub unpriceable: bool,
    /// Predicted weighted window cost under the deployed configuration
    /// (exact when `!unpriceable`: per-statement costs under a fixed
    /// configuration do not change as window weights shift).
    pub predicted: f64,
    /// Re-tune this epoch.
    pub retune: bool,
}

/// Decides when to re-tune: tracks the per-statement cost of the
/// deployed configuration (filled after each re-tune) and compares the
/// window's predicted weighted cost against the cost the configuration
/// was recommended at.
#[derive(Default)]
pub struct DriftDetector {
    /// statement signature → unit (weight-1) cost under the deployed
    /// configuration.
    known: HashMap<u128, f64>,
    cost_at_tune: f64,
    weight_at_tune: f64,
    tuned: bool,
}

impl DriftDetector {
    pub fn new() -> DriftDetector {
        DriftDetector::default()
    }

    /// True once a configuration has been deployed and priced.
    pub fn tuned(&self) -> bool {
        self.tuned
    }

    /// True if the deployed configuration has a price for this
    /// statement signature.
    pub fn knows(&self, sig: u128) -> bool {
        self.known.contains_key(&sig)
    }

    /// Assess a window given as `(signature, weight)` pairs.
    pub fn assess(&self, window: &[(u128, f64)], threshold: f64) -> DriftDecision {
        if !self.tuned {
            return DriftDecision {
                drift: 0.0,
                unpriceable: true,
                predicted: 0.0,
                retune: true,
            };
        }
        let mut predicted = 0.0;
        let mut priced_weight = 0.0;
        let mut unpriceable = false;
        for (sig, weight) in window {
            match self.known.get(sig) {
                Some(unit) => {
                    predicted += weight * unit;
                    priced_weight += weight;
                }
                None => unpriceable = true,
            }
        }
        // Compare per-unit-weight costs: a uniformly heavier window is
        // the same tuning problem (scaling every weight leaves the
        // optimal configuration unchanged), so drift measures the mix,
        // not the volume.
        let unit_now = predicted / priced_weight.max(f64::MIN_POSITIVE);
        let unit_tuned = self.cost_at_tune / self.weight_at_tune.max(f64::MIN_POSITIVE);
        let drift = (unit_now - unit_tuned).abs() / unit_tuned.max(f64::MIN_POSITIVE);
        DriftDecision {
            drift,
            unpriceable,
            predicted,
            retune: unpriceable || drift > threshold,
        }
    }

    /// Record a re-tune: the deployed configuration now prices
    /// `window_cost` on a window of total weight `window_weight` whose
    /// statements have the given unit costs.
    pub fn observe_tuned(
        &mut self,
        sigs: &[u128],
        unit_costs: &[f64],
        window_cost: f64,
        window_weight: f64,
    ) {
        debug_assert_eq!(sigs.len(), unit_costs.len());
        self.known = sigs
            .iter()
            .copied()
            .zip(unit_costs.iter().copied())
            .collect();
        self.cost_at_tune = window_cost;
        self.weight_at_tune = window_weight;
        self.tuned = true;
    }

    /// Absorb probe prices for statements the deployed configuration
    /// had not been priced on. The baseline cost and weight stay at
    /// the last re-tune; known statements keep their recorded price.
    pub fn extend_known(&mut self, sigs: &[u128], unit_costs: &[f64]) {
        debug_assert_eq!(sigs.len(), unit_costs.len());
        for (sig, unit) in sigs.iter().zip(unit_costs) {
            self.known.entry(*sig).or_insert(*unit);
        }
    }
}

/// Per-statement (weight-1) costs of `workload` under `config`, priced
/// through the shared store so statements already asked in earlier
/// epochs cost no real optimizer invocation.
///
/// `_threads` is ignored. Retained only because the frozen
/// `pdt-benchmark` crate names it; the next benchmark PR drops it.
pub fn window_costs(
    db: &Database,
    workload: &Workload,
    config: &Configuration,
    _threads: usize,
    store: Option<&SharedInvocationStore>,
) -> Vec<f64> {
    let opt = Optimizer::new(db);
    let relevance = RelevanceTable::build(db, workload);
    let query_sigs: Vec<u128> = workload
        .entries
        .iter()
        .map(|e| statement_signature(&e.statement))
        .collect();
    let shared = store.map(|s| SharedCtx {
        store: s,
        schema_sig: schema_signature(db),
        query_sigs: &query_sigs,
    });
    // The serving tiers (invocation lookup → plan probe → shared-store
    // probe) and the recording of real answers into the shared store
    // both live on the keyed-cache path, so a throwaway per-call cache
    // is required even though nothing in it outlives this pricing.
    let cache = CostCache::new();
    let ctx = EvalCtx {
        cache: Some(&cache),
        relevance: Some(&relevance),
        derived: true,
        shared,
        ..EvalCtx::default()
    };
    let eval = evaluate_full_ctx(db, &opt, config, workload, ctx);
    eval.per_query.iter().map(|q| q.total()).collect()
}

/// Knobs of the replay driver.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    pub window: WindowOptions,
    /// Relative drift that triggers a re-tune.
    pub drift_threshold: f64,
    /// Capacity of the cross-epoch shared invocation store.
    pub shared_cap: usize,
    /// Session template; `deployed` is overwritten each epoch with the
    /// currently deployed configuration.
    pub tuner: TunerOptions,
}

impl Default for ReplayOptions {
    fn default() -> ReplayOptions {
        ReplayOptions {
            window: WindowOptions::default(),
            drift_threshold: 0.15,
            shared_cap: DEFAULT_SHARED_CAP,
            tuner: TunerOptions::default(),
        }
    }
}

/// One epoch of a replay run.
#[derive(Debug, Clone)]
pub struct EpochReport {
    pub epoch: usize,
    /// Statements arriving this epoch.
    pub arrivals: usize,
    /// Distinct statements in the window after ingest.
    pub window: usize,
    pub drift: f64,
    pub unpriceable: bool,
    /// Window cost the detector predicted under the deployed
    /// configuration before any re-tune (covers only the priced subset
    /// when `unpriceable`). For a priceable re-tune this is the safety
    /// floor: `window_cost` never exceeds it.
    pub predicted: f64,
    pub retuned: bool,
    /// Distinct window statements already priced under the shared
    /// store when this epoch re-tuned (0 otherwise).
    pub carried: u64,
    /// Weighted window cost under the (possibly re-tuned) deployed
    /// configuration at epoch end.
    pub window_cost: f64,
    /// Relaxation iterations of this epoch's session (0 if none ran).
    pub iterations: usize,
    /// Logical optimizer calls of this epoch's session (0 if none
    /// ran).
    pub optimizer_calls: usize,
    /// Real optimizer invocations this epoch cost (process counter
    /// delta). Measurement only: build- and thread-dependent, never
    /// traced or rendered, excluded from the byte-identity contract.
    pub real_invocations: u64,
}

/// The outcome of a whole replay run. A pure function of `(db, stream,
/// options)` — safe to snapshot byte-for-byte.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    pub epochs: Vec<EpochReport>,
    pub retunes: u64,
    pub warm_serves: u64,
    /// Logical optimizer calls summed over every re-tune session.
    pub optimizer_calls: usize,
    /// Real optimizer invocations over the whole run (measurement
    /// only; see [`EpochReport::real_invocations`]).
    pub real_invocations: u64,
    pub final_window_cost: f64,
    pub deployed: Option<Configuration>,
}

/// Drive a drifting statement stream through the online re-tuning
/// loop: one summarizer window, one drift detector, one shared
/// invocation store, and one deployed configuration threaded across
/// every epoch.
pub fn run_replay(
    db: &Database,
    stream: &[Vec<Statement>],
    options: &ReplayOptions,
    tracer: Option<&Tracer>,
) -> Result<ReplayReport, TuneError> {
    let store = SharedInvocationStore::new(options.shared_cap.max(1), 1);
    let mut summarizer = WindowSummarizer::new(options.window);
    let mut detector = DriftDetector::new();
    let mut deployed: Option<Configuration> = None;
    let mut epochs = Vec::with_capacity(stream.len());
    let mut retunes = 0u64;
    let mut warm_serves = 0u64;
    let mut optimizer_calls = 0usize;
    let run_invocations_before = invocation_count();

    for (epoch, batch) in stream.iter().enumerate() {
        let epoch_invocations_before = invocation_count();
        summarizer.advance_epoch();
        for s in batch {
            summarizer.observe(s.clone());
        }
        let workload = summarizer.bind(db)?;
        let sigs: Vec<u128> = workload
            .entries
            .iter()
            .map(|e| statement_signature(&e.statement))
            .collect();
        pdt_trace::incr(tracer, "replay.epochs", 1);

        if workload.is_empty() {
            pdt_trace::emit(tracer, "replay.epoch", || {
                vec![
                    ("epoch", epoch.into()),
                    ("arrivals", batch.len().into()),
                    ("window", 0usize.into()),
                    ("drift", 0.0.into()),
                    ("retune", false.into()),
                ]
            });
            epochs.push(EpochReport {
                epoch,
                arrivals: batch.len(),
                window: 0,
                drift: 0.0,
                unpriceable: false,
                predicted: 0.0,
                retuned: false,
                carried: 0,
                window_cost: 0.0,
                iterations: 0,
                optimizer_calls: 0,
                real_invocations: 0,
            });
            continue;
        }

        let weighted: Vec<(u128, f64)> = sigs
            .iter()
            .copied()
            .zip(workload.entries.iter().map(|e| e.weight))
            .collect();
        let first = detector.assess(&weighted, options.drift_threshold);
        let mut decision = first;
        if first.unpriceable && detector.tuned() {
            if let Some(config) = &deployed {
                // Probe before committing to a session: price the new
                // statements under the deployed configuration (the
                // store serves every carried one) and re-assess with
                // complete knowledge. A cheap arrival does not warrant
                // a full re-tune.
                let unit = window_costs(db, &workload, config, 1, Some(&store));
                let served = sigs.iter().filter(|s| detector.knows(**s)).count() as u64;
                warm_serves += served;
                pdt_trace::incr(tracer, "warm.serves", served);
                pdt_trace::emit(tracer, "replay.probe", || {
                    vec![
                        ("epoch", epoch.into()),
                        ("fresh", (sigs.len() as u64 - served).into()),
                        ("served", served.into()),
                    ]
                });
                detector.extend_known(&sigs, &unit);
                decision = detector.assess(&weighted, options.drift_threshold);
            }
        }
        pdt_trace::emit(tracer, "replay.epoch", || {
            vec![
                ("epoch", epoch.into()),
                ("arrivals", batch.len().into()),
                ("window", workload.entries.len().into()),
                ("drift", decision.drift.into()),
                ("retune", decision.retune.into()),
            ]
        });

        let mut er = EpochReport {
            epoch,
            arrivals: batch.len(),
            window: workload.entries.len(),
            drift: decision.drift,
            unpriceable: first.unpriceable,
            predicted: decision.predicted,
            retuned: decision.retune,
            carried: 0,
            window_cost: decision.predicted,
            iterations: 0,
            optimizer_calls: 0,
            real_invocations: 0,
        };

        if decision.retune {
            retunes += 1;
            pdt_trace::incr(tracer, "replay.retunes_triggered", 1);
            let carried = sigs.iter().filter(|s| detector.knows(**s)).count() as u64;
            warm_serves += carried;
            pdt_trace::incr(tracer, "warm.serves", carried);
            er.carried = carried;

            let mut topts = options.tuner.clone();
            topts.deployed = deployed.clone();
            let report = tune_session(
                db,
                &workload,
                &topts,
                SessionCtl {
                    tracer,
                    shared_store: Some(&store),
                    ..SessionCtl::default()
                },
            )?;
            er.iterations = report.iterations;
            er.optimizer_calls = report.optimizer_calls;
            optimizer_calls += report.optimizer_calls;

            // Adopt the recommendation; the in-search safety floor
            // already guarantees it never prices worse than the
            // deployed configuration on this window. If the budget
            // admits nothing at all, keep what is deployed (AIM's
            // rollback arm).
            let adopted = match report.best {
                Some(best) => {
                    deployed = Some(best.config);
                    Some(best.cost)
                }
                None => None,
            };
            if let Some(config) = &deployed {
                let unit = window_costs(db, &workload, config, 1, Some(&store));
                let cost = adopted.unwrap_or_else(|| {
                    workload
                        .entries
                        .iter()
                        .zip(&unit)
                        .map(|(e, u)| e.weight * u)
                        .sum()
                });
                let weight: f64 = workload.entries.iter().map(|e| e.weight).sum();
                detector.observe_tuned(&sigs, &unit, cost, weight);
                er.window_cost = cost;
            } else {
                er.window_cost = 0.0;
            }
        }

        er.real_invocations = invocation_count() - epoch_invocations_before;
        pdt_trace::emit(tracer, "replay.epoch.end", || {
            vec![
                ("epoch", epoch.into()),
                ("cost", er.window_cost.into()),
                ("retuned", er.retuned.into()),
            ]
        });
        epochs.push(er);
    }

    let final_window_cost = epochs.last().map_or(0.0, |e| e.window_cost);
    Ok(ReplayReport {
        epochs,
        retunes,
        warm_serves,
        optimizer_calls,
        real_invocations: invocation_count() - run_invocations_before,
        final_window_cost,
        deployed,
    })
}

/// Deterministic text rendering of a replay run (no wall-clock
/// anywhere) — what `pdtune replay` prints and the golden snapshot
/// pins.
pub fn render_replay_report(db: &Database, report: &ReplayReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "replay: {} epochs, {} re-tunes, {} warm serves, {} optimizer calls",
        report.epochs.len(),
        report.retunes,
        report.warm_serves,
        report.optimizer_calls,
    );
    let _ = writeln!(
        out,
        "{:>5} {:>8} {:>6} {:>9} {:>6} {:>7} {:>12}",
        "epoch", "arrivals", "window", "drift", "retune", "carried", "cost"
    );
    for e in &report.epochs {
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>6} {:>9} {:>6} {:>7} {:>12}",
            e.epoch,
            e.arrivals,
            e.window,
            if e.unpriceable && e.predicted == 0.0 {
                // Cold start: nothing deployed to probe against.
                "new-stmt".to_string()
            } else {
                format!("{:.4}", e.drift)
            },
            if e.retuned { "yes" } else { "no" },
            e.carried,
            format!("{:.2}", e.window_cost),
        );
    }
    let _ = writeln!(out, "final window cost {:.2}", report.final_window_cost);
    match &report.deployed {
        Some(config) => {
            let base = Configuration::base(db);
            let ddl = crate::report::configuration_ddl(db, config, &base);
            if ddl.is_empty() {
                let _ = writeln!(out, "deployed configuration: base (no extra structures)");
            } else {
                let _ = writeln!(out, "deployed configuration:");
                for line in ddl {
                    let _ = writeln!(out, "  {line}");
                }
            }
        }
        None => {
            let _ = writeln!(out, "deployed configuration: none");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt_catalog::{ColumnStats, ColumnType, Database};
    use pdt_sql::parse_workload;

    fn test_db() -> Database {
        let mut b = Database::builder("t");
        let mk = |name: &str, ndv: f64| pdt_catalog::Column {
            name: name.into(),
            ty: ColumnType::Int,
            stats: ColumnStats::uniform(ndv, 0.0, ndv, 4.0),
        };
        b.add_table(
            "r",
            500_000.0,
            vec![
                mk("id", 500_000.0),
                mk("a", 5_000.0),
                mk("b", 100.0),
                mk("c", 1_000.0),
            ],
            vec![0],
        );
        b.add_table(
            "s",
            100_000.0,
            vec![mk("id", 100_000.0), mk("x", 2_000.0), mk("y", 50.0)],
            vec![0],
        );
        b.build()
    }

    fn stmts(sql: &str) -> Vec<Statement> {
        parse_workload(sql).unwrap()
    }

    fn stmt(sql: &str) -> Statement {
        stmts(sql).remove(0)
    }

    #[test]
    fn empty_window_is_empty_workload() {
        let db = test_db();
        let w = WindowSummarizer::new(WindowOptions::default());
        assert!(w.is_empty());
        let bound = w.bind(&db).unwrap();
        assert!(bound.is_empty());
    }

    #[test]
    fn single_statement_window_dedups_and_accumulates() {
        let db = test_db();
        let mut w = WindowSummarizer::new(WindowOptions::default());
        for _ in 0..5 {
            w.observe(stmt("SELECT r.c FROM r WHERE r.a = 5"));
        }
        assert_eq!(w.len(), 1);
        let snap = w.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].1, 5.0);
        let bound = w.bind(&db).unwrap();
        assert_eq!(bound.entries.len(), 1);
        assert_eq!(bound.entries[0].weight, 5.0);
    }

    #[test]
    fn weights_decay_to_zero_and_expire() {
        let mut w = WindowSummarizer::new(WindowOptions {
            cap: 8,
            decay: 0.1,
            min_weight: 1e-3,
        });
        w.observe(stmt("SELECT r.c FROM r WHERE r.a = 5"));
        assert_eq!(w.len(), 1);
        // 1.0 → 0.1 → 0.01 → 0.001 (>= floor) → 0.0001 (expired).
        for _ in 0..3 {
            w.advance_epoch();
            assert_eq!(w.len(), 1, "still above min_weight");
        }
        w.advance_epoch();
        assert!(w.is_empty());
        assert_eq!(w.expired(), 1);
        assert_eq!(w.evicted(), 0);
    }

    #[test]
    fn cap_eviction_is_deterministic_min_weight_then_oldest() {
        let sql = [
            "SELECT r.c FROM r WHERE r.a = 1",
            "SELECT r.c FROM r WHERE r.a = 2",
            "SELECT r.c FROM r WHERE r.a = 3",
            "SELECT r.c FROM r WHERE r.a = 4",
        ];
        let mut w = WindowSummarizer::new(WindowOptions {
            cap: 3,
            decay: 1.0,
            min_weight: 1e-9,
        });
        // a=1 twice (weight 2), then a=2, a=3 (weight 1 each).
        w.observe(stmt(sql[0]));
        w.observe(stmt(sql[0]));
        w.observe(stmt(sql[1]));
        w.observe(stmt(sql[2]));
        assert_eq!(w.len(), 3);
        // Overflow: the victim is the smallest weight with the oldest
        // arrival — a=2, not a=3 and not the heavier a=1.
        w.observe(stmt(sql[3]));
        assert_eq!(w.evicted(), 1);
        let texts: Vec<String> = w.snapshot().iter().map(|(s, _)| s.to_string()).collect();
        assert_eq!(texts.len(), 3);
        assert!(texts[0].contains("= 1"), "heavy entry survives: {texts:?}");
        assert!(texts[1].contains("= 3"), "younger tie survives: {texts:?}");
        assert!(texts[2].contains("= 4"), "new entry appended: {texts:?}");
        // Re-running the identical sequence reproduces the identical
        // window, byte for byte.
        let mut w2 = WindowSummarizer::new(WindowOptions {
            cap: 3,
            decay: 1.0,
            min_weight: 1e-9,
        });
        for s in [sql[0], sql[0], sql[1], sql[2], sql[3]] {
            w2.observe(stmt(s));
        }
        let a: Vec<(String, f64)> = w
            .snapshot()
            .iter()
            .map(|(s, wt)| (s.to_string(), *wt))
            .collect();
        let b: Vec<(String, f64)> = w2
            .snapshot()
            .iter()
            .map(|(s, wt)| (s.to_string(), *wt))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn drift_detector_triggers_on_threshold_and_new_statements() {
        let mut d = DriftDetector::new();
        // Untuned: always re-tune.
        assert!(d.assess(&[], 0.5).retune);
        d.observe_tuned(&[1, 2], &[10.0, 20.0], 30.0, 2.0);
        // Same window, same weights: no drift.
        let dec = d.assess(&[(1, 1.0), (2, 1.0)], 0.1);
        assert!(!dec.retune);
        assert_eq!(dec.predicted, 30.0);
        assert_eq!(dec.drift, 0.0);
        // Uniform volume growth is not drift: the optimal configuration
        // is invariant to scaling every weight.
        let dec = d.assess(&[(1, 3.0), (2, 3.0)], 0.1);
        assert!(!dec.retune);
        assert_eq!(dec.drift, 0.0);
        assert_eq!(dec.predicted, 90.0);
        // Mix shift beyond the threshold: the expensive statement's
        // share doubles, moving the per-unit-weight cost.
        let dec = d.assess(&[(1, 1.0), (2, 2.0)], 0.1);
        assert!(dec.retune && !dec.unpriceable);
        assert!(dec.drift > 0.1);
        // A statement the deployed config was never priced on.
        let dec = d.assess(&[(1, 1.0), (3, 1.0)], 10.0);
        assert!(dec.retune && dec.unpriceable);
        // A probe fills the gap without moving the baseline; the cheap
        // arrival no longer forces a re-tune.
        d.extend_known(&[1, 3], &[10.0, 15.0]);
        let dec = d.assess(&[(1, 1.0), (2, 1.0), (3, 0.01)], 10.0);
        assert!(!dec.unpriceable);
        assert!(!dec.retune);
    }

    fn replay_stream() -> Vec<Vec<Statement>> {
        let phase_a = "SELECT r.c FROM r WHERE r.a = 5; \
                       SELECT r.b FROM r WHERE r.b < 10; \
                       SELECT r.c FROM r WHERE r.a = 5";
        let phase_b = "SELECT s.y FROM s WHERE s.x = 7; \
                       SELECT s.y FROM s WHERE s.y < 3; \
                       UPDATE r SET c = c + 1 WHERE r.a < 50";
        vec![
            stmts(phase_a),
            stmts(phase_a),
            stmts(phase_b),
            stmts(phase_b),
        ]
    }

    fn small_options() -> ReplayOptions {
        ReplayOptions {
            tuner: TunerOptions {
                max_iterations: 6,
                ..TunerOptions::default()
            },
            ..ReplayOptions::default()
        }
    }

    #[test]
    fn replay_is_byte_identical_across_runs() {
        let db = test_db();
        let stream = replay_stream();
        let render = || {
            let report = run_replay(&db, &stream, &small_options(), None).unwrap();
            render_replay_report(&db, &report)
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn replay_retunes_on_phase_shift_and_skips_stable_epochs() {
        let db = test_db();
        let stream = replay_stream();
        let report = run_replay(&db, &stream, &small_options(), None).unwrap();
        assert_eq!(report.epochs.len(), 4);
        // Epoch 0 is a forced cold tune; epoch 1 repeats the same mix
        // (weights decay uniformly, drift stays small); epoch 2's phase
        // shift introduces new statements.
        assert!(report.epochs[0].retuned);
        assert!(report.epochs[2].retuned && report.epochs[2].unpriceable);
        assert!(report.retunes >= 2);
        // The phase-shift re-tune carries the still-windowed phase-A
        // statements as warm serves.
        assert!(report.warm_serves > 0, "no warm serves recorded");
        // Cost is never negative and the final config exists.
        assert!(report.final_window_cost >= 0.0);
        assert!(report.deployed.is_some());
    }

    #[test]
    fn replay_handles_empty_epochs() {
        let db = test_db();
        let stream = vec![
            Vec::new(),
            stmts("SELECT r.c FROM r WHERE r.a = 5"),
            Vec::new(),
        ];
        let mut opts = small_options();
        // Forget fast enough that the window really does go empty.
        opts.window.decay = 1e-9;
        opts.window.min_weight = 1e-3;
        let report = run_replay(&db, &stream, &opts, None).unwrap();
        assert_eq!(report.epochs[0].window, 0);
        assert!(!report.epochs[0].retuned);
        assert!(report.epochs[1].retuned);
        assert_eq!(report.epochs[2].window, 0);
        assert!(!report.epochs[2].retuned);
    }

    #[test]
    fn replay_counters_reconcile_with_report() {
        let db = test_db();
        let stream = replay_stream();
        let tracer = Tracer::new();
        let report = run_replay(&db, &stream, &small_options(), Some(&tracer)).unwrap();
        assert_eq!(tracer.counter("replay.epochs"), report.epochs.len() as u64);
        assert_eq!(tracer.counter("replay.retunes_triggered"), report.retunes);
        assert_eq!(tracer.counter("warm.serves"), report.warm_serves);
    }
}
