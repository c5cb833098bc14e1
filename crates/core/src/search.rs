//! The relaxation-based search (Fig. 5) with the §3.4 heuristics,
//! §3.5 variations and §3.6 update handling.
//!
//! ```text
//! 01 Get optimal configurations for each q ∈ W       // Section 2
//! 02 c_best = ∪ optimal configuration for q
//! 03 CP = { c_best }; c_best = NULL
//! 04 while (time is not exceeded)
//! 05   Pick c ∈ CP that can be relaxed               // heuristics §3.4
//! 06   Relax c into c_new (min penalty = ΔT/ΔS)      // §3.3 estimates
//! 07   CP = CP ∪ { c_new }
//! 08   if size(c_new) ≤ B ∧ cost(c_new) < cost(c_best): c_best = c_new
//! 10 return c_best
//! ```
//!
//! [`tune_session`] runs that loop as the phase methods of one private
//! `Session`. What the phases call lives one level down: the options
//! and the report (`options`), the inputs and stores with the contained
//! evaluation (`env`), the call-budget ledger (`budget`) and the §3.5
//! pre-pass (`prepass`). Resume-by-replay is gated here (`ReplayGate`);
//! the checkpoint record, its capture and its checks belong to
//! [`crate::checkpoint`].

#![deny(clippy::too_many_lines)]

mod budget;
mod env;
mod options;
mod prepass;

pub use options::{
    BestConfig, BoundViolation, CheckpointSink, ConfigChoice, FrontierPoint, Reference, SessionCtl,
    TransformationChoice, TunerOptions, TuningReport,
};

use crate::arena::SkylineScratch;
use crate::bound::BoundNode;
use crate::checkpoint::{Capture, Checkpoint, Live};
use crate::error::TuneError;
use crate::eval::{evaluate_entries, evaluate_full_ctx, unused_structures, EvalResult, ShellTable};
use crate::fault::{FaultEvent, FaultKind, SITE_CANDIDATE, SITE_SHRINK};
use crate::instrument::gather_prepared;
use crate::node::NodeFacts;
use crate::stop::{StopCheck, StopReason, StopToken};
use crate::transform::{apply, AppliedTransform, SigMap, SigSet, TransformDelta, Transformation};
use crate::workload::Workload;
use budget::{CallLedger, Settled};
use env::{Contained, Env, EvalJob};
use pdt_catalog::Database;
use pdt_physical::{Configuration, PhysicalSchema};
use pdt_trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Node {
    config: Configuration,
    eval: EvalResult,
    size: f64,
    parent: Option<usize>,
    /// Actual penalty of the last relaxation applied *from* this node.
    last_relax_penalty: f64,
    /// What the node knows about `config`, derived from the parent's.
    facts: NodeFacts,
    /// Interned signatures of transformations already tried from this
    /// node.
    tried: SigSet,
    /// Candidate transformations with their §3.3 estimates, computed
    /// once per node ("we can also cache results from one iteration to
    /// the next", §3.4).
    scored: Option<Vec<ScoredCandidate>>,
    exhausted: bool,
    /// Approximate tier only: midpoint of the node's [lower, upper]
    /// cost bounds when its evaluation was bound-served instead of
    /// re-optimized. [`Session::pick`] ranks by it, so freed budget
    /// flows to the most uncertain (widest-gap) regions of the pool.
    /// `None` for exactly evaluated nodes and always in the exact tier.
    est_cost: Option<f64>,
}

impl Node {
    /// A parentless, exactly evaluated pool entry with nothing scored
    /// and nothing tried yet.
    fn new(config: Configuration, eval: EvalResult, facts: NodeFacts, db: &Database) -> Node {
        Node {
            size: config.size_bytes(db),
            config,
            eval,
            parent: None,
            last_relax_penalty: 0.0,
            facts,
            tried: SigSet::default(),
            scored: None,
            exhausted: false,
            est_cost: None,
        }
    }

    /// The cost [`Session::pick`] ranks a node by: the bound midpoint
    /// for an estimated node, the evaluated cost otherwise.
    fn cost(&self) -> f64 {
        self.est_cost.unwrap_or(self.eval.total_cost)
    }

    /// What the §3.3.2 bound reads about this node.
    fn bound_node(&self) -> BoundNode<'_> {
        BoundNode {
            prev: &self.eval,
            config: &self.config,
            shells: &self.facts.shells,
            view_costs: &self.facts.view_costs,
        }
    }
}

/// A candidate transformation with its §3.3 ΔT / ΔS estimates (the
/// penalty is derived at selection time from the owning node's
/// remaining over-budget space) and interned signature.
#[derive(Debug, Clone)]
struct ScoredCandidate {
    delta_t: f64,
    delta_s: f64,
    sig: u64,
    /// Shared with the node's candidate list (and, for an inherited
    /// candidate, with its ancestors' lists and scores).
    transformation: Arc<Transformation>,
}

impl ScoredCandidate {
    fn penalty(&self, over_budget: f64) -> f64 {
        if over_budget <= 0.0 {
            // Already within budget (update workloads): space is
            // irrelevant, rank by ΔT (§3.6).
            self.delta_t
        } else {
            let denom = over_budget.min(self.delta_s.max(1.0)).max(1.0);
            self.delta_t / denom
        }
    }

    /// The candidate as trace-event fields.
    fn fields(&self) -> Vec<(&'static str, pdt_trace::Value)> {
        vec![
            ("transformation", self.transformation.to_string().into()),
            ("delta_t", self.delta_t.into()),
            ("delta_s", self.delta_s.into()),
        ]
    }
}

/// Run a tuning session (the paper's PTT).
pub fn tune(db: &Database, workload: &Workload, options: &TunerOptions) -> TuningReport {
    tune_traced(db, workload, options, None)
}

/// [`tune`] with an optional structured-event [`Tracer`]. For a fixed
/// session the trace is byte-identical across runs and across resume.
pub fn tune_traced(
    db: &Database,
    workload: &Workload,
    options: &TunerOptions,
    tracer: Option<&Tracer>,
) -> TuningReport {
    tune_session(
        db,
        workload,
        options,
        SessionCtl {
            tracer,
            ..SessionCtl::default()
        },
    )
    // `tune_session` is fallible only on the checkpoint write/resume
    // paths, and this call configures neither.
    .expect("no checkpoint to write or resume, cannot fail")
}

/// Resume-by-replay gating. Until a resumed session catches up to its
/// checkpoint's completed iterations it re-executes the checkpointed
/// prefix with tracing silenced, stop control disabled, and fault and
/// checkpoint recording suppressed — determinism makes the redo exact,
/// and the restored cache makes it cheap. Every phase asks the gate for
/// the tracer and stop control the current mode exposes instead of
/// testing the mode itself.
struct ReplayGate<'a> {
    tracer: Option<&'a Tracer>,
    resume: Option<&'a Checkpoint>,
    /// `false` while replaying; [`Session::go_live`] is the only writer.
    live: bool,
    token: &'a StopToken,
    stop: StopCheck<'a>,
    max_faults: usize,
}

impl<'a> ReplayGate<'a> {
    fn new(
        ctl: &SessionCtl<'a>,
        token: &'a StopToken,
        deadline: Option<Instant>,
        max_faults: usize,
    ) -> ReplayGate<'a> {
        ReplayGate {
            tracer: ctl.tracer,
            resume: ctl.resume,
            live: ctl.resume.is_none(),
            token,
            stop: StopCheck::new(token, deadline),
            max_faults,
        }
    }

    /// Completed iterations of the checkpoint being replayed (0 for a
    /// fresh session).
    fn resume_at(&self) -> usize {
        self.resume.map_or(0, |ck| ck.head.iteration)
    }

    /// The tracer the current mode exposes.
    fn tracer(&self) -> Option<&'a Tracer> {
        self.tracer.filter(|_| self.live)
    }

    /// The stop control the current mode exposes.
    fn stop(&self) -> Option<&StopCheck<'a>> {
        self.live.then_some(&self.stop)
    }

    /// The stop reason, if the session is live and should stop. Replay
    /// never looks: checking would trip the token on an expired
    /// deadline in the middle of the prefix.
    fn stopped(&self) -> Option<StopReason> {
        self.stop().and_then(StopCheck::stopped)
    }

    /// Record one contained fault: trace it, append it to the report,
    /// and trip the fault-limit stop once the tolerance is exhausted. A
    /// no-op during replay — faults recorded before the resume boundary
    /// are restored from the checkpoint, not re-recorded.
    fn record_fault(
        &self,
        report: &mut TuningReport,
        iteration: usize,
        kind: FaultKind,
        detail: String,
    ) {
        if !self.live {
            return;
        }
        pdt_trace::incr(self.tracer, "faults", 1);
        pdt_trace::emit(self.tracer, "fault", || {
            vec![
                ("iteration", iteration.into()),
                ("kind", kind.label().into()),
                ("detail", detail.clone().into()),
            ]
        });
        report.faults.push(FaultEvent {
            iteration,
            kind,
            detail,
        });
        if report.faults.len() > self.max_faults {
            self.token.trip(StopReason::FaultLimit);
        }
    }
}

/// [`tune_traced`] plus the resilience layer: anytime stop control,
/// checkpoint capture on a cadence (and on stop), and resume-by-
/// replay. Fails only on checkpoint problems — a mismatched or corrupt
/// checkpoint, or replay divergence; every other abnormal end
/// (deadline, interrupt, fault limit) still returns `Ok` with a
/// complete report and the corresponding [`StopReason`].
pub fn tune_session(
    db: &Database,
    workload: &Workload,
    options: &TunerOptions,
    ctl: SessionCtl<'_>,
) -> Result<TuningReport, TuneError> {
    let start = Instant::now();
    let token = options.stop.clone().unwrap_or_default();
    let deadline = options
        .deadline_ms
        .map(|ms| start + Duration::from_millis(ms));
    let env = Env::new(db, workload, options, &ctl)?;
    let gate = ReplayGate::new(&ctl, &token, deadline, options.max_faults);
    let (mut session, optimal) = Session::setup(env, gate, ctl, start)?;
    // Unconstrained SELECT-only sessions are done (§2: "if the space
    // taken by this configuration is below the maximum allowed and the
    // workload contains no updates, we can return [it]").
    if options.space_budget.is_none() && !session.env.has_updates {
        session.return_optimal(optimal)?;
    } else {
        let root = session.prepass(optimal);
        session.seed_pool(root);
        session.search()?;
        session.settle_recommendation();
    }
    Ok(session.finalize())
}

/// One tuning session's state; Fig. 5 is its phase methods, called in
/// order by [`tune_session`].
struct Session<'a> {
    env: Env<'a>,
    gate: ReplayGate<'a>,
    ledger: CallLedger,
    start: Instant,
    /// Accumulates in place: the counters the phases bump
    /// (`optimizer_calls`, `candidates_*`) live here, the store-backed
    /// ones are copied in by [`Session::finalize`].
    report: TuningReport,
    /// Warm start: `options.deployed`, priced.
    deployed: Option<Deployed<'a>>,
    /// Line 3: the configuration pool.
    nodes: Vec<Node>,
    last_created: usize,
    rng: StdRng,
    /// Open from the first iteration to the end of the loop; a resumed
    /// session re-opens the checkpointed one at go-live.
    search_span: Option<pdt_trace::Span<'a>>,
    /// Present exactly when the session writes checkpoint records.
    capture: Option<Capture<'a>>,
    /// SoA scratch for the §3.6 skyline scan, reused across iterations
    /// instead of reallocating a snapshot per pass.
    skyline_scratch: SkylineScratch,
}

/// The warm start's deployed configuration with what setup computed
/// for it.
struct Deployed<'a> {
    config: &'a Configuration,
    eval: EvalResult,
    size: f64,
}

impl<'a> Session<'a> {
    /// Lines 1–2 and the session's reference costs: evaluate the base
    /// configuration, gather and evaluate the §2 optimal configuration,
    /// price the deployed one, and open the report. Returns the optimal
    /// configuration as the parentless node the pre-pass relaxes into
    /// the root. Setup is never cancelled and never budget-charged.
    fn setup(
        env: Env<'a>,
        gate: ReplayGate<'a>,
        ctl: SessionCtl<'a>,
        start: Instant,
    ) -> Result<(Session<'a>, Node), TuneError> {
        let (db, workload, options) = (env.db, env.workload, env.options);
        let tracer = gate.tracer();
        if let Some(t) = tracer {
            let mut fields: Vec<(&'static str, pdt_trace::Value)> = vec![
                ("entries", workload.entries.len().into()),
                ("validate_bounds", options.validate_bounds.into()),
            ];
            if let Some(b) = options.space_budget {
                fields.push(("budget", b.into()));
            }
            t.emit("session.begin", fields);
        }
        pdt_trace::incr(tracer, "workload.deduped", workload.deduped as u64);
        let setup_span = tracer.map(|t| t.span("setup"));
        let ctx = env.ctx(tracer);
        // Setup's evaluations run to completion: the context carries no
        // stop, and none of them has a shortcut limit.
        let full = |config: &Configuration, shells: Option<&ShellTable>| {
            evaluate_entries(db, &env.opt, config, workload, None, None, ctx, shells)
                .expect("no shortcut limit and no stop token, cannot abort")
        };

        // Initial (base) evaluation.
        let base_shells = ShellTable::build(
            &env.opt.opts.cost,
            &PhysicalSchema::new(db, &env.base),
            workload,
        );
        let base_eval = full(&env.base, Some(&base_shells));
        let mut optimizer_calls = base_eval.optimizer_calls;
        let initial_cost = base_eval.total_cost;

        // Lines 1–2: the optimal configuration via instrumentation.
        let (optimal_config, sink) = gather_prepared(
            &env.opt,
            workload,
            &env.prepared,
            options.with_views,
            tracer,
        );
        let select_count = workload
            .entries
            .iter()
            .filter(|e| e.select.is_some())
            .count();
        optimizer_calls += select_count;
        pdt_trace::incr(tracer, "optimizer.calls", select_count as u64);
        pdt_trace::emit(tracer, "instrument.done", || {
            vec![
                ("index_requests", sink.index_requests.into()),
                ("view_requests", sink.view_requests.into()),
                ("indexes", sink.created_indexes.into()),
                ("views", sink.created_views.into()),
            ]
        });
        let optimal_facts = NodeFacts::scratch(env.facts(), &optimal_config);
        let opt_eval = full(&optimal_config, Some(&optimal_facts.shells));
        optimizer_calls += opt_eval.optimizer_calls;
        let optimal_cost = opt_eval.total_cost;
        let optimal_size = optimal_config.size_bytes(db);

        // §3.6 lower bound: optimal SELECT components + shells under base.
        let lower_bound_cost = workload
            .entries
            .iter()
            .zip(&opt_eval.per_query)
            .enumerate()
            .map(|(i, (e, q))| e.weight * (q.select_cost + base_shells.fold(i)))
            .sum();

        // Warm start: price the currently-deployed configuration once,
        // budget-exempt, like the other setup references. It seeds the
        // pool and backs the final safety floor.
        let deployed = options.deployed.as_ref().map(|d| {
            let e = full(d, None);
            optimizer_calls += e.optimizer_calls;
            let size = d.size_bytes(db);
            pdt_trace::emit(tracer, "warm.deployed", || {
                vec![("cost", e.total_cost.into()), ("size", size.into())]
            });
            Deployed {
                config: d,
                eval: e,
                size,
            }
        });
        drop(setup_span);

        let ledger = CallLedger::new(options.optimizer_call_budget);
        let report = TuningReport {
            initial_cost,
            initial_size: env.base.size_bytes(db),
            optimal_cost,
            optimal_size,
            optimal_config: optimal_config.clone(),
            lower_bound_cost,
            best: None,
            frontier: vec![FrontierPoint {
                iteration: 0,
                size_bytes: optimal_size,
                cost: optimal_cost,
                fits: env.fits(optimal_size),
            }],
            iterations: 0,
            stop_reason: StopReason::IterationBudget,
            optimizer_calls,
            cache_hits: 0,
            cache_misses: 0,
            candidates_generated: 0,
            candidates_reused: 0,
            optimizer_calls_avoided: 0,
            plan_cache_hits: 0,
            plan_cache_misses: 0,
            plan_cache_repriced: 0,
            optimizer_calls_skipped: 0,
            budget_remaining: ledger.remaining(),
            workload_deduped: workload.deduped as u64,
            candidate_counts: Vec::new(),
            request_counts: (sink.index_requests, sink.view_requests),
            bound_checks: 0,
            bound_violations: Vec::new(),
            // Faults recorded before the resume boundary are restored,
            // not re-recorded: replay suppresses fault accounting.
            faults: gate.resume.map(|ck| ck.faults.clone()).unwrap_or_default(),
            trace: None,
            elapsed: start.elapsed(),
        };
        let optimal = Node::new(optimal_config, opt_eval, optimal_facts, db);
        let session = Session {
            capture: Capture::new(&ctl),
            rng: StdRng::seed_from_u64(options.seed),
            env,
            gate,
            ledger,
            start,
            report,
            deployed,
            nodes: Vec::new(),
            last_created: 0,
            search_span: None,
            skyline_scratch: SkylineScratch::default(),
        };
        if let Some(ck) = session.gate.resume {
            ck.check_setup(&session.live())?;
        }
        Ok((session, optimal))
    }

    /// The unconstrained SELECT-only early exit: the optimal
    /// configuration is the recommendation and no search runs.
    fn return_optimal(&mut self, optimal: Node) -> Result<(), TuneError> {
        if self.gate.resume.is_some() {
            // No checkpoint is ever written before the first search
            // iteration, so none can legitimately resume a session that
            // finishes without entering the loop.
            return Err(TuneError::Checkpoint(
                "checkpoint resumes a session that finishes before its first \
                 search iteration"
                    .to_string(),
            ));
        }
        self.report.stop_reason = StopReason::Converged;
        self.report.best = Some(BestConfig {
            cost: optimal.eval.total_cost,
            size_bytes: optimal.size,
            config: optimal.config,
        });
        Ok(())
    }

    /// Line 3: pool the root — and the deployed configuration, when it
    /// is worth relaxing from — and let each claim `best` if it fits.
    fn seed_pool(&mut self, root: Node) {
        let env = &self.env;
        env.offer(
            &mut self.report,
            &root.config,
            root.eval.total_cost,
            root.size,
        );
        self.nodes.push(root);
        // Warm start: the deployed configuration joins the pool as a
        // second relaxable start point (parentless, like the root) and
        // may claim `best` immediately; the safety floor at the end
        // re-asserts it against whatever the search finds. Not a
        // frontier point — the frontier records accepted relaxation
        // steps only.
        //
        // Staleness gate: if the current workload prices the deployed
        // configuration worse than the structure-free initial
        // configuration, drift has invalidated its structures —
        // relaxing from it only drains the iteration budget (and its
        // out-of-space views defeat derived costing, so every step is a
        // real invocation). It then serves as the safety floor only,
        // not as a start point.
        if let Some(d) = &self.deployed {
            env.offer(&mut self.report, d.config, d.eval.total_cost, d.size);
            if d.eval.total_cost < self.report.initial_cost {
                let facts = NodeFacts::scratch(env.facts(), d.config);
                let start = Node::new(d.config.clone(), d.eval.clone(), facts, env.db);
                self.nodes.push(start);
                self.last_created = self.nodes.len() - 1;
            }
        }
    }

    /// Line 4: the main loop. Each iteration is the phase sequence
    /// below; a phase that has nothing to hand on ends the iteration.
    fn search(&mut self) -> Result<(), TuneError> {
        self.search_span = self.gate.tracer().map(|t| t.span("search"));
        for iteration in 1..=self.env.options.max_iterations {
            if !self.prologue(iteration)? {
                break;
            }
            let Some(parent) = self.pick() else {
                self.report.stop_reason = StopReason::Converged;
                break;
            };
            self.score(parent);
            let Some((chosen, applied)) = self.select(iteration, parent) else {
                continue;
            };
            let Some(applied) = self.admit(iteration, parent, &chosen, applied) else {
                continue;
            };
            let Some(mut child) = self.evaluate(iteration, parent, &chosen, applied) else {
                continue;
            };
            if self.env.options.shrink_unused {
                self.shrink(iteration, &mut child);
            }
            self.pool(iteration, &chosen, child);
        }
        // A session resumed at (or past) its iteration budget replays
        // the whole loop without ever crossing its resume boundary: go
        // live now so the final report carries the checkpointed
        // counters and trace.
        if !self.gate.live {
            self.go_live()?;
        }
        self.search_span = None;
        // The loop can also end with the token tripped mid-final-
        // iteration (no later loop top observes it): reflect the true
        // reason. A trip never downgrades a natural end — `token.get()`
        // is `None` unless something actually tripped.
        if let Some(reason) = self.gate.token.get() {
            self.report.stop_reason = reason;
        }
        Ok(())
    }

    /// The replay has caught up: verify fidelity, restore the state
    /// replay cannot regenerate (counters are overwritten because replay
    /// evaluations hit the restored cache instead of calling the
    /// optimizer), and go live.
    fn go_live(&mut self) -> Result<(), TuneError> {
        let ck = self.gate.resume.expect("replay mode implies a checkpoint");
        ck.head.check_replay(&self.live())?;
        ck.head.restore(&mut self.report, &self.env.cache);
        if let (Some(t), Some(tc)) = (self.gate.tracer, &ck.trace) {
            t.restore_state(tc.state.clone());
            self.search_span = Some(t.resume_span("search", tc.open_span_seq));
        }
        self.gate.live = true;
        Ok(())
    }

    /// Resilience prologue (never part of the replayed prefix): go live
    /// once the replay has caught up, observe a stop, capture the clean
    /// boundary behind this iteration; then open the iteration. Returns
    /// `false` when the session stops here.
    fn prologue(&mut self, iteration: usize) -> Result<bool, TuneError> {
        if !self.gate.live && iteration > self.gate.resume_at() {
            self.go_live()?;
        }
        if self.gate.live {
            if let Some(reason) = self.gate.stop.stopped() {
                self.report.stop_reason = reason;
                self.checkpoint(Capture::stop);
                return Ok(false);
            }
            self.checkpoint(Capture::boundary);
        }
        self.report.iterations = iteration;
        let tracer = self.gate.tracer();
        pdt_trace::incr(tracer, "search.iterations", 1);
        if let Some(t) = tracer {
            t.emit(
                "iter.begin",
                vec![
                    ("iteration", iteration.into()),
                    ("nodes", self.nodes.len().into()),
                ],
            );
        }
        Ok(true)
    }

    /// The session as its checkpoint reads it.
    fn live(&self) -> Live<'_> {
        let env = &self.env;
        Live {
            options_sig: env.opts_sig,
            base_sig: env.base_sig,
            relevance: env.relevance.rows(),
            deployed: self.deployed.as_ref().map(|d| (d.eval.total_cost, d.size)),
            report: &self.report,
            rng_state: self.rng.state(),
            budget: (self.ledger.spent, self.ledger.skipped),
            cache: &env.cache,
            open_span_seq: self.search_span.as_ref().map_or(0, |s| s.events_at_open()),
        }
    }

    /// Hand the checkpoint capture, if the session has one, its state.
    fn checkpoint(&mut self, step: impl FnOnce(&mut Capture<'a>, &Live<'_>)) {
        if let Some(mut capture) = self.capture.take() {
            step(&mut capture, &self.live());
            self.capture = Some(capture);
        }
    }

    /// Line 5 of Fig. 5 — the §3.4 heuristic (as amended by §3.6):
    ///
    /// 1. keep relaxing the last configuration while it does not fit
    ///    (or, with updates, while it improved on its parent);
    /// 2. otherwise revisit the chain and "correct" the step with the
    ///    largest actual penalty;
    /// 3. otherwise the cheapest configuration with available work.
    fn pick(&self) -> Option<usize> {
        let nodes = &self.nodes;
        let cheapest_open = || {
            nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| !n.exhausted)
                .min_by(|a, b| a.1.cost().total_cmp(&b.1.cost()))
                .map(|(i, _)| i)
        };
        if self.env.options.config_choice == ConfigChoice::MinCost {
            return cheapest_open();
        }

        // Step 1.
        let last = &nodes[self.last_created];
        let improved_parent = self.env.has_updates
            && last
                .parent
                .map(|p| last.cost() < nodes[p].cost())
                .unwrap_or(false);
        if !last.exhausted && (!self.env.fits(last.size) || improved_parent) {
            return Some(self.last_created);
        }

        // Step 2: the chain from the last configuration to the root;
        // pick the largest-actual-penalty node with remaining work.
        let mut chain = Vec::new();
        let mut cursor = Some(self.last_created);
        while let Some(i) = cursor {
            chain.push(i);
            cursor = nodes[i].parent;
        }
        if let Some(&i) = chain
            .iter()
            .filter(|&&i| !nodes[i].exhausted && nodes[i].last_relax_penalty > 0.0)
            .max_by(|&&a, &&b| {
                nodes[a]
                    .last_relax_penalty
                    .total_cmp(&nodes[b].last_relax_penalty)
            })
        {
            return Some(i);
        }

        // Step 3.
        cheapest_open()
    }

    /// Line 6, first half: score the node's candidates, once per node.
    /// Child nodes inherit their parent's scores and only score the
    /// transformations their own structures introduced ("we can also
    /// cache results from one iteration to the next, so the amortized
    /// number of transformations that we evaluate per iteration is
    /// rather small", §3.4).
    fn score(&mut self, node_idx: usize) {
        if self.nodes[node_idx].scored.is_some() {
            return;
        }
        let env = &self.env;
        let tracer = self.gate.tracer();
        let cands = {
            let _hot = pdt_trace::hot_span(tracer, pdt_trace::HotPhase::Candidates);
            let node = &mut self.nodes[node_idx];
            node.facts.candidates(env.facts(), &node.config)
        };
        let node = &self.nodes[node_idx];
        // The parent's scores, keyed by transformation signature and
        // borrowed: one clone (a reference count) per reused candidate,
        // at reuse time. Only candidates in the node's own list are
        // looked up, and that list holds only transformations valid for
        // the node. Signatures are hashes already, so the map keys by
        // them as they are.
        let inherited: SigMap<&ScoredCandidate> = node
            .parent
            .iter()
            .flat_map(|&p| self.nodes[p].scored.iter().flatten())
            .map(|c| (c.sig, c))
            .collect();
        // Fresh candidates are priced in candidate order.
        let pricing_hot = pdt_trace::hot_span(tracer, pdt_trace::HotPhase::Pricing);
        let mut reused = 0u64;
        let scored: Vec<ScoredCandidate> = cands
            .iter()
            .filter_map(|(t, sig)| {
                if let Some(&c) = inherited.get(sig) {
                    reused += 1;
                    return Some(c.clone());
                }
                env.bound(node, t)
                    .map(|(delta_t, delta_s)| ScoredCandidate {
                        delta_t,
                        delta_s,
                        sig: *sig,
                        transformation: t.clone(),
                    })
            })
            .collect();
        drop(pricing_hot);
        let generated = cands.len() as u64 - reused;
        self.report.candidates_reused += reused;
        self.report.candidates_generated += generated;
        pdt_trace::incr(tracer, "candidates.reused", reused);
        pdt_trace::incr(tracer, "candidates.generated", generated);
        pdt_trace::incr(tracer, "search.scored", scored.len() as u64);
        if let Some(t) = tracer {
            for c in &scored {
                t.emit("search.candidate", c.fields());
            }
        }
        self.nodes[node_idx].scored = Some(scored);
    }

    /// Line 6, second half: pick the node's best untried candidate
    /// (after the §3.6 skyline filter) and apply it. `None` when the
    /// node is exhausted or the transformation no longer applies.
    fn select(
        &mut self,
        iteration: usize,
        node_idx: usize,
    ) -> Option<(ScoredCandidate, AppliedTransform)> {
        let env = &self.env;
        let tracer = self.gate.tracer();
        let node = &self.nodes[node_idx];
        let over_budget = env
            .options
            .space_budget
            .map_or(0.0, |b| (node.size - b).max(0.0));
        let mut open: Vec<&ScoredCandidate> = node
            .scored
            .as_ref()
            .expect("scored by the previous phase")
            .iter()
            .filter(|c| !node.tried.contains(&c.sig))
            .collect();
        // §3.6 skyline: with updates, drop dominated candidates (worse
        // ΔT and worse ΔS than another candidate).
        if env.has_updates && env.options.skyline_filter && open.len() > 1 {
            let _hot = pdt_trace::hot_span(tracer, pdt_trace::HotPhase::Skyline);
            // SoA scan over reused scratch: one dominated flag per
            // open candidate, in input order.
            let flags = self
                .skyline_scratch
                .dominated_flags(open.iter().map(|c| (c.delta_t, c.delta_s)))
                .to_vec();
            if let Some(t) = tracer {
                for (c, _) in open.iter().zip(&flags).filter(|(_, &d)| d) {
                    t.emit("skyline.drop", c.fields());
                }
            }
            let mut i = 0;
            open.retain(|_| {
                let keep = !flags[i];
                i += 1;
                keep
            });
        }
        self.report.candidate_counts.push(open.len());
        pdt_trace::incr(tracer, "search.open", open.len() as u64);
        if open.is_empty() {
            self.nodes[node_idx].exhausted = true;
            return None;
        }
        let best = match env.options.transformation_choice {
            TransformationChoice::Penalty => open
                .iter()
                .min_by(|a, b| a.penalty(over_budget).total_cmp(&b.penalty(over_budget)))
                .expect("non-empty"),
            TransformationChoice::MinCostIncrease => open
                .iter()
                .min_by(|a, b| a.delta_t.total_cmp(&b.delta_t))
                .expect("non-empty"),
            TransformationChoice::Random => open[self.rng.gen_range(0..open.len())],
        };
        let chosen = ScoredCandidate::clone(best);
        if let Some(t) = tracer {
            t.emit(
                "search.choose",
                vec![
                    ("iteration", iteration.into()),
                    ("transformation", chosen.transformation.to_string().into()),
                    ("delta_t", best.delta_t.into()),
                    ("delta_s", best.delta_s.into()),
                    ("penalty", best.penalty(over_budget).into()),
                ],
            );
        }
        let node = &mut self.nodes[node_idx];
        node.tried.insert(chosen.sig);
        let Some(applied) = apply(&chosen.transformation, &node.config, env.db, &env.opt) else {
            emit_skip(tracer, &chosen.transformation, "inapplicable");
            return None;
        };
        Some((chosen, applied))
    }

    /// Approximate tier: spend, serve, or stop — the gap-driven
    /// reallocation policy. The child's true cost lies in
    /// `[upper - gap, upper]`, where `upper` is the §3.3.2 bound total
    /// and `gap` is its select-side replacement slack (see
    /// `bound_served_eval`; the lower end is sound because a relaxation
    /// never makes an affected query's re-optimized plan cheaper than
    /// its current one, and shells are closed-form exact). A
    /// *negligible-gap* child — no point of its interval can move a
    /// relaxation decision by more than `GAP_TOL` of the parent's cost
    /// — is served the estimate for free; it steers (and may claim
    /// `best` at its sound upper bound) exactly as the evaluation it
    /// replaces would have. A child with a material gap is
    /// decision-relevant: only a real evaluation can settle it, so it
    /// spends budget, charged at its worst case. Freed budget thus
    /// flows to the highest-uncertainty candidates, and `pick` keeps
    /// steering by interval midpoints in between.
    ///
    /// Hands the step on only when it is to be really evaluated: a
    /// served child is pooled here, and the exact tier admits
    /// everything.
    fn admit(
        &mut self,
        iteration: usize,
        parent: usize,
        chosen: &ScoredCandidate,
        applied: AppliedTransform,
    ) -> Option<AppliedTransform> {
        if !self.ledger.limited() {
            return Some(applied);
        }
        let env = &self.env;
        let node = &self.nodes[parent];
        let (est_eval, quote) = env.quote(node, &chosen.transformation, &applied);
        let tracer = self.gate.tracer();
        match self
            .ledger
            .settle(tracer, "search", Some(iteration), &quote)
        {
            Settled::Served => {
                // Synthesize the child's evaluation from the bound (its
                // total is bit-identical to `cost_upper_bound`), pool
                // it, and let it claim `best` at its upper bound — a
                // sound claim the final validation re-prices exactly.
                let facts = node.facts.child(env.facts(), &applied);
                let child = Node {
                    parent: Some(parent),
                    est_cost: Some(quote.upper - 0.5 * quote.gap),
                    ..Node::new(applied.config, est_eval, facts, env.db)
                };
                self.pool(iteration, chosen, child);
                None
            }
            Settled::Charged => Some(applied),
            Settled::Exhausted => {
                // Ends the session anytime-style — the loop prologue
                // (or the post-loop reflection) turns the trip into the
                // final stop reason and saves the pending checkpoint,
                // exactly like a deadline.
                self.gate.token.trip(StopReason::CallBudget);
                None
            }
        }
    }

    /// Line 7: really evaluate the relaxed configuration (contained),
    /// returning it as `parent`'s child. `None` when the child is not to
    /// be pooled: §3.5 shortcut, a stop-truncated evaluation, or a
    /// contained fault.
    fn evaluate(
        &mut self,
        iteration: usize,
        parent: usize,
        chosen: &ScoredCandidate,
        applied: AppliedTransform,
    ) -> Option<Node> {
        let env = &self.env;
        let tracer = self.gate.tracer();
        let node = &self.nodes[parent];
        let facts = node.facts.child(env.facts(), &applied);
        let skip_shortcut = || emit_skip(tracer, &chosen.transformation, "shortcut");
        let shortcut_limit = if env.options.shortcut_evaluation {
            self.report.best.as_ref().map(|b| b.cost)
        } else {
            None
        };
        let job = EvalJob {
            site: SITE_CANDIDATE,
            iteration,
            config: &applied.config,
            shells: &facts.shells,
            prev: &node.eval,
            removed_indexes: &applied.removed_indexes,
            removed_views: &applied.removed_views,
            // Under the bound oracle the evaluation must run to
            // completion so the §3.3.2 bound can be compared against
            // the true cost; the §3.5 skip is re-imposed on the
            // finished result below, so search decisions are identical
            // either way.
            limit: if env.options.validate_bounds {
                None
            } else {
                shortcut_limit
            },
        };
        let eval = match env.evaluate_contained(&self.gate, &mut self.report, job) {
            Contained::Done(eval) => eval,
            Contained::Shortcut => {
                // This configuration (and its descendants) cannot beat
                // the best — do not pool it.
                skip_shortcut();
                return None;
            }
            // Stopped: the loop prologue will observe the tripped token
            // and end the session from the last clean boundary.
            // Faulted: the candidate is already in `tried`, so
            // containing the panic just skips it; the search carries on
            // with the rest of the pool.
            Contained::Stopped | Contained::Faulted => return None,
        };
        if env.options.validate_bounds {
            // Inherited candidate scores can be stale with respect to
            // the node they are applied from, so the oracle recomputes
            // the bound of the applied step against this node's plans.
            let bound = env.cost_bound(node, &applied);
            oracle_check(
                &mut self.report,
                tracer,
                iteration,
                &chosen.transformation,
                bound,
                eval.total_cost,
            );
            if shortcut_limit.is_some_and(|l| eval.total_cost > l) {
                skip_shortcut();
                return None;
            }
        }
        Some(Node {
            parent: Some(parent),
            ..Node::new(applied.config, eval, facts, env.db)
        })
    }

    /// §3.5 shrinking: one more step, which drops the indexes the
    /// child's plans do not use.
    fn shrink(&mut self, iteration: usize, child: &mut Node) {
        let env = &self.env;
        let (unused_ix, _) = unused_structures(&child.config, &env.base, &child.eval);
        if unused_ix.is_empty() {
            return;
        }
        // Build the shrunk configuration aside and commit only on a
        // successful re-evaluation: a panic or a stop mid-shrink keeps
        // the consistent unshrunk child.
        let shrunk = TransformDelta::removing(unused_ix).materialize(&child.config);
        let facts = child.facts.child(env.facts(), &shrunk);
        // Unused indexes carry no plans, but shells change.
        let job = EvalJob {
            site: SITE_SHRINK,
            iteration,
            config: &shrunk.config,
            shells: &facts.shells,
            prev: &child.eval,
            removed_indexes: &[],
            removed_views: &[],
            limit: None,
        };
        let Contained::Done(eval) = env.evaluate_contained(&self.gate, &mut self.report, job)
        else {
            return;
        };
        child.size = shrunk.config.size_bytes(env.db);
        child.config = shrunk.config;
        child.eval = eval;
        child.facts = facts;
    }

    /// Lines 7–8: pool the child, record the step on the frontier, and
    /// update `best` if the child fits and is cheaper.
    fn pool(&mut self, iteration: usize, chosen: &ScoredCandidate, child: Node) {
        let env = &self.env;
        let tracer = self.gate.tracer();
        let (size, cost) = (child.size, child.eval.total_cost);
        let fits = env.fits(size);
        let node = &mut self.nodes[child.parent.expect("a child has a parent")];
        let actual_penalty = (cost - node.eval.total_cost) / chosen.delta_s.abs().max(1.0);
        node.last_relax_penalty = node.last_relax_penalty.max(actual_penalty);

        if let Some(t) = tracer {
            t.emit(
                "search.step",
                vec![
                    ("iteration", iteration.into()),
                    ("transformation", chosen.transformation.to_string().into()),
                    ("parent_size", node.size.into()),
                    ("size", size.into()),
                    ("cost", cost.into()),
                    ("fits", fits.into()),
                ],
            );
        }
        self.report.frontier.push(FrontierPoint {
            iteration,
            size_bytes: size,
            cost,
            fits,
        });
        if env.offer(&mut self.report, &child.config, cost, size) {
            pdt_trace::emit(tracer, "search.best", || {
                vec![
                    ("iteration", iteration.into()),
                    ("cost", cost.into()),
                    ("size", size.into()),
                ]
            });
        }
        self.nodes.push(child);
        self.last_created = self.nodes.len() - 1;
    }

    /// Lines 9–10, hardened: the recommendation is re-priced exactly
    /// when it may carry estimate slack, and is never worse than doing
    /// nothing or than what is deployed.
    fn settle_recommendation(&mut self) {
        let env = &self.env;
        let tracer = self.gate.tracer();
        // Approximate tier: exact validation of the recommendation.
        // Bound-served ancestors leave upper-bound slack in the costs
        // an incremental evaluation carries for unaffected queries, so
        // the recommendation is re-priced exactly — the DBA-bandits
        // "validate" step, budget-exempt — before the base-
        // configuration safety floor below, which then guarantees the
        // budgeted result is never worse than the deployed
        // configuration. The exact tier never enters this block.
        if self.ledger.limited() {
            if let Some(best) = &mut self.report.best {
                pdt_trace::emit(tracer, "budget.validate.begin", || {
                    vec![("cost", best.cost.into())]
                });
                let veval = evaluate_full_ctx(
                    env.db,
                    &env.opt,
                    &best.config,
                    env.workload,
                    env.ctx(tracer),
                );
                best.cost = veval.total_cost;
                pdt_trace::emit(tracer, "budget.validate.end", || {
                    vec![("cost", best.cost.into())]
                });
                self.report.optimizer_calls += veval.optimizer_calls;
            }
        }

        // Recommending nothing (the base configuration) is always an
        // option: never return a configuration worse than the current
        // one.
        let (initial_cost, base_size) = (self.report.initial_cost, env.base.size_bytes(env.db));
        env.offer(&mut self.report, &env.base, initial_cost, base_size);

        // Warm-start safety floor (DBA-bandits): never recommend a
        // configuration that prices worse than the one currently
        // deployed.
        if let Some(d) = &self.deployed {
            env.offer(&mut self.report, d.config, d.eval.total_cost, d.size);
        }
    }

    /// Close the report: copy in the store-backed counters and the
    /// ledger, end the trace, stamp the clock.
    fn finalize(self) -> TuningReport {
        let Session {
            env,
            gate,
            ledger,
            start,
            mut report,
            ..
        } = self;
        let tracer = gate.tracer();
        report.cache_hits = env.cache.hits();
        report.cache_misses = env.cache.misses();
        let d = env.cache.derived_counters();
        report.optimizer_calls_avoided = d.avoided;
        report.plan_cache_hits = d.plan_hits;
        report.plan_cache_misses = d.plan_misses;
        report.plan_cache_repriced = d.repriced;
        report.optimizer_calls_skipped = ledger.skipped;
        report.budget_remaining = ledger.remaining();
        if let Some(remaining) = report.budget_remaining {
            pdt_trace::incr(tracer, "budget.remaining", remaining);
        }
        pdt_trace::emit(tracer, "session.end", || {
            vec![
                ("iterations", report.iterations.into()),
                ("optimizer_calls", report.optimizer_calls.into()),
                ("stop_reason", report.stop_reason.label().into()),
            ]
        });
        report.trace = tracer.map(|t| t.summary());
        report.elapsed = start.elapsed();
        report
    }
}

/// A chosen step that produced no child, and why.
fn emit_skip(tracer: Option<&Tracer>, transformation: &Transformation, reason: &'static str) {
    if let Some(t) = tracer {
        t.emit(
            "step.skip",
            vec![
                ("transformation", transformation.to_string().into()),
                ("reason", reason.into()),
            ],
        );
    }
}

/// Record one differential bound-oracle comparison (§3.3.2 as a
/// runtime invariant). The tolerance matches the bound-dominance test
/// suite's relative epsilon, plus an absolute term for near-zero costs.
fn oracle_check(
    report: &mut TuningReport,
    tracer: Option<&Tracer>,
    iteration: usize,
    transformation: &Transformation,
    bound: f64,
    actual: f64,
) {
    report.bound_checks += 1;
    pdt_trace::incr(tracer, "oracle.checks", 1);
    let violated = actual > bound * (1.0 + 1e-3) + 1e-6;
    pdt_trace::emit(tracer, "oracle.check", || {
        vec![
            ("iteration", iteration.into()),
            ("transformation", transformation.to_string().into()),
            ("bound", bound.into()),
            ("actual", actual.into()),
            ("violated", violated.into()),
        ]
    });
    if violated {
        pdt_trace::incr(tracer, "oracle.violations", 1);
        pdt_trace::emit(tracer, "oracle.violation", || {
            vec![
                ("iteration", iteration.into()),
                ("transformation", transformation.to_string().into()),
                ("bound", bound.into()),
                ("actual", actual.into()),
            ]
        });
        report.bound_violations.push(BoundViolation {
            iteration,
            transformation: transformation.to_string(),
            bound,
            actual,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalCtx;
    use crate::transform::removal_candidates;
    use pdt_catalog::{ColumnStats, ColumnType};
    use pdt_opt::Optimizer;
    use pdt_sql::parse_workload;

    pub(super) fn test_db() -> Database {
        let mut b = Database::builder("t");
        let mk = |name: &str, ndv: f64| pdt_catalog::Column {
            name: name.into(),
            ty: ColumnType::Int,
            stats: ColumnStats::uniform(ndv, 0.0, ndv, 4.0),
        };
        b.add_table(
            "r",
            1_000_000.0,
            vec![
                mk("id", 1_000_000.0),
                mk("a", 10_000.0),
                mk("b", 100.0),
                mk("c", 1_000.0),
                mk("d", 50.0),
            ],
            vec![0],
        );
        b.add_table(
            "s",
            50_000.0,
            vec![mk("y", 50_000.0), mk("w", 500.0), mk("z", 20.0)],
            vec![0],
        );
        b.build()
    }

    pub(super) fn workload(db: &Database, sql: &str) -> Workload {
        Workload::bind(db, &parse_workload(sql).unwrap()).unwrap()
    }

    pub(super) const SELECTS: &str = "\
        SELECT r.c FROM r WHERE r.a = 5; \
        SELECT r.d FROM r WHERE r.b = 9 AND r.c < 100; \
        SELECT r.a, s.w FROM r, s WHERE r.a = s.y AND s.z = 3; \
        SELECT r.b, SUM(r.c) FROM r WHERE r.d = 7 GROUP BY r.b";

    #[test]
    fn unconstrained_select_only_returns_optimal() {
        let db = test_db();
        let w = workload(&db, SELECTS);
        let report = tune(&db, &w, &TunerOptions::default());
        let best = report.best.as_ref().unwrap();
        assert_eq!(best.cost, report.optimal_cost);
        assert!(report.optimal_cost < report.initial_cost);
        assert!(report.request_counts.0 > 0);
    }

    #[test]
    fn constrained_session_fits_budget_and_improves() {
        let db = test_db();
        let w = workload(&db, SELECTS);
        // First find the optimal size, then budget at 40% of it.
        let free = tune(&db, &w, &TunerOptions::default());
        let budget = free.optimal_size * 0.4;
        let opts = TunerOptions {
            space_budget: Some(budget),
            max_iterations: 120,
            ..Default::default()
        };
        let report = tune(&db, &w, &opts);
        let best = report.best.as_ref().expect("a configuration must fit");
        assert!(best.size_bytes <= budget, "{} > {budget}", best.size_bytes);
        assert!(
            best.cost < report.initial_cost,
            "must beat the base configuration"
        );
        assert!(
            best.cost >= report.optimal_cost * 0.999,
            "optimal is a floor"
        );
        assert!(!report.frontier.is_empty());
        assert!(report.iterations > 0);
    }

    #[test]
    fn frontier_is_monotone_in_spirit() {
        // Fig. 4: the trajectory trades space for cost — the best
        // configuration under a generous budget is at least as good as
        // under a tight one.
        let db = test_db();
        let w = workload(&db, SELECTS);
        let free = tune(&db, &w, &TunerOptions::default());
        let tight = tune(
            &db,
            &w,
            &TunerOptions {
                space_budget: Some(free.optimal_size * 0.2),
                max_iterations: 120,
                ..Default::default()
            },
        );
        let loose = tune(
            &db,
            &w,
            &TunerOptions {
                space_budget: Some(free.optimal_size * 0.8),
                max_iterations: 120,
                ..Default::default()
            },
        );
        let tc = tight.best.as_ref().map(|b| b.cost).unwrap_or(f64::MAX);
        let lc = loose.best.as_ref().map(|b| b.cost).unwrap_or(f64::MAX);
        assert!(lc <= tc * 1.001, "more space cannot hurt: {lc} vs {tc}");
    }

    #[test]
    fn update_workload_drops_write_only_indexes() {
        let db = test_db();
        let w = workload(
            &db,
            "SELECT r.c FROM r WHERE r.a = 5; \
             UPDATE r SET d = d + 1 WHERE b BETWEEN 1 AND 90; \
             UPDATE r SET c = 0 WHERE b BETWEEN 1 AND 50",
        );
        let report = tune(
            &db,
            &w,
            &TunerOptions {
                space_budget: Some(f64::MAX),
                max_iterations: 80,
                ..Default::default()
            },
        );
        let best = report.best.as_ref().unwrap();
        // Relaxation must beat the raw optimal configuration, whose
        // indexes all pay maintenance.
        assert!(
            best.cost <= report.optimal_cost,
            "updates: best {} must be <= optimal {}",
            best.cost,
            report.optimal_cost
        );
        assert!(best.cost >= report.lower_bound_cost * 0.999);
    }

    #[test]
    fn ablation_choices_run() {
        let db = test_db();
        let w = workload(&db, SELECTS);
        let free = tune(&db, &w, &TunerOptions::default());
        for (cc, tc) in [
            (ConfigChoice::MinCost, TransformationChoice::Penalty),
            (ConfigChoice::PaperHeuristic, TransformationChoice::Random),
            (
                ConfigChoice::PaperHeuristic,
                TransformationChoice::MinCostIncrease,
            ),
        ] {
            let report = tune(
                &db,
                &w,
                &TunerOptions {
                    space_budget: Some(free.optimal_size * 0.5),
                    max_iterations: 40,
                    config_choice: cc,
                    transformation_choice: tc,
                    seed: 42,
                    ..Default::default()
                },
            );
            assert!(report.iterations > 0, "{cc:?}/{tc:?} did not run");
            if cc == ConfigChoice::PaperHeuristic {
                // The paper's heuristic converges fast; MinCost may
                // legitimately fail to reach the budget in 40
                // iterations (§3.4: "the time to converge ... is too
                // long") so only the heuristic gets the hard assert.
                assert!(report.best.is_some(), "{cc:?}/{tc:?} found nothing");
            }
        }
    }

    #[test]
    fn shrink_and_shortcut_variations_run() {
        let db = test_db();
        let w = workload(&db, SELECTS);
        let free = tune(&db, &w, &TunerOptions::default());
        let report = tune(
            &db,
            &w,
            &TunerOptions {
                space_budget: Some(free.optimal_size * 0.5),
                max_iterations: 60,
                shrink_unused: true,
                shortcut_evaluation: false,
                ..Default::default()
            },
        );
        assert!(report.best.is_some());
    }

    #[test]
    fn candidate_counts_recorded_for_fig6() {
        let db = test_db();
        let w = workload(&db, SELECTS);
        let free = tune(&db, &w, &TunerOptions::default());
        let report = tune(
            &db,
            &w,
            &TunerOptions {
                space_budget: Some(free.optimal_size * 0.3),
                max_iterations: 30,
                ..Default::default()
            },
        );
        assert!(!report.candidate_counts.is_empty());
        assert!(report.candidate_counts[0] > 0);
    }

    #[test]
    fn deadline_zero_stops_with_valid_report() {
        let db = test_db();
        let w = workload(&db, SELECTS);
        let free = tune(&db, &w, &TunerOptions::default());
        let report = tune(
            &db,
            &w,
            &TunerOptions {
                space_budget: Some(free.optimal_size * 0.4),
                max_iterations: 60,
                deadline_ms: Some(0),
                ..Default::default()
            },
        );
        // An already-expired deadline still yields a complete report:
        // setup is never cancelled, only the search loop is.
        assert_eq!(report.stop_reason, StopReason::Deadline);
        assert_eq!(report.iterations, 0);
        assert!(report.initial_cost > 0.0);
        assert!(!report.frontier.is_empty());
    }

    #[test]
    fn pre_tripped_token_reports_interrupted() {
        let db = test_db();
        let w = workload(&db, SELECTS);
        let free = tune(&db, &w, &TunerOptions::default());
        let token = StopToken::new();
        token.trip(StopReason::Interrupted);
        let report = tune(
            &db,
            &w,
            &TunerOptions {
                space_budget: Some(free.optimal_size * 0.4),
                max_iterations: 60,
                stop: Some(token),
                ..Default::default()
            },
        );
        assert_eq!(report.stop_reason, StopReason::Interrupted);
        assert_eq!(report.iterations, 0);
    }

    #[test]
    fn natural_ends_have_natural_reasons() {
        let db = test_db();
        let w = workload(&db, SELECTS);
        let free = tune(&db, &w, &TunerOptions::default());
        assert_eq!(free.stop_reason, StopReason::Converged);
        let budgeted = tune(
            &db,
            &w,
            &TunerOptions {
                space_budget: Some(free.optimal_size * 0.4),
                max_iterations: 3,
                ..Default::default()
            },
        );
        assert_eq!(budgeted.stop_reason, StopReason::IterationBudget);
        assert!(budgeted.faults.is_empty());
    }

    #[test]
    fn only_the_real_engine_carries_prepass_scores() {
        // `Reference::Candidates` prices every pre-pass removal from
        // scratch and carries nothing; the real engine carries every
        // removal it prices, at the same score bits.
        let db = test_db();
        let w = workload(&db, SELECTS);
        let (config, _) = crate::instrument::gather_optimal_configuration(&db, &w, true);
        let opts = TunerOptions::default();
        let eval = evaluate_full_ctx(&db, &Optimizer::new(&db), &config, &w, EvalCtx::default());
        let mut scores = Vec::new();
        for reference in [None, Some(Reference::Candidates)] {
            let ctl = SessionCtl {
                reference,
                ..SessionCtl::default()
            };
            let env = Env::new(&db, &w, &opts, &ctl).unwrap();
            let facts = NodeFacts::scratch(env.facts(), &config);
            let node = Node::new(config.clone(), eval.clone(), facts, &db);
            let terms = node.bound_node().terms(&w);
            let removals = removal_candidates(&config, &env.base);
            assert!(removals.len() > 2, "a pre-pass with something to carry");
            let run: Vec<_> = removals
                .iter()
                .map(|t| {
                    let mut carried = None;
                    let score = env.removal_score(&node, &terms, t, &mut carried);
                    assert_eq!(carried.is_some(), reference.is_none(), "{t}");
                    score.map(|(dt, ds)| (dt.to_bits(), ds.to_bits()))
                })
                .collect();
            scores.push(run);
        }
        assert_eq!(scores[0], scores[1]);
    }

    #[test]
    fn reference_engines_match_byte_for_byte() {
        // The oracle contract in unit form: `Reference::Candidates`
        // (from scratch vs. derived node facts) and
        // `Reference::Costs` (a real optimizer call behind each derived
        // serve) may change how much work is real, but never the
        // report, the counters, or the JSONL trace bytes.
        let db = test_db();
        let w = workload(&db, SELECTS);
        let free = tune(&db, &w, &TunerOptions::default());
        // A reachable budget (shallow search) and an unreachable one
        // (deepest chain, maximal delta enumeration and score reuse).
        for budget in [free.optimal_size * 0.4, 1.0] {
            let run = |opts: &TunerOptions, reference: Option<Reference>| {
                let tracer = Tracer::new();
                let ctl = SessionCtl {
                    tracer: Some(&tracer),
                    reference,
                    ..SessionCtl::default()
                };
                let mut r = tune_session(&db, &w, opts, ctl).unwrap();
                r.elapsed = std::time::Duration::ZERO;
                if let Some(t) = &mut r.trace {
                    for p in &mut t.phases {
                        p.elapsed = std::time::Duration::ZERO;
                    }
                    t.hot_phases.clear();
                }
                (format!("{r:#?}"), tracer.to_jsonl())
            };
            for reference in [Reference::Candidates, Reference::Costs] {
                let opts = TunerOptions {
                    space_budget: Some(budget),
                    max_iterations: 60,
                    validate_bounds: reference == Reference::Candidates,
                    ..Default::default()
                };
                let ((ra, ta), (rb, tb)) = (run(&opts, None), run(&opts, Some(reference)));
                assert_eq!(ta, tb, "{reference:?}: traces must be byte-identical");
                assert_eq!(ra, rb, "{reference:?}: reports must be identical");
            }
        }
    }

    #[test]
    fn replay_gate_is_silent_until_go_live() {
        let db = test_db();
        let w = workload(&db, SELECTS);
        let free = tune(&db, &w, &TunerOptions::default());
        let opts = TunerOptions {
            space_budget: Some(free.optimal_size * 0.4),
            max_iterations: 6,
            ..Default::default()
        };
        // The log's first record is a complete checkpoint on its own.
        let saved = std::cell::RefCell::new(String::new());
        let sink = |_: usize, record: &str| {
            if saved.borrow().is_empty() {
                *saved.borrow_mut() = record.to_string();
            }
        };
        let ctl = SessionCtl {
            checkpoint_every: 1,
            checkpoint_sink: Some(&sink),
            ..SessionCtl::default()
        };
        let mut report = tune_session(&db, &w, &opts, ctl).unwrap();
        let ck = Checkpoint::from_json_str(&saved.into_inner()).unwrap();
        // A replaying gate with an already-expired deadline and no
        // fault tolerance: live, either would end the session at once.
        let (tracer, token) = (Tracer::new(), StopToken::new());
        let ctl = SessionCtl {
            tracer: Some(&tracer),
            resume: Some(&ck),
            ..SessionCtl::default()
        };
        let mut gate = ReplayGate::new(&ctl, &token, Some(Instant::now()), 0);
        let at = ck.head.iteration;
        assert!(!gate.live && gate.resume_at() == at && at > 0);
        assert!(gate.tracer().is_none() && gate.stop().is_none());
        assert_eq!(gate.stopped(), None);
        gate.record_fault(&mut report, 1, FaultKind::EvalPanic, "replayed".into());
        assert!(report.faults.is_empty(), "replay re-recorded a fault");
        assert_eq!(tracer.to_jsonl(), "", "replay emitted an event");
        assert_eq!(token.get(), None, "replay tripped the token");
        // Live, the same calls record, trace and trip.
        gate.live = true;
        gate.record_fault(&mut report, 1, FaultKind::EvalPanic, "live".into());
        assert_eq!(report.faults.len(), 1);
        assert!(tracer.to_jsonl().contains(r#""kind":"fault""#));
        assert_eq!(gate.stopped(), Some(StopReason::FaultLimit));
    }

    #[test]
    fn improvement_metric_matches_definition() {
        let db = test_db();
        let w = workload(&db, SELECTS);
        let report = tune(&db, &w, &TunerOptions::default());
        let pct = report.best_improvement_pct();
        let manual = 100.0 * (1.0 - report.best.as_ref().unwrap().cost / report.initial_cost);
        assert!((pct - manual).abs() < 1e-9);
        assert!(pct <= 100.0);
    }
}
