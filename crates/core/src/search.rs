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
//! `Session`; resume-by-replay, the call-budget ledger and fault
//! containment each live behind one small type the phases call
//! (`ReplayGate`, `CallLedger`, `Env::evaluate_contained`).

#![deny(clippy::too_many_lines)]

use crate::arena::SkylineScratch;
use crate::bound::{
    bound_served_eval, estimates, node_bound, BoundNode, RemovalScore, RemovalStep, ViewBuildCosts,
};
use crate::cache::CostCache;
use crate::checkpoint::{write_record, Batch, Checkpoint, Head, Identity, RecordKind, TraceBatch};
use crate::derived::RelevanceTable;
use crate::error::TuneError;
use crate::eval::{
    evaluate_entries, evaluate_full_ctx, unused_structures, EvalCtx, EvalResult, ShellTable,
};
use crate::fault::{
    FaultEvent, FaultKind, FaultPlan, FaultSite, SITE_CANDIDATE, SITE_PREPASS, SITE_SHRINK,
};
use crate::instrument::gather_optimal_configuration_traced;
use crate::node::{FactCtx, NodeFacts};
use crate::stop::{StopCheck, StopReason, StopToken};
use crate::transform::{
    apply, describe, inherits, removal_candidates, AppliedTransform, TransformDelta, Transformation,
};
use crate::workload::Workload;
use pdt_catalog::{Database, TableId};
use pdt_opt::Optimizer;
use pdt_physical::{Configuration, Index, PhysicalSchema};
use pdt_trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Which configuration to relax next (line 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConfigChoice {
    /// The paper's three-step heuristic (§3.4 / §3.6).
    #[default]
    PaperHeuristic,
    /// Always the minimum-cost configuration (the "interesting but
    /// impractical" alternative the paper discusses; ablation).
    MinCost,
}

/// Which transformation to apply (line 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransformationChoice {
    /// Minimum `penalty = ΔT / min(Space(C)−B, ΔS)` (§3.4).
    #[default]
    Penalty,
    /// Uniformly random applicable transformation (ablation).
    Random,
    /// Minimum ΔT regardless of space (ablation).
    MinCostIncrease,
}

/// Tuning session options.
#[derive(Debug, Clone)]
pub struct TunerOptions {
    /// Storage budget in bytes. `None` means unconstrained: the
    /// optimal configuration is returned directly for SELECT-only
    /// workloads; with updates the search still runs (removing
    /// write-only structures pays).
    pub space_budget: Option<f64>,
    /// Iteration budget (the paper's wall-clock budget analog).
    pub max_iterations: usize,
    /// Recommend materialized views in addition to indexes.
    pub with_views: bool,
    /// §3.6 skyline filtering of candidate transformations.
    pub skyline_filter: bool,
    /// §3.5 shortcut evaluation (abort costing once above best).
    pub shortcut_evaluation: bool,
    /// §3.5 shrinking configurations (drop unused structures each
    /// iteration).
    pub shrink_unused: bool,
    pub config_choice: ConfigChoice,
    pub transformation_choice: TransformationChoice,
    /// Seed for the `Random` ablation.
    pub seed: u64,
    /// Ignored. Retained only because the frozen `pdt-benchmark` crate
    /// names it; the next benchmark PR drops it.
    pub threads: usize,
    /// Differential bound oracle: after each relaxation step, compare
    /// the §3.3.2 closed-form cost upper bound against the actually
    /// re-optimized workload cost and record any violation in
    /// [`TuningReport::bound_violations`]. Decisions are unchanged (the
    /// §3.5 shortcut skip is re-imposed on the completed evaluation),
    /// but shortcut-aborted evaluations now run to completion, so
    /// `optimizer_calls` and cache counters grow — this is the oracle's
    /// overhead, not a behavior change. The oracle also compares every
    /// fact the search derives for a node from its parent's — CBV table,
    /// shell table, candidate list — with a from-scratch
    /// computation and panics on a mismatch (a bug in the derivation,
    /// see `NodeFacts::assert_matches_scratch`).
    pub validate_bounds: bool,
    /// Soft wall-clock deadline. Once it passes, the session stops at
    /// the next cooperative check point and returns the best-so-far
    /// report with [`StopReason::Deadline`]. `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// External cancellation token (e.g. tripped by a SIGINT handler).
    /// `None` gives the session a private token, so deadline and
    /// fault-limit stops still work without one.
    pub stop: Option<StopToken>,
    /// Deterministic fault injection for resilience testing; `None`
    /// outside injection runs.
    pub fault_plan: Option<FaultPlan>,
    /// Contained faults tolerated before the session trips
    /// [`StopReason::FaultLimit`] and returns the best-so-far report.
    pub max_faults: usize,
    /// Wii-style what-if call budget — the *approximate tier*. Caps the
    /// worst-case real optimizer invocations the relaxation loop
    /// (pre-pass included) may spend; candidates whose exact cost
    /// cannot change the recommendation this step (their configuration
    /// does not fit the space budget) are served a §3.3.2 bound-derived
    /// estimate instead, and the session trips
    /// [`StopReason::CallBudget`] — anytime, like a deadline — once a
    /// decision-relevant evaluation no longer fits the remaining
    /// budget. The recommended configuration is re-priced exactly
    /// (budget-exempt) before it is returned. `None` (the default) is
    /// the exact tier: byte-identical to an engine without this knob.
    /// The budget changes logical decisions, so it is part of the
    /// options signature.
    pub optimizer_call_budget: Option<usize>,
    /// Warm start: the currently-deployed configuration of an online
    /// re-tuning loop. When set, the session evaluates it once during
    /// setup (budget-exempt, like the base/optimal references), pools
    /// it as an additional relaxable start point next to the §2
    /// optimal root, and applies it as a final safety floor: the
    /// recommendation is never allowed to price worse than the
    /// deployed configuration on this workload (the DBA-bandits
    /// ground rule). Changes the search trajectory, so it is part of
    /// the options signature.
    pub deployed: Option<Configuration>,
}

impl Default for TunerOptions {
    fn default() -> Self {
        TunerOptions {
            space_budget: None,
            max_iterations: 250,
            with_views: true,
            skyline_filter: true,
            shortcut_evaluation: true,
            shrink_unused: false,
            config_choice: ConfigChoice::default(),
            transformation_choice: TransformationChoice::default(),
            seed: 0,
            threads: 1,
            validate_bounds: false,
            deadline_ms: None,
            stop: None,
            fault_plan: None,
            max_faults: 16,
            optimizer_call_budget: None,
            deployed: None,
        }
    }
}

/// One failure of the §3.3.2 lemma caught by the differential bound
/// oracle: the closed-form upper bound was below the re-optimized cost.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundViolation {
    pub iteration: usize,
    pub transformation: String,
    /// The closed-form `cost_upper_bound` for the step.
    pub bound: f64,
    /// The full re-optimized workload cost after the step.
    pub actual: f64,
}

/// One point of the size/cost trajectory (Fig. 4).
#[derive(Debug, Clone, Copy)]
pub struct FrontierPoint {
    pub iteration: usize,
    pub size_bytes: f64,
    pub cost: f64,
    pub fits: bool,
}

/// A recommended configuration with its evaluation.
#[derive(Debug, Clone)]
pub struct BestConfig {
    pub config: Configuration,
    pub cost: f64,
    pub size_bytes: f64,
}

/// The output of a tuning session.
#[derive(Debug, Clone)]
pub struct TuningReport {
    /// Workload cost under the base configuration.
    pub initial_cost: f64,
    pub initial_size: f64,
    /// The §2 optimal configuration (line 2 of Fig. 5).
    pub optimal_cost: f64,
    pub optimal_size: f64,
    pub optimal_config: Configuration,
    /// Cost that no configuration can beat (§3.6 lower bound: optimal
    /// SELECT parts + update shells under the base configuration).
    pub lower_bound_cost: f64,
    /// Best configuration within budget, if any was found.
    pub best: Option<BestConfig>,
    /// Every explored configuration (the Fig. 4 by-product: "at the end
    /// of the tuning process we have many alternative configurations").
    pub frontier: Vec<FrontierPoint>,
    pub iterations: usize,
    /// Why the session ended. Anytime semantics: every reason still
    /// yields a complete report with the best configuration found.
    pub stop_reason: StopReason,
    pub optimizer_calls: usize,
    /// What-if cost-cache hits/misses over the whole session.
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Candidate scores computed fresh at a node (one §3.3.2 bound
    /// each). Mode-invariant: the reference engine prices the same
    /// candidates from scratch.
    pub candidates_generated: u64,
    /// Candidate scores inherited from the parent node's scored list
    /// without pricing them again.
    pub candidates_reused: u64,
    /// Optimizer calls the derived-costing layer made unnecessary:
    /// relevant-subset cache hits beyond the coarse per-table
    /// projection, plus plan-reuse serves. Mode-invariant: under
    /// [`Reference::Costs`] every such serve is still classified (and
    /// counted) identically, just backed by a real validation call.
    pub optimizer_calls_avoided: u64,
    /// Keyed cache misses served by re-pricing a surviving cached plan.
    pub plan_cache_hits: u64,
    /// Keyed cache misses where no cached plan survived.
    pub plan_cache_misses: u64,
    /// Plan-reuse serves that re-priced a non-empty plan footprint.
    pub plan_cache_repriced: u64,
    /// Evaluations the approximate tier served from the §3.3.2 bound
    /// instead of re-optimizing, counted in worst-case real invocations
    /// (affected queries). 0 in the exact tier.
    pub optimizer_calls_skipped: u64,
    /// Call budget left when the session ended; `None` in the exact
    /// (unlimited) tier.
    pub budget_remaining: Option<u64>,
    /// Textually duplicate workload statements merged at load time
    /// (each shares one evaluation, scaled by its combined weight).
    pub workload_deduped: u64,
    /// Candidate transformations available at each iteration (Fig. 6).
    pub candidate_counts: Vec<usize>,
    /// (index requests, view requests) intercepted (Table 1).
    pub request_counts: (usize, usize),
    /// Bound-oracle comparisons performed (0 unless
    /// [`TunerOptions::validate_bounds`] is set).
    pub bound_checks: u64,
    /// §3.3.2 violations the oracle caught (must stay empty).
    pub bound_violations: Vec<BoundViolation>,
    /// Contained faults: escaped evaluation panics and repaired cache
    /// poison. Empty outside fault injection and genuine bugs.
    pub faults: Vec<FaultEvent>,
    /// Roll-up of the structured trace (`Some` only when the session
    /// ran with a [`Tracer`]); per-phase `elapsed` is wall-clock, all
    /// other contents are deterministic.
    pub trace: Option<pdt_trace::TraceSummary>,
    pub elapsed: Duration,
}

impl TuningReport {
    /// `improvement(CI, CR, W) = 100 · (1 − cost(CR)/cost(CI))` (§4).
    pub fn improvement_pct(&self, cost: f64) -> f64 {
        100.0 * (1.0 - cost / self.initial_cost.max(1e-12))
    }

    /// Improvement of the recommended configuration (0 when none fits).
    pub fn best_improvement_pct(&self) -> f64 {
        self.best
            .as_ref()
            .map(|b| self.improvement_pct(b.cost))
            .unwrap_or(0.0)
    }

    /// Improvement of the unconstrained optimal configuration.
    pub fn optimal_improvement_pct(&self) -> f64 {
        self.improvement_pct(self.optimal_cost)
    }
}

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
    tried: HashSet<u64>,
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
            tried: HashSet::new(),
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
    transformation: Transformation,
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

/// What a session reads but never reassigns: its inputs, the optimizer
/// and the stores (interior-mutable, so scoring can fill them through a
/// shared borrow).
struct Env<'a> {
    db: &'a Database,
    workload: &'a Workload,
    options: &'a TunerOptions,
    opt: Optimizer<'a>,
    base: Configuration,
    has_updates: bool,
    /// `false` only under [`Reference::Candidates`]: node facts and
    /// bounds are then recomputed from scratch instead of derived.
    incremental: bool,
    /// `false` only under [`Reference::Costs`]; see [`EvalCtx::derived`].
    derived: bool,
    /// Checkpoints serialize its portable signatures.
    cache: CostCache,
    /// Per-query relevant-structure sets, derived once from the
    /// workload text (see [`crate::derived`]); every evaluation in the
    /// session keys the cost cache through them.
    relevance: RelevanceTable,
    /// Session-portable content signatures for the shared store,
    /// computed once: the store with its schema namespace, and one
    /// signature per workload statement. The shared store is excluded
    /// from `options_signature` — it is pure perf, so checkpoints stay
    /// portable across shared-store settings.
    shared: Option<(&'a crate::shared::SharedInvocationStore, u128)>,
    query_sigs: Vec<u128>,
    /// Checkpoint identity: see [`options_signature`] and
    /// [`Checkpoint::validate`].
    opts_sig: u64,
    base_sig: u64,
}

impl<'a> Env<'a> {
    /// Resolve the inputs and build the stores — restored from
    /// `ctl.resume` when the session resumes, after checking that the
    /// checkpoint belongs to this session.
    fn new(
        db: &'a Database,
        workload: &'a Workload,
        options: &'a TunerOptions,
        ctl: &SessionCtl<'a>,
    ) -> Result<Env<'a>, TuneError> {
        let base = Configuration::base(db);
        let opts_sig = options_signature(options, db, workload);
        let base_sig = base.signature();
        if let Some(ck) = ctl.resume {
            ck.validate(opts_sig, base_sig)?;
            if ctl.tracer.is_some() && ck.trace.is_none() {
                return Err(TuneError::Checkpoint(
                    "checkpoint has no trace but this session traces; resume without \
                     tracing or from a traced checkpoint"
                        .to_string(),
                ));
            }
        }
        let mut cache = match ctl.resume {
            Some(ck) => ck.restore_cache(),
            None => CostCache::new(),
        };
        // A session that checkpoints journals what the cache gains from
        // here on, so a record costs what changed; any other session
        // keeps (and pays) nothing. What a resume restored is already
        // in the log it came from.
        if ctl.checkpoint_sink.is_some() {
            cache.start_journal();
        }
        // A resumed session validates the checkpointed relevance table
        // against this rebuilt one.
        let relevance = RelevanceTable::build(db, workload);
        if let Some(ck) = ctl.resume {
            if ck.relevance != *relevance.rows() {
                return Err(TuneError::Checkpoint(
                    "checkpointed relevance table does not match the workload's".to_string(),
                ));
            }
        }
        let query_sigs: Vec<u128> = if ctl.shared_store.is_some() {
            workload
                .entries
                .iter()
                .map(|e| crate::shared::statement_signature(&e.statement))
                .collect()
        } else {
            Vec::new()
        };
        Ok(Env {
            db,
            workload,
            options,
            opt: Optimizer::new(db),
            base,
            has_updates: workload.has_updates(),
            incremental: ctl.reference != Some(Reference::Candidates),
            derived: ctl.reference != Some(Reference::Costs),
            cache,
            relevance,
            shared: ctl
                .shared_store
                .map(|store| (store, crate::shared::schema_signature(db))),
            query_sigs,
            opts_sig,
            base_sig,
        })
    }

    /// The evaluation context every evaluation of the session starts
    /// from. It carries no stop and no fault site: setup and the final
    /// validation never take either (the report is only valid with real
    /// reference costs, and injection coordinates are keyed to search
    /// sites); [`Env::evaluate_contained`] adds both.
    fn ctx<'c>(&'c self, tracer: Option<&'c Tracer>) -> EvalCtx<'c> {
        EvalCtx {
            cache: Some(&self.cache),
            tracer,
            relevance: Some(&self.relevance),
            derived: self.derived,
            shared: self
                .shared
                .map(|(store, schema_sig)| crate::shared::SharedCtx {
                    store,
                    schema_sig,
                    query_sigs: &self.query_sigs,
                }),
            ..EvalCtx::default()
        }
    }

    /// What deriving node facts reads.
    fn facts(&self) -> FactCtx<'_> {
        FactCtx {
            db: self.db,
            model: &self.opt.opts.cost,
            workload: self.workload,
            base: &self.base,
            from_scratch: !self.incremental,
            validate: self.options.validate_bounds,
        }
    }

    fn fits(&self, size: f64) -> bool {
        self.options.space_budget.is_none_or(|b| size <= b)
    }

    /// Line 8: `config` becomes the recommendation if it fits and is
    /// strictly cheaper than the current one. Returns whether it did.
    fn offer(
        &self,
        report: &mut TuningReport,
        config: &Configuration,
        cost: f64,
        size: f64,
    ) -> bool {
        let takes = self.fits(size) && report.best.as_ref().is_none_or(|b| cost < b.cost);
        if takes {
            report.best = Some(BestConfig {
                config: config.clone(),
                cost,
                size_bytes: size,
            });
        }
        takes
    }

    /// A candidate's §3.3 estimates `(ΔT, ΔS)`: `t` applied to `node`,
    /// priced by the §3.3.2 bound. `None` when `t` does not apply, or
    /// when it neither frees space nor lowers the bound.
    fn bound(&self, node: &Node, t: &Transformation) -> Option<(f64, f64)> {
        let delta = describe(t, &node.config, self.db, &self.opt)?;
        let delta_t = self.cost_bound(node, &delta) - node.eval.total_cost;
        estimates(delta_t, delta.delta_bytes)
    }

    /// The pre-pass score of the removal `t` on `node`, whose own
    /// per-entry terms are `node_terms`: `carried`'s ingredients folded
    /// over them, after pricing them fresh when there are none. Under
    /// [`Reference::Candidates`] nothing is carried and every removal
    /// is priced by [`bound`](Self::bound). When checks are on, the
    /// score is asserted bit-equal to `bound`'s and carried ingredients
    /// to a fresh pricing.
    fn removal_score(
        &self,
        node: &Node,
        node_terms: &[f64],
        t: &Transformation,
        carried: &mut Option<RemovalScore>,
    ) -> Option<(f64, f64)> {
        if !self.incremental {
            return self.bound(node, t);
        }
        let price = || {
            let delta = describe(t, &node.config, self.db, &self.opt)?;
            let cost = &self.opt.opts.cost;
            Some(RemovalScore::price(
                self.db,
                cost,
                self.workload,
                &node.bound_node(),
                &delta,
            ))
        };
        let checks = self.facts().checks();
        match carried {
            Some(score) if checks => {
                let fresh = price().expect("a carried removal still applies");
                score.assert_matches(&fresh, t);
            }
            Some(_) => {}
            None => *carried = price(),
        }
        let score = carried.as_ref()?.score(node_terms, node.eval.total_cost);
        if checks {
            let scratch = self.bound(node, t);
            assert!(
                score.map(|(dt, ds)| (dt.to_bits(), ds.to_bits()))
                    == scratch.map(|(dt, ds)| (dt.to_bits(), ds.to_bits())),
                "pre-pass score of {t} diverged from the bound"
            );
        }
        score
    }

    /// The §3.3.2 upper bound on the workload cost once `delta` is
    /// applied to `node`. The incremental engine uses the
    /// affected-query-restricted bound, which is bit-identical to the
    /// full one (see `cost_upper_bound_restricted`); the full side of
    /// that debug assertion prices view rebuilds from scratch, so it is
    /// also the oracle for the carried `view_costs`.
    fn cost_bound(&self, node: &Node, delta: &TransformDelta) -> f64 {
        let (db, cost) = (self.db, &self.opt.opts.cost);
        if !self.incremental {
            return node_bound(db, cost, self.workload, &node.bound_node(), delta, false);
        }
        let b = node_bound(db, cost, self.workload, &node.bound_node(), delta, true);
        debug_assert_eq!(
            b.to_bits(),
            crate::bound::cost_upper_bound(
                db,
                cost,
                self.workload,
                &node.eval,
                &node.config,
                delta,
                &ViewBuildCosts::new(),
            )
            .to_bits(),
            "restricted bound diverged from the full bound"
        );
        b
    }

    /// Put one applied step to the approximate tier: its bound-served
    /// evaluation and the [`Quote`] the ledger settles.
    fn quote<'q>(
        &self,
        node: &Node,
        transformation: &'q Transformation,
        applied: &AppliedTransform,
    ) -> (EvalResult, Quote<'q>) {
        let (est_eval, gap) = bound_served_eval(
            self.db,
            &self.opt.opts.cost,
            self.workload,
            &node.bound_node(),
            applied,
        );
        let quote = Quote {
            transformation,
            affected: affected_queries(&node.eval, applied),
            gap,
            upper: est_eval.total_cost,
            parent_cost: node.eval.total_cost,
        };
        (est_eval, quote)
    }

    /// The one contained evaluation: an incremental re-evaluation under
    /// the stop control and fault site of its pipeline position, with a
    /// panic caught and recorded instead of propagated. Fault isolation
    /// is the caller's by construction — a phase commits state only on
    /// [`Contained::Done`], so a contained panic leaves nothing behind.
    fn evaluate_contained(
        &self,
        gate: &ReplayGate<'_>,
        report: &mut TuningReport,
        job: EvalJob<'_>,
    ) -> Contained {
        let tracer = gate.tracer();
        let ctx = EvalCtx {
            stop: gate.stop(),
            faults: self
                .options
                .fault_plan
                .as_ref()
                .map(|p| FaultSite::new(p, job.site, job.iteration as u64)),
            ..self.ctx(tracer)
        };
        let hot = pdt_trace::hot_span(tracer, pdt_trace::HotPhase::Eval);
        let result = catch_unwind(AssertUnwindSafe(|| {
            evaluate_entries(
                self.db,
                &self.opt,
                job.config,
                self.workload,
                Some((job.prev, job.removed_indexes, job.removed_views)),
                job.limit,
                ctx,
                Some(job.shells),
            )
        }));
        drop(hot);
        match result {
            Ok(Some(eval)) => {
                report.optimizer_calls += eval.optimizer_calls;
                for q in &eval.poison_repairs {
                    gate.record_fault(
                        report,
                        job.iteration,
                        FaultKind::CachePoison,
                        format!("repaired poisoned cache cost for query {q}"),
                    );
                }
                Contained::Done(eval)
            }
            // `None` without a stop can only be the shortcut limit.
            Ok(None) if gate.stopped().is_some() => Contained::Stopped,
            Ok(None) => Contained::Shortcut,
            Err(payload) => {
                gate.record_fault(
                    report,
                    job.iteration,
                    FaultKind::EvalPanic,
                    payload_str(payload.as_ref()),
                );
                Contained::Faulted
            }
        }
    }
}

/// One incremental re-evaluation for [`Env::evaluate_contained`]: the
/// fault-site coordinates (`iteration` 0 is the pre-pass) and the
/// arguments of `evaluate_incremental_ctx`, plus `config`'s shell table
/// (derived from `prev`'s configuration's).
struct EvalJob<'j> {
    site: u32,
    iteration: usize,
    config: &'j Configuration,
    shells: &'j ShellTable,
    prev: &'j EvalResult,
    removed_indexes: &'j [Index],
    removed_views: &'j [TableId],
    /// §3.5 shortcut limit; `None` runs to completion.
    limit: Option<f64>,
}

/// How a contained evaluation ended.
enum Contained {
    Done(EvalResult),
    /// §3.5: the accumulated cost passed the shortcut limit.
    Shortcut,
    /// A cooperative stop truncated it; nothing was committed.
    Stopped,
    /// It panicked; the fault is recorded (when live).
    Faulted,
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

/// Receives `(iterations_completed, record)` from a session; see
/// [`SessionCtl::checkpoint_sink`].
pub type CheckpointSink<'a> = &'a dyn Fn(usize, &str);

/// Checkpoint/resume and tracing plumbing for [`tune_session`]. The
/// default (no tracer, no checkpointing, no resume) reproduces
/// [`tune`] exactly.
#[derive(Default, Clone, Copy)]
pub struct SessionCtl<'a> {
    /// Structured-event sink; see [`tune_traced`].
    pub tracer: Option<&'a Tracer>,
    /// Write a checkpoint record every N completed iterations (0 =
    /// only when the session stops early). Meaningful only with a sink.
    pub checkpoint_every: usize,
    /// Receives `(iterations_completed, record)` on the cadence above
    /// and once more — for the last clean boundary — when the session
    /// stops early (deadline / SIGINT / fault limit). The records are a
    /// log (see [`crate::checkpoint`]): a fresh session's first is a
    /// complete document, every later one — and every record of a
    /// resumed session, which extends the checkpoint it resumed from —
    /// carries only what was added since the one before, so a sink
    /// appends.
    pub checkpoint_sink: Option<CheckpointSink<'a>>,
    /// Resume from this checkpoint: the session silently replays the
    /// checkpointed prefix (cheap — the restored cache answers every
    /// committed what-if question), verifies replay fidelity, then
    /// continues live. The resumed report and trace are byte-identical
    /// to an uninterrupted run's.
    pub resume: Option<&'a Checkpoint>,
    /// Daemon-wide shared what-if store. The session computes its
    /// portable content signatures (schema, per-statement) once and
    /// probes the store as a third invocation tier; see
    /// [`crate::shared`]. Pure perf: report and trace are
    /// byte-identical with or without it.
    pub shared_store: Option<&'a crate::shared::SharedInvocationStore>,
    /// Run one of the from-scratch reference engines instead of the
    /// engine everyone runs (`None`). Report, trace and checkpoints are
    /// byte-identical under every value — that identity is what the
    /// oracle suites assert — so, like `shared_store`, it is not part of
    /// the options signature. Set by tests only.
    pub reference: Option<Reference>,
}

/// The from-scratch engines the differential suites compare the real
/// one against; selected through [`SessionCtl::reference`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// Build every node's facts from scratch (`NodeFacts::scratch`: its
    /// candidates enumerated, its shell table built and its CBV table
    /// empty, nothing derived from the parent's), and price every
    /// §3.3.2 bound unrestricted.
    Candidates,
    /// Back every derived what-if serve — a relevant-subset cache hit
    /// beyond the coarse key or a plan-reuse answer — with a real
    /// optimizer call and use its answer, and never read the invocation
    /// or shared store; keys, probes, counters and cache contents are
    /// unchanged.
    Costs,
}

/// Hash of every decision-relevant option plus the workload and
/// database identity, used to pair checkpoints with sessions. Excludes
/// knobs that cannot change the search trajectory: `threads` (ignored),
/// `deadline_ms`, `stop`, and the checkpoint cadence. `DefaultHasher`
/// is stable only within one build, which is exactly the checkpoint
/// contract (same binary on both sides).
fn options_signature(options: &TunerOptions, db: &Database, workload: &Workload) -> u64 {
    let mut h = DefaultHasher::new();
    "pdtune-options-v1".hash(&mut h);
    options.space_budget.map(f64::to_bits).hash(&mut h);
    options.max_iterations.hash(&mut h);
    options.with_views.hash(&mut h);
    options.skyline_filter.hash(&mut h);
    options.shortcut_evaluation.hash(&mut h);
    options.shrink_unused.hash(&mut h);
    (options.config_choice as u8).hash(&mut h);
    (options.transformation_choice as u8).hash(&mut h);
    options.seed.hash(&mut h);
    // Once `options.cost_cache`, which every session left `true`; the
    // byte keeps checkpoints written before the option went away valid.
    true.hash(&mut h);
    options.validate_bounds.hash(&mut h);
    // `optimizer_call_budget` is hashed — the asymmetry is deliberate:
    // the budget changes which evaluations really run and therefore
    // the search trajectory itself (the approximate tier), so a
    // budgeted checkpoint must never resume an unbudgeted session or
    // vice versa.
    options.optimizer_call_budget.hash(&mut h);
    // `SessionCtl::{reference, shared_store}` are not options and are
    // not hashed: both leave every output byte where it was, so
    // checkpoints are portable across them.
    match options.fault_plan {
        None => 0u8.hash(&mut h),
        Some(p) => {
            1u8.hash(&mut h);
            p.seed.hash(&mut h);
            p.rate.to_bits().hash(&mut h);
        }
    }
    options.max_faults.hash(&mut h);
    // The deployed configuration seeds the pool and floors the final
    // recommendation, so it changes the trajectory like the budget.
    match &options.deployed {
        None => 0u8.hash(&mut h),
        Some(c) => {
            1u8.hash(&mut h);
            c.signature128().hash(&mut h);
        }
    }
    db.name.hash(&mut h);
    workload.entries.len().hash(&mut h);
    for e in &workload.entries {
        format!("{e:?}").hash(&mut h);
    }
    h.finish()
}

/// Worst-case real optimizer invocations an incremental re-evaluation
/// after `applied` can make: one per query whose previous plan used a
/// removed structure (the `needs_reopt` rule in `eval.rs`). The
/// approximate tier charges its call budget by this count rather than
/// by actual calls — actual calls depend on cache state, which differs
/// between a live run and a checkpoint replay (the restored cache
/// answers replayed questions for free), while the affected count is a
/// pure function of the search trajectory. `real calls <= charged`
/// always holds.
fn affected_queries(prev: &EvalResult, delta: &TransformDelta) -> u64 {
    prev.per_query
        .iter()
        .filter(|q| q.uses_any(&delta.removed_indexes, &delta.removed_views))
        .count() as u64
}

/// Serve-vs-spend threshold for the approximate tier: a bound-served
/// estimate replaces a real evaluation only when its interval gap
/// (`bound_served_eval`'s second return) is at most this fraction of
/// the parent's evaluated cost. Below the threshold no point of the
/// interval can move a relaxation decision by more than the tolerance,
/// so the estimate steers identically to the evaluation it replaces
/// (an unaffected child has gap 0 and is served bit-exactly); above it
/// the candidate is decision-relevant and charges the call budget.
/// Witness usages keep served chains sound at any tolerance — the
/// setting trades steering fidelity against real calls, and the final
/// exact validation re-prices whatever the steering picked. 2% keeps
/// every seed of the 200-seed contract sweep within ε = 5%.
const GAP_TOL: f64 = 0.02;

/// Turn a caught panic payload into a printable detail string.
fn payload_str(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The approximate tier's what-if call-budget ledger.
///
/// Charged by worst-case affected-query counts (see
/// [`affected_queries`]), never by actual calls, so the ledger is a
/// pure function of the search trajectory: replay regenerates it
/// exactly and [`go_live_checks`] verifies it against the checkpoint.
/// Setup (base/optimal evaluation, instrumentation) and the final
/// validation re-pricing are budget-exempt.
struct CallLedger {
    /// `None` is the exact (unlimited) tier.
    budget: Option<u64>,
    spent: u64,
    /// Worst-case invocations served from the bound instead.
    skipped: u64,
}

/// One candidate evaluation put to the ledger: what running it would
/// cost at worst, and the bound-served estimate that could replace it
/// (the child's true cost lies in `[upper - gap, upper]`, see
/// `bound_served_eval`).
struct Quote<'q> {
    transformation: &'q Transformation,
    affected: u64,
    gap: f64,
    upper: f64,
    /// The parent's evaluated cost, which `GAP_TOL` is a fraction of.
    parent_cost: f64,
}

/// The ledger's answer to a [`Quote`].
#[derive(Debug, PartialEq, Eq)]
enum Settled {
    /// Negligible gap: use the estimate, for free.
    Served,
    /// Decision-relevant: run the evaluation; its worst case is charged.
    Charged,
    /// Decision-relevant but unaffordable: nothing was charged, and the
    /// caller trips [`StopReason::CallBudget`].
    Exhausted,
}

impl CallLedger {
    fn new(budget: Option<usize>) -> CallLedger {
        CallLedger {
            budget: budget.map(|b| b as u64),
            spent: 0,
            skipped: 0,
        }
    }

    /// Whether the session runs the approximate tier at all; the exact
    /// tier never computes an estimate to quote.
    fn limited(&self) -> bool {
        self.budget.is_some()
    }

    fn remaining(&self) -> Option<u64> {
        self.budget.map(|b| b.saturating_sub(self.spent))
    }

    /// The gap-driven serve-or-spend decision for one evaluation in
    /// `phase` (search-phase events also carry the iteration). A
    /// negligible-gap estimate is served; anything else is charged up
    /// front at its worst case, and an unaffordable charge ends the
    /// phase anytime-style.
    fn settle(
        &mut self,
        tracer: Option<&Tracer>,
        phase: &'static str,
        iteration: Option<usize>,
        quote: &Quote<'_>,
    ) -> Settled {
        let Some(remaining) = self.remaining() else {
            return Settled::Charged;
        };
        // Built only for the two outcomes that emit an event.
        let lead_fields = || {
            let mut fields: Vec<(&'static str, pdt_trace::Value)> = vec![("phase", phase.into())];
            if let Some(i) = iteration {
                fields.push(("iteration", i.into()));
            }
            fields.push(("transformation", quote.transformation.to_string().into()));
            fields.push(("affected", quote.affected.into()));
            fields
        };
        if quote.gap <= GAP_TOL * quote.parent_cost {
            self.skipped += quote.affected;
            pdt_trace::incr(tracer, "optimizer.calls_skipped", quote.affected);
            let mut fields = lead_fields();
            fields.push(("gap", quote.gap.into()));
            fields.push(("upper", quote.upper.into()));
            pdt_trace::emit(tracer, "budget.skip", fields);
            Settled::Served
        } else if quote.affected > remaining {
            let mut fields = lead_fields();
            fields.push(("remaining", remaining.into()));
            pdt_trace::emit(tracer, "budget.exhausted", fields);
            Settled::Exhausted
        } else {
            self.spent += quote.affected;
            Settled::Charged
        }
    }
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
        self.resume.map_or(0, |ck| ck.iteration)
    }

    /// The tracer the current mode exposes.
    fn tracer(&self) -> Option<&'a Tracer> {
        if self.live {
            self.tracer
        } else {
            None
        }
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
        pdt_trace::emit(
            self.tracer,
            "fault",
            vec![
                ("iteration", iteration.into()),
                ("kind", kind.label().into()),
                ("detail", detail.clone().into()),
            ],
        );
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

/// Bitwise equality of two optional `(cost, size)` pairs: what a replay
/// regenerates must match its checkpoint exactly, not approximately.
fn same_bits(a: Option<(f64, f64)>, b: Option<(f64, f64)>) -> bool {
    let bits = |p: Option<(f64, f64)>| p.map(|(cost, size)| (cost.to_bits(), size.to_bits()));
    bits(a) == bits(b)
}

/// Verify a finished replay against its checkpoint. Everything the
/// replay regenerates must match bitwise; a mismatch means the
/// checkpoint does not belong to this session (or this build).
fn go_live_checks(
    report: &TuningReport,
    rng: &StdRng,
    ledger: &CallLedger,
    ck: &Checkpoint,
) -> Result<(), TuneError> {
    let best = report.best.as_ref().map(|b| (b.cost, b.size_bytes));
    if rng.state() != ck.rng_state
        || report.iterations != ck.iteration
        || report.frontier.len() != ck.frontier_len
        || ledger.spent != ck.budget_spent
        || ledger.skipped != ck.budget_skipped
        || !same_bits(best, ck.best)
    {
        return Err(TuneError::Checkpoint(format!(
            "replay diverged from the checkpoint at iteration {}: rng {:016x} vs \
             {:016x}, frontier {} vs {}, best {:?} vs {:?}",
            ck.iteration,
            rng.state(),
            ck.rng_state,
            report.frontier.len(),
            ck.frontier_len,
            report.best.as_ref().map(|b| b.cost),
            ck.best.map(|b| b.0),
        )));
    }
    Ok(())
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
    ctl: SessionCtl<'a>,
    /// Journal epoch inserts currently land in; closed by every
    /// [`Mark`].
    epoch: u32,
    /// The newest clean boundary marked but not yet written.
    pending: Option<Mark>,
    /// What the records written so far (or the checkpoint resumed
    /// from) already cover.
    written: Written,
    /// Reused across records.
    record_buf: String,
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

/// A clean iteration boundary, held until (and unless) a checkpoint
/// record is written for it: the record's header scalars by value, and
/// everything append-only by position; see [`Session::mark`].
struct Mark {
    head: Head,
    /// The journal epoch this boundary closed: the record takes what
    /// the cost cache gained in epochs `..= epoch`.
    epoch: u32,
    /// `report.faults.len()` at the boundary.
    faults: usize,
    trace: Option<pdt_trace::TraceMark>,
}

/// How far the checkpoint log already reaches: the boundary of the last
/// record written (or of the checkpoint resumed from; 0 = the log is
/// empty and the next record opens it with a complete document), and
/// the positions the next record's batches start at.
struct Written {
    iteration: usize,
    faults: usize,
    events: u64,
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
        let (optimal_config, sink) =
            gather_optimal_configuration_traced(db, workload, options.with_views, tracer);
        let select_count = workload
            .entries
            .iter()
            .filter(|e| e.select.is_some())
            .count();
        optimizer_calls += select_count;
        pdt_trace::incr(tracer, "optimizer.calls", select_count as u64);
        pdt_trace::emit(
            tracer,
            "instrument.done",
            vec![
                ("index_requests", sink.index_requests.into()),
                ("view_requests", sink.view_requests.into()),
                ("indexes", sink.created_indexes.into()),
                ("views", sink.created_views.into()),
            ],
        );
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
            pdt_trace::emit(
                tracer,
                "warm.deployed",
                vec![("cost", e.total_cost.into()), ("size", size.into())],
            );
            Deployed {
                config: d,
                eval: e,
                size,
            }
        });
        drop(setup_span);

        // A resumed session must reproduce the checkpointed setup exactly
        // (bitwise): anything else means the database or cost model
        // changed in a way the signatures could not see.
        if let Some(ck) = gate.resume {
            let baseline = deployed.as_ref().map(|d| (d.eval.total_cost, d.size));
            if ck.initial_cost.to_bits() != initial_cost.to_bits()
                || ck.optimal_cost.to_bits() != optimal_cost.to_bits()
                || !same_bits(baseline, ck.deployed)
            {
                return Err(TuneError::Checkpoint(
                    "replayed setup diverged from the checkpoint (initial/optimal/deployed \
                     cost mismatch)"
                        .to_string(),
                ));
            }
        }

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
            written: Written {
                iteration: gate.resume_at(),
                faults: report.faults.len(),
                events: gate
                    .resume
                    .and_then(|ck| ck.trace.as_ref())
                    .map_or(0, |t| t.state.events),
            },
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
            ctl,
            epoch: 0,
            pending: None,
            record_buf: String::new(),
            skyline_scratch: SkylineScratch::default(),
        };
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

    /// Pruning pre-pass (§3.5 "multiple transformations per
    /// iteration"): greedily apply every *removal* whose cost upper
    /// bound does not increase the expected cost — unused structures
    /// always qualify, and under update workloads so do structures
    /// whose maintenance outweighs their benefit. This collapses the
    /// long prefix of trivially-good relaxations into one step: it
    /// relaxes the optimal configuration in place into the pool's root.
    fn prepass(&mut self, mut root: Node) -> Node {
        let (env, cx) = (&self.env, self.env.facts());
        let tracer = self.gate.tracer();
        let prepass_span = tracer.map(|t| t.span("prepass"));
        // Accumulated interval gap of every bound-served step: the
        // root's true cost lies in `[total - gap, total]`.
        let mut served_gap = 0.0f64;
        // The pre-pass only ever scores removals: enumerate them
        // directly instead of building (and discarding) the full
        // merge/split/prefix list, once, then carry the list from step
        // to step.
        // Each removal rides with its carried score ingredients (`None`
        // until first priced, and again once a step can have changed
        // them).
        let mut removals: Vec<(Transformation, Option<RemovalScore>)> = {
            let _hot = pdt_trace::hot_span(tracer, pdt_trace::HotPhase::Candidates);
            removal_candidates(&root.config, &env.base)
                .into_iter()
                .map(|t| (t, None))
                .collect()
        };
        for _ in 0..root.config.structure_count() {
            if self.gate.stopped().is_some() {
                // Stopped before the first iteration: the root stays
                // wherever the pre-pass got to; the loop prologue turns
                // the trip into the final stop reason.
                break;
            }
            // Score every removal, then fold the results in candidate
            // order: the first strict minimum wins.
            let pricing_hot = pdt_trace::hot_span(tracer, pdt_trace::HotPhase::Pricing);
            let node_terms = root.bound_node().terms(env.workload);
            let scored: Vec<_> = removals
                .iter_mut()
                .map(|(t, carried)| env.removal_score(&root, &node_terms, t, carried))
                .collect();
            drop(pricing_hot);
            // (ΔT, position in `removals`) of the running minimum.
            let mut best_removal: Option<(f64, usize)> = None;
            for (at, score) in scored.into_iter().enumerate() {
                if let Some((delta_t, _)) = score {
                    if delta_t <= 1e-9 && best_removal.is_none_or(|(d, _)| delta_t < d) {
                        best_removal = Some((delta_t, at));
                    }
                }
            }
            let Some((delta_t, at)) = best_removal else {
                break;
            };
            let transformation = &removals[at].0;
            // Materialize only the winner: scoring priced deltas and
            // built no configuration.
            let Some(applied) = apply(transformation, &root.config, env.db, &env.opt) else {
                break;
            };
            let facts = root.facts.child(cx, &applied);
            // Approximate tier: a pre-pass winner's §3.3.2 bound proved
            // the removal does not increase cost (`delta_t <= 1e-9`),
            // but the bound's *select* side can still be pessimistic
            // (its net non-positivity may lean on shell savings). Serve
            // the bound estimate only while its interval gap is too
            // small to change any downstream relaxation decision;
            // otherwise this removal is decision-relevant and spends
            // real budget like a main-loop step.
            let mut served = None;
            if self.ledger.limited() {
                let (est_eval, quote) = env.quote(&root, transformation, &applied);
                match self.ledger.settle(tracer, "prepass", None, &quote) {
                    Settled::Served => {
                        served_gap += quote.gap;
                        served = Some(est_eval);
                    }
                    Settled::Charged => {}
                    Settled::Exhausted => {
                        // Ends the pre-pass anytime-style (the loop
                        // prologue turns the trip into the final stop
                        // reason).
                        self.gate.token.trip(StopReason::CallBudget);
                        break;
                    }
                }
            }
            let new_eval = if let Some(est_eval) = served {
                est_eval
            } else {
                let job = EvalJob {
                    site: SITE_PREPASS,
                    iteration: 0,
                    config: &applied.config,
                    shells: &facts.shells,
                    prev: &root.eval,
                    removed_indexes: &applied.removed_indexes,
                    removed_views: &applied.removed_views,
                    limit: None,
                };
                match env.evaluate_contained(&self.gate, &mut self.report, job) {
                    Contained::Done(e) => e,
                    // Stopped, or a contained fault: keep the prefix
                    // already built — the pre-pass is an optimization,
                    // not a correctness step.
                    _ => break,
                }
            };
            pdt_trace::emit(
                tracer,
                "prepass.remove",
                vec![
                    ("transformation", transformation.to_string().into()),
                    ("delta_t", delta_t.into()),
                    ("cost", new_eval.total_cost.into()),
                ],
            );
            pdt_trace::incr(tracer, "prepass.removed", 1);
            if env.options.validate_bounds {
                // The kept (delta_t, applied) pair was scored against
                // the *current* root, so the bound is fresh.
                let bound = root.eval.total_cost + delta_t;
                let actual = new_eval.total_cost;
                oracle_check(&mut self.report, tracer, 0, transformation, bound, actual);
            }
            root.config = applied.config;
            root.facts = facts;
            root.eval = new_eval;
            // The inheritance half of the candidate rule is the whole
            // rule for a step that adds nothing: the winner drops out
            // and, for a view, so do the removals of its indexes. A
            // survivor keeps its score ingredients unless the carry rule
            // says the step can have changed them. (The winner was
            // priced, so it has ingredients unless nothing carries any,
            // under `Reference::Candidates`.)
            let winner = removals[at].1.take();
            removals.retain(|(t, _)| inherits(t, &applied.delta, &root.config));
            if let Some(score) = &winner {
                let step = RemovalStep {
                    score,
                    delta: &applied.delta,
                    config: &root.config,
                    eval: &root.eval,
                };
                for (t, carried) in &mut removals {
                    if carried
                        .as_ref()
                        .is_some_and(|c| c.stale(t, &step).next().is_some())
                    {
                        *carried = None;
                    }
                }
            }
            if cx.checks() {
                assert!(
                    removals
                        .iter()
                        .map(|(t, _)| t)
                        .eq(&removal_candidates(&root.config, &env.base)),
                    "carried pre-pass removal list diverged from the enumeration"
                );
            }
        }
        drop(prepass_span);
        root.size = root.config.size_bytes(env.db);
        // A bound-served pre-pass leaves the root's costs upper-bounded
        // rather than evaluated; rank it by its interval midpoint like
        // any other estimated node. (Its `best` entry, if it fits, is a
        // sound upper bound — the final validation re-prices it
        // exactly.)
        root.est_cost = (self.ledger.limited() && served_gap > 0.0)
            .then_some(root.eval.total_cost - 0.5 * served_gap);
        root
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
        go_live_checks(&self.report, &self.rng, &self.ledger, ck)?;
        self.report.optimizer_calls = ck.optimizer_calls;
        let cache = &self.env.cache;
        cache.set_counters(ck.cache_hits, ck.cache_misses);
        cache.set_derived_counters(ck.derived);
        // The candidate generated/reused counters replay exactly (replay
        // prices the same candidates), so neither needs a checkpoint
        // field.
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
                // Save the newest clean boundary. `pending` was
                // marked before the previous iteration ran, so it is
                // valid even if that iteration was truncated mid-
                // evaluation by this very stop: nothing inserted or
                // emitted after the mark reaches the record.
                if let Some(mark) = self.pending.take() {
                    if mark.head.iteration > self.written.iteration {
                        self.write_record(&mark);
                    }
                }
                return Ok(false);
            }
            if self.ctl.checkpoint_sink.is_some() && iteration > 1 {
                // Reaching this point un-stopped proves iterations
                // `1..=iteration-1` completed without stop interference
                // (the token is sticky): mark them as the new resume
                // boundary.
                let done = iteration - 1;
                let mark = self.mark(done);
                if self.ctl.checkpoint_every > 0
                    && done.is_multiple_of(self.ctl.checkpoint_every)
                    && done > self.written.iteration
                {
                    self.write_record(&mark);
                }
                self.pending = Some(mark);
            }
        }
        self.report.iterations = iteration;
        let tracer = self.gate.tracer();
        pdt_trace::incr(tracer, "search.iterations", 1);
        pdt_trace::emit(
            tracer,
            "iter.begin",
            vec![
                ("iteration", iteration.into()),
                ("nodes", self.nodes.len().into()),
            ],
        );
        Ok(true)
    }

    /// Mark a clean iteration boundary (the top of the search loop,
    /// before any of the next iteration's work): the scalars a record's
    /// header carries, and *positions* in everything append-only — the
    /// journal epoch this closes, the fault count, the tracer's event
    /// and phase counts. Costs the same however much state the session
    /// has accumulated.
    fn mark(&mut self, iteration_done: usize) -> Mark {
        let (env, report) = (&self.env, &self.report);
        let epoch = self.epoch;
        env.cache.seal(epoch);
        self.epoch += 1;
        Mark {
            head: Head {
                iteration: iteration_done,
                rng_state: self.rng.state(),
                optimizer_calls: report.optimizer_calls,
                budget_spent: self.ledger.spent,
                budget_skipped: self.ledger.skipped,
                cache_hits: env.cache.hits(),
                cache_misses: env.cache.misses(),
                derived: env.cache.derived_counters(),
                best: report.best.as_ref().map(|b| (b.cost, b.size_bytes)),
                frontier_len: report.frontier.len(),
            },
            epoch,
            faults: report.faults.len(),
            trace: self.gate.tracer.map(Tracer::mark),
        }
    }

    /// Render the record for `mark` — what the cost cache, the fault list
    /// and the tracer gained between the previous record and the mark —
    /// and hand it to the sink.
    fn write_record(&mut self, mark: &Mark) {
        let sink = self
            .ctl
            .checkpoint_sink
            .expect("marks are only taken with a sink");
        let (env, report, written) = (&self.env, &self.report, &self.written);
        let cache = env.cache.drain_through(mark.epoch);
        let identity = Identity {
            options_sig: env.opts_sig,
            base_sig: env.base_sig,
            initial_cost: report.initial_cost,
            optimal_cost: report.optimal_cost,
            deployed: self.deployed.as_ref().map(|d| (d.eval.total_cost, d.size)),
            relevance: env.relevance.rows(),
        };
        let kind = if written.iteration == 0 {
            RecordKind::Full(&identity)
        } else {
            RecordKind::Delta {
                base: written.iteration,
            }
        };
        let open_span_seq = self.search_span.as_ref().map_or(0, |s| s.events_at_open());
        let out = &mut self.record_buf;
        out.clear();
        let render = |trace: Option<TraceBatch<'_>>| {
            let batch = Batch {
                faults: &report.faults[written.faults..mark.faults],
                cache: &cache,
                trace,
            };
            write_record(out, kind, &mark.head, &batch);
        };
        match (self.gate.tracer, &mark.trace) {
            (Some(t), Some(at)) => t.read_prefix(written.events, at, |events, phases| {
                render(Some(TraceBatch {
                    depth: at.depth,
                    open_span_seq,
                    counters: &at.counters,
                    phases,
                    events,
                }))
            }),
            _ => render(None),
        }
        sink(mark.head.iteration, &self.record_buf);
        self.written = Written {
            iteration: mark.head.iteration,
            faults: mark.faults,
            events: mark.trace.as_ref().map_or(0, |t| t.events),
        };
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
        // borrowed: one clone per reused candidate, at reuse time. Only
        // candidates in the node's own list are looked up, and that list
        // holds only transformations valid for the node.
        let inherited: std::collections::HashMap<u64, &ScoredCandidate> = node
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
        pdt_trace::emit(
            tracer,
            "search.choose",
            vec![
                ("iteration", iteration.into()),
                ("transformation", chosen.transformation.to_string().into()),
                ("delta_t", best.delta_t.into()),
                ("delta_s", best.delta_s.into()),
                ("penalty", best.penalty(over_budget).into()),
            ],
        );
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

        pdt_trace::emit(
            tracer,
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
        self.report.frontier.push(FrontierPoint {
            iteration,
            size_bytes: size,
            cost,
            fits,
        });
        if env.offer(&mut self.report, &child.config, cost, size) {
            pdt_trace::emit(
                tracer,
                "search.best",
                vec![
                    ("iteration", iteration.into()),
                    ("cost", cost.into()),
                    ("size", size.into()),
                ],
            );
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
                pdt_trace::emit(
                    tracer,
                    "budget.validate.begin",
                    vec![("cost", best.cost.into())],
                );
                let veval = evaluate_full_ctx(
                    env.db,
                    &env.opt,
                    &best.config,
                    env.workload,
                    env.ctx(tracer),
                );
                best.cost = veval.total_cost;
                pdt_trace::emit(
                    tracer,
                    "budget.validate.end",
                    vec![("cost", best.cost.into())],
                );
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
        pdt_trace::emit(
            tracer,
            "session.end",
            vec![
                ("iterations", report.iterations.into()),
                ("optimizer_calls", report.optimizer_calls.into()),
                ("stop_reason", report.stop_reason.label().into()),
            ],
        );
        report.trace = tracer.map(|t| t.summary());
        report.elapsed = start.elapsed();
        report
    }
}

/// A chosen step that produced no child, and why.
fn emit_skip(tracer: Option<&Tracer>, transformation: &Transformation, reason: &'static str) {
    pdt_trace::emit(
        tracer,
        "step.skip",
        vec![
            ("transformation", transformation.to_string().into()),
            ("reason", reason.into()),
        ],
    );
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
    pdt_trace::emit(
        tracer,
        "oracle.check",
        vec![
            ("iteration", iteration.into()),
            ("transformation", transformation.to_string().into()),
            ("bound", bound.into()),
            ("actual", actual.into()),
            ("violated", violated.into()),
        ],
    );
    if violated {
        pdt_trace::incr(tracer, "oracle.violations", 1);
        pdt_trace::emit(
            tracer,
            "oracle.violation",
            vec![
                ("iteration", iteration.into()),
                ("transformation", transformation.to_string().into()),
                ("bound", bound.into()),
                ("actual", actual.into()),
            ],
        );
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
    use crate::transform::candidates;
    use pdt_catalog::{ColumnStats, ColumnType};
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

    fn workload(db: &Database, sql: &str) -> Workload {
        Workload::bind(db, &parse_workload(sql).unwrap()).unwrap()
    }

    const SELECTS: &str = "\
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
    fn options_signature_tracks_decisions_only() {
        let db = test_db();
        let w = workload(&db, SELECTS);
        let a = TunerOptions::default();
        let sig = |o: &TunerOptions| options_signature(o, &db, &w);
        let base = sig(&a);
        assert_eq!(
            base,
            sig(&TunerOptions {
                deadline_ms: Some(5),
                stop: Some(StopToken::new()),
                ..a.clone()
            }),
            "non-decision knobs must not change the signature"
        );
        assert_ne!(
            base,
            sig(&TunerOptions {
                seed: 1,
                ..a.clone()
            })
        );
        assert_ne!(
            base,
            sig(&TunerOptions {
                max_iterations: 10,
                ..a.clone()
            })
        );
        assert_ne!(
            base,
            sig(&TunerOptions {
                optimizer_call_budget: Some(64),
                ..a.clone()
            }),
            "the call budget steers the trajectory, so budgeted and \
             unbudgeted checkpoints must never cross-resume"
        );
        assert_ne!(
            base,
            sig(&TunerOptions {
                fault_plan: Some(FaultPlan { seed: 1, rate: 0.1 }),
                ..a
            })
        );
    }

    #[test]
    fn options_signature_is_pinned() {
        // `DefaultHasher::new()` is SipHash with fixed keys, so these
        // literals are what "a checkpoint written by an earlier build
        // still validates" means: whatever is deleted from or added to
        // `TunerOptions`, the hashed byte stream must not move.
        let db = test_db();
        let w = workload(&db, SELECTS);
        let sig = |o: &TunerOptions| options_signature(o, &db, &w);
        let default = TunerOptions::default();
        assert_eq!(sig(&default), 0xf697_4754_761a_f0c8);
        assert_eq!(
            sig(&TunerOptions {
                space_budget: Some(24e6),
                max_iterations: 40,
                optimizer_call_budget: Some(64),
                ..default.clone()
            }),
            0xb94a_fab1_6728_7998
        );
        assert_eq!(
            sig(&TunerOptions {
                deployed: Some(Configuration::base(&db)),
                ..default
            }),
            0x55b0_6d98_55c0_91f5
        );
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
    fn call_ledger_serves_charges_and_exhausts() {
        let db = test_db();
        let w = workload(&db, SELECTS);
        let free = tune(&db, &w, &TunerOptions::default());
        let t = candidates(&free.optimal_config, &Configuration::base(&db)).remove(0);
        let quote = |affected: u64, gap: f64| Quote {
            transformation: &t,
            affected,
            gap,
            upper: 100.0 + gap,
            parent_cost: 100.0,
        };
        let tracer = Tracer::new();
        let trc = Some(&tracer);
        let mut ledger = CallLedger::new(Some(5));
        // At the tolerance the estimate is served, free of charge; just
        // above it the evaluation is charged at its worst case.
        let at_tol = quote(9, GAP_TOL * 100.0);
        assert_eq!(
            ledger.settle(trc, "prepass", None, &at_tol),
            Settled::Served
        );
        assert_eq!((ledger.spent, ledger.skipped), (0, 9));
        assert_eq!(
            ledger.settle(trc, "search", Some(1), &quote(3, 2.5)),
            Settled::Charged
        );
        assert_eq!((ledger.spent, ledger.remaining()), (3, Some(2)));
        // An unaffordable charge is refused whole: nothing is spent, so
        // a cheaper evaluation still fits afterwards.
        assert_eq!(
            ledger.settle(trc, "search", Some(2), &quote(3, 2.5)),
            Settled::Exhausted
        );
        assert_eq!((ledger.spent, ledger.skipped), (3, 9));
        assert_eq!(
            ledger.settle(trc, "search", Some(3), &quote(2, 2.5)),
            Settled::Charged
        );
        assert_eq!(ledger.remaining(), Some(0));
        // One event per serve and per refusal, none per charge; only
        // search-phase events carry the iteration.
        let events = tracer.to_jsonl();
        let lines: Vec<&str> = events.lines().collect();
        assert_eq!(lines.len(), 2, "{events}");
        assert!(lines[0].contains(r#""kind":"budget.skip","phase":"prepass","transformation""#));
        assert!(lines[1].contains(r#""kind":"budget.exhausted","phase":"search","iteration":2"#));
        assert!(lines[1].contains(r#""affected":3,"remaining":2"#));
        assert_eq!(tracer.counter("optimizer.calls_skipped"), 9);
        // Past its budget the ledger reports nothing left, not a wrap;
        // the exact tier charges everything and records nothing.
        ledger.spent = 7;
        assert_eq!(ledger.remaining(), Some(0));
        let mut exact = CallLedger::new(None);
        assert_eq!(
            exact.settle(None, "search", Some(1), &quote(4, 0.0)),
            Settled::Charged
        );
        assert_eq!(
            (exact.spent, exact.skipped, exact.remaining()),
            (0, 0, None)
        );
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
        assert!(!gate.live && gate.resume_at() == ck.iteration && ck.iteration > 0);
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
