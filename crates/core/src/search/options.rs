//! What a session is asked and what it answers: the options and the
//! [`SessionCtl`] plumbing a caller hands [`tune_session`](super::tune_session),
//! the [`TuningReport`] it returns, and the options signature that pairs a
//! checkpoint with the session that wrote it.

#![deny(clippy::too_many_lines)]

use crate::checkpoint::Checkpoint;
use crate::fault::{FaultEvent, FaultPlan};
use crate::stop::{StopReason, StopToken};
use crate::workload::Workload;
use pdt_catalog::Database;
use pdt_physical::Configuration;
use pdt_trace::Tracer;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;

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

/// Receives `(iterations_completed, record)` from a session; see
/// [`SessionCtl::checkpoint_sink`].
pub type CheckpointSink<'a> = &'a dyn Fn(usize, &str);

/// Checkpoint/resume and tracing plumbing for
/// [`tune_session`](super::tune_session). The default (no tracer, no
/// checkpointing, no resume) reproduces [`tune`](super::tune) exactly.
#[derive(Default, Clone, Copy)]
pub struct SessionCtl<'a> {
    /// Structured-event sink; see [`tune_traced`](super::tune_traced).
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

// `options_signature` hashes `usize` options and `derive(Hash)` values,
// which are fed at the target's width.
const _: () = assert!(usize::BITS == 64, "signatures pinned for 64-bit");

/// Hash of every decision-relevant option plus the workload and
/// database identity, used to pair checkpoints with sessions. Excludes
/// knobs that cannot change the search trajectory: `threads` (ignored),
/// `deadline_ms`, `stop`, and the checkpoint cadence. `DefaultHasher`
/// is stable only within one build, which is exactly the checkpoint
/// contract (same binary on both sides).
pub(super) fn options_signature(options: &TunerOptions, db: &Database, workload: &Workload) -> u64 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::tests::{test_db, workload, SELECTS};

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
}
