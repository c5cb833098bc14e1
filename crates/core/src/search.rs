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

use crate::arena::SkylineScratch;
use crate::bound::{
    bound_served_eval, cost_upper_bound, cost_upper_bound_restricted, ViewBuildCosts,
};
use crate::cache::CostCache;
use crate::checkpoint::{Checkpoint, TraceCheckpoint};
use crate::derived::RelevanceTable;
use crate::error::TuneError;
use crate::eval::{
    evaluate_full_ctx, evaluate_incremental_ctx, unused_structures, EvalCtx, EvalResult,
};
use crate::fault::{
    FaultEvent, FaultKind, FaultPlan, FaultSite, SITE_CANDIDATE, SITE_PREPASS, SITE_SHRINK,
};
use crate::incremental::{BoundMemo, BoundMemoEntry, Interner, MemoCfg};
use crate::instrument::gather_optimal_configuration_traced;
use crate::par::{par_map, resolve_threads};
use crate::stop::{StopCheck, StopReason, StopToken};
use crate::transform::{
    apply, candidates, candidates_delta, describe, removal_candidates, AppliedTransform, StepDelta,
    TransformDelta, Transformation,
};
use crate::workload::Workload;
use pdt_catalog::{Database, TableId};
use pdt_opt::Optimizer;
use pdt_physical::{Configuration, Index};
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
    /// Worker threads for candidate scoring and workload evaluation
    /// (0 = one per available core). The report is identical for every
    /// value; only wall-clock time changes.
    pub threads: usize,
    /// Memoize optimizer what-if calls across the session in a shared
    /// [`CostCache`].
    pub cost_cache: bool,
    /// Differential bound oracle: after each relaxation step, compare
    /// the §3.3.2 closed-form cost upper bound against the actually
    /// re-optimized workload cost and record any violation in
    /// [`TuningReport::bound_violations`]. Decisions are unchanged (the
    /// §3.5 shortcut skip is re-imposed on the completed evaluation),
    /// but shortcut-aborted evaluations now run to completion, so
    /// `optimizer_calls` and cache counters grow — this is the oracle's
    /// overhead, not a behavior change. The oracle also verifies every
    /// CBV table the search carries from a node to its child against a
    /// from-scratch computation and panics on a mismatch (a bug in the
    /// carry rule, see `ViewBuildCosts::carried`).
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
    /// Incremental candidate engine: derive each node's candidate list
    /// from its parent's by delta enumeration, serve repeated §3.3.2
    /// bound computations from the bound memo, and restrict fresh bound
    /// computations to the affected-query subset. A pure perf knob:
    /// reports, traces, and checkpoints are byte-identical to the
    /// from-scratch reference engine (`false`), which recomputes
    /// everything and revalidates the memo against it in debug builds.
    pub incremental: bool,
    /// Derived what-if costing: key the cost cache by each query's
    /// *relevant* structure subset (so relaxations of structures a
    /// query cannot use are guaranteed hits), and serve keyed misses by
    /// re-pricing a cached plan whose access paths survive. A pure perf
    /// knob with the same contract as `incremental`: reports, traces,
    /// and checkpoints are byte-identical to the reference mode
    /// (`false`), which performs a real optimizer call behind every
    /// derived serve and uses its answer; debug builds additionally
    /// assert bitwise agreement on every serve in both modes.
    pub derived_costs: bool,
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
    /// Unlike the perf knobs above, the budget changes logical
    /// decisions, so it is part of the options signature.
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
            cost_cache: true,
            validate_bounds: false,
            deadline_ms: None,
            stop: None,
            fault_plan: None,
            max_faults: 16,
            incremental: true,
            derived_costs: true,
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
    /// What-if cost-cache hits/misses over the whole session (both 0
    /// when the cache is disabled).
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Candidate scores computed fresh at a node (a §3.3.2 bound memo
    /// probe, hit or miss). Mode-invariant: the reference engine counts
    /// the same probes it recomputes from scratch.
    pub candidates_generated: u64,
    /// Candidate scores inherited from the parent node's scored list
    /// without touching the memo.
    pub candidates_reused: u64,
    /// §3.3.2 bound memo hits/misses over the whole session (the
    /// reference engine maintains — and in debug builds revalidates —
    /// the identical memo, so these match across modes).
    pub bound_memo_hits: u64,
    pub bound_memo_misses: u64,
    /// Optimizer calls the derived-costing layer made unnecessary:
    /// relevant-subset cache hits beyond the coarse per-table
    /// projection, plus plan-reuse serves. Mode-invariant: with
    /// `--no-derived-costs` every such serve is still classified (and
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
    /// Cached `config.signature128()` (bound memo key component; wide
    /// so signature collisions cannot alias two configurations' memo
    /// rows).
    sig: u128,
    /// The CBV table of `config`, carried from the parent's.
    view_costs: ViewBuildCosts,
    /// Interned signatures of transformations already tried from this
    /// node.
    tried: HashSet<u64>,
    /// Full candidate list in enumeration order with interned
    /// signatures; kept only in incremental mode, where children derive
    /// theirs from it by delta enumeration.
    cands: Option<std::sync::Arc<Vec<(Transformation, u64)>>>,
    /// Net structural change from the parent (incremental mode only;
    /// `None` for the root, which enumerates from scratch).
    delta: Option<StepDelta>,
    /// Candidate transformations with their §3.3 estimates, computed
    /// once per node ("we can also cache results from one iteration to
    /// the next", §3.4).
    scored: Option<Vec<ScoredCandidate>>,
    exhausted: bool,
    pruned: bool,
    /// Approximate tier only: midpoint of the node's [lower, upper]
    /// cost bounds when its evaluation was bound-served instead of
    /// re-optimized. [`pick_node`] ranks by it, so freed budget flows
    /// to the most uncertain (widest-gap) regions of the pool. `None`
    /// for exactly evaluated nodes and always in the exact tier.
    est_cost: Option<f64>,
}

/// The cost [`pick_node`] ranks a node by: the bound midpoint for an
/// estimated node, the evaluated cost otherwise.
fn node_cost(n: &Node) -> f64 {
    n.est_cost.unwrap_or(n.eval.total_cost)
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

    /// Structures this transformation depends on still being present.
    fn still_valid(&self, config: &Configuration) -> bool {
        match &self.transformation {
            Transformation::MergeIndexes { i1, i2 } | Transformation::SplitIndexes { i1, i2 } => {
                config.contains_index(i1) && config.contains_index(i2)
            }
            Transformation::PrefixIndex { index, .. } | Transformation::RemoveIndex { index } => {
                config.contains_index(index)
            }
            Transformation::PromoteToClustered { index } => {
                config.contains_index(index) && config.clustered_index_on(index.table).is_none()
            }
            Transformation::MergeViews { v1, v2 } => {
                config.view(*v1).is_some() && config.view(*v2).is_some()
            }
            Transformation::RemoveView { view } => config.view(*view).is_some(),
        }
    }
}

/// Derive a candidate's `(ΔT, ΔS)` estimates from a memoized bound
/// entry; `None` when the transformation does not apply or is not a
/// relaxation in any useful sense.
fn score_from_entry(entry: &BoundMemoEntry, eval: &EvalResult) -> Option<(f64, f64)> {
    if !entry.applies {
        return None;
    }
    let delta_t = entry.bound - eval.total_cost;
    if entry.delta_s <= 0.0 && delta_t >= 0.0 {
        return None;
    }
    Some((delta_t, entry.delta_s))
}

/// Price one transformation against a node's configuration/eval with
/// the §3.3.2 bound, routed through the bound memo. Returns the entry
/// and whether the memo already held it.
///
/// Both engines maintain the identical memo: on a hit the incremental
/// engine serves the entry (skipping describe + bound entirely; in debug
/// builds it still recomputes and asserts bitwise agreement), while the
/// reference engine recomputes from scratch, asserts the entry matches,
/// and uses the fresh value — so a memo bug cannot change reference
/// output, and any divergence trips an assertion. Fresh computations in
/// incremental mode use the affected-query-restricted bound, which is
/// bit-identical to the full one (see `cost_upper_bound_restricted`);
/// the full side of that debug assertion prices view rebuilds from
/// scratch, so it is also the oracle for the carried `view_costs`.
///
/// `memoize: false` bypasses the memo entirely (no lookup, no insert):
/// the memo key assumes one canonical evaluation per configuration,
/// which the approximate tier breaks — a served evaluation is a
/// trajectory-dependent upper bound, so the same configuration can
/// legitimately carry different per-query costs. Bounds are pure CPU
/// (no optimizer calls), so the budgeted tier just recomputes.
#[allow(clippy::too_many_arguments)]
fn memoized_bound(
    db: &Database,
    opt: &Optimizer<'_>,
    workload: &Workload,
    eval: &EvalResult,
    config: &Configuration,
    cfg_key: MemoCfg,
    t: &Transformation,
    sig: u64,
    view_costs: &ViewBuildCosts,
    memo: &BoundMemo,
    incremental: bool,
    memoize: bool,
) -> (BoundMemoEntry, bool) {
    let cached = if memoize {
        memo.lookup_keyed(sig, cfg_key)
    } else {
        None
    };
    let computed: Option<BoundMemoEntry> =
        if cached.is_none() || !incremental || cfg!(debug_assertions) {
            Some(match describe(t, config, db, opt) {
                None => BoundMemoEntry::inapplicable(),
                Some(delta) => {
                    let bound = if incremental {
                        let b = cost_upper_bound_restricted(
                            db,
                            &opt.opts.cost,
                            workload,
                            eval,
                            config,
                            &delta,
                            view_costs,
                        );
                        debug_assert_eq!(
                            b.to_bits(),
                            cost_upper_bound(
                                db,
                                &opt.opts.cost,
                                workload,
                                eval,
                                config,
                                &delta,
                                &ViewBuildCosts::new(),
                            )
                            .to_bits(),
                            "restricted bound diverged from the full bound for {t}"
                        );
                        b
                    } else {
                        cost_upper_bound(
                            db,
                            &opt.opts.cost,
                            workload,
                            eval,
                            config,
                            &delta,
                            view_costs,
                        )
                    };
                    BoundMemoEntry {
                        applies: true,
                        bound,
                        delta_s: delta.delta_bytes,
                    }
                }
            })
        } else {
            None
        };
    match (cached, computed) {
        (Some(entry), Some(fresh)) => {
            debug_assert!(
                fresh.bits_eq(&entry),
                "bound memo entry diverged from recomputation for {t}"
            );
            (if incremental { entry } else { fresh }, true)
        }
        (Some(entry), None) => (entry, true),
        (None, Some(fresh)) => {
            if memoize {
                memo.insert_keyed(sig, cfg_key, fresh);
            }
            (fresh, false)
        }
        (None, None) => unreachable!("missed entries are always computed"),
    }
}

/// The CBV table of a configuration one step away from `parent`'s: the
/// incremental engine carries every entry the step cannot have changed
/// (verified against a from-scratch computation under the bound
/// oracle); the reference engine starts every configuration empty.
#[allow(clippy::too_many_arguments)]
fn child_view_costs(
    db: &Database,
    opt: &Optimizer<'_>,
    options: &TunerOptions,
    parent: &ViewBuildCosts,
    child: &Configuration,
    removed_indexes: &[Index],
    removed_views: &[TableId],
    added_indexes: &[Index],
) -> ViewBuildCosts {
    if !options.incremental {
        return ViewBuildCosts::new();
    }
    let carried = parent.carried(child, removed_indexes, removed_views, added_indexes);
    if options.validate_bounds {
        carried.assert_matches_scratch(db, &opt.opts.cost, child);
    }
    carried
}

/// Run a tuning session (the paper's PTT).
pub fn tune(db: &Database, workload: &Workload, options: &TunerOptions) -> TuningReport {
    tune_traced(db, workload, options, None)
}

/// [`tune`] with an optional structured-event [`Tracer`]. Every event
/// is emitted from the driver thread at points the engine already
/// serializes, so for a fixed session the trace is byte-identical for
/// every `threads` value.
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

/// Receives `(iterations_completed, serialized_checkpoint)` from a
/// session; see [`SessionCtl::checkpoint_sink`].
pub type CheckpointSink<'a> = &'a dyn Fn(usize, &str);

/// Checkpoint/resume and tracing plumbing for [`tune_session`]. The
/// default (no tracer, no checkpointing, no resume) reproduces
/// [`tune`] exactly.
#[derive(Default, Clone, Copy)]
pub struct SessionCtl<'a> {
    /// Structured-event sink; see [`tune_traced`].
    pub tracer: Option<&'a Tracer>,
    /// Write a checkpoint every N completed iterations (0 = only when
    /// the session stops early). Meaningful only with a sink.
    pub checkpoint_every: usize,
    /// Receives `(iterations_completed, serialized_checkpoint)` on the
    /// cadence above and once more — with the last clean boundary —
    /// when the session stops early (deadline / SIGINT / fault limit).
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
}

/// Hash of every decision-relevant option plus the workload and
/// database identity, used to pair checkpoints with sessions. Excludes
/// knobs that cannot change the search trajectory: `threads` (the
/// engine is thread-count-invariant), `deadline_ms`, `stop`, and the
/// checkpoint cadence. `DefaultHasher` is stable only within one
/// build, which is exactly the checkpoint contract (same binary on
/// both sides).
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
    options.cost_cache.hash(&mut h);
    options.validate_bounds.hash(&mut h);
    // `optimizer_call_budget` is hashed — the asymmetry is deliberate:
    // the budget changes which evaluations really run and therefore
    // the search trajectory itself (the approximate tier), so a
    // budgeted checkpoint must never resume an unbudgeted session or
    // vice versa.
    options.optimizer_call_budget.hash(&mut h);
    // `incremental` and `derived_costs` are deliberately excluded:
    // every engine and costing mode produces byte-identical output, so
    // checkpoints are portable across all of them. The shared store
    // (`SessionCtl::shared_store`) is excluded for the same reason — it
    // only converts real invocations into bitwise-identical serves.
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

/// Record one contained fault: trace it, append it to the report, and
/// trip the fault-limit stop once the tolerance is exhausted.
fn record_fault(
    report: &mut TuningReport,
    tracer: Option<&Tracer>,
    token: &StopToken,
    max_faults: usize,
    iteration: usize,
    kind: FaultKind,
    detail: String,
) {
    pdt_trace::incr(tracer, "faults", 1);
    pdt_trace::emit(
        tracer,
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
    if report.faults.len() > max_faults {
        token.trip(StopReason::FaultLimit);
    }
}

/// Capture the resume state at a clean iteration boundary (the top of
/// the search loop, before any of the next iteration's work).
#[allow(clippy::too_many_arguments)]
fn capture_checkpoint(
    options_sig: u64,
    base_sig: u64,
    deployed: Option<(f64, f64)>,
    report: &TuningReport,
    rng: &StdRng,
    optimizer_calls: usize,
    budget_spent: u64,
    budget_skipped: u64,
    cache: Option<&CostCache>,
    memo: &BoundMemo,
    interner: &Interner,
    relevance: &RelevanceTable,
    tracer: Option<&Tracer>,
    search_span: Option<&pdt_trace::Span<'_>>,
    iteration_done: usize,
) -> Checkpoint {
    Checkpoint {
        options_sig,
        base_sig,
        deployed,
        initial_cost: report.initial_cost,
        optimal_cost: report.optimal_cost,
        iteration: iteration_done,
        rng_state: rng.state(),
        optimizer_calls,
        budget_spent,
        budget_skipped,
        cache_hits: cache.map_or(0, |c| c.hits()),
        cache_misses: cache.map_or(0, |c| c.misses()),
        bound_memo_hits: memo.hits(),
        bound_memo_misses: memo.misses(),
        derived: cache.map(|c| c.derived_counters()).unwrap_or_default(),
        best: report.best.as_ref().map(|b| (b.cost, b.size_bytes)),
        frontier_len: report.frontier.len(),
        faults: report.faults.clone(),
        cache: cache.map(|c| c.snapshot()).unwrap_or_default(),
        bound_memo: memo.snapshot(),
        interner: interner.snapshot(),
        relevance: relevance.rows().to_vec(),
        trace: tracer.map(|t| TraceCheckpoint {
            state: t.export_state(),
            open_span_seq: search_span.map_or(0, |s| s.events_at_open()),
        }),
    }
}

/// Verify a finished replay against its checkpoint. Everything the
/// replay regenerates must match bitwise; a mismatch means the
/// checkpoint does not belong to this session (or this build).
fn go_live_checks(
    report: &TuningReport,
    rng: &StdRng,
    budget_spent: u64,
    budget_skipped: u64,
    ck: &Checkpoint,
) -> Result<(), TuneError> {
    let best_matches = match (&report.best, ck.best) {
        (Some(b), Some((cost, size))) => {
            b.cost.to_bits() == cost.to_bits() && b.size_bytes.to_bits() == size.to_bits()
        }
        (None, None) => true,
        _ => false,
    };
    if rng.state() != ck.rng_state
        || report.iterations != ck.iteration
        || report.frontier.len() != ck.frontier_len
        || budget_spent != ck.budget_spent
        || budget_skipped != ck.budget_skipped
        || !best_matches
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
    let opt = Optimizer::new(db);
    let base = Configuration::base(db);
    let mut optimizer_calls = 0;

    // ---- approximate tier: what-if call budget ledger ---------------
    // Charged by worst-case affected-query counts (see
    // `affected_queries`), never by actual calls, so the ledger is a
    // pure function of the search trajectory: replay regenerates it
    // exactly and `go_live_checks` verifies it against the checkpoint.
    // Setup (base/optimal evaluation, instrumentation) and the final
    // validation re-pricing are budget-exempt.
    let budget = options.optimizer_call_budget;
    let mut budget_spent: u64 = 0;
    let mut budget_skipped: u64 = 0;

    // ---- anytime stop control ---------------------------------------
    let token = options.stop.clone().unwrap_or_default();
    let deadline = options
        .deadline_ms
        .map(|ms| start + Duration::from_millis(ms));
    let stop_check = StopCheck::new(&token, deadline);

    // ---- resume validation ------------------------------------------
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
    let resume_at = ctl.resume.map_or(0, |ck| ck.iteration);
    // Replay mode: until the session catches up to `resume_at`
    // completed iterations, it re-executes the checkpointed prefix with
    // tracing silenced, stop control disabled, and fault/checkpoint
    // recording suppressed — determinism makes the redo exact, and the
    // restored cache makes it cheap. `trc` is the tracer the current
    // mode exposes.
    let mut live = ctl.resume.is_none();
    let trc = |live: bool| if live { ctl.tracer } else { None };

    let threads = resolve_threads(options.threads);
    // Both stores are sharded for the actual worker count; their dense
    // ids are session-local, checkpoints serialize portable signatures.
    let cache = options.cost_cache.then(|| match ctl.resume {
        Some(ck) => ck.restore_cache(threads),
        None => CostCache::with_workers(threads),
    });
    // Bound memo + interner exist in both engines (the reference engine
    // maintains and revalidates them without depending on them), so
    // checkpoints stay portable across `incremental` settings. Replay
    // against a restored memo flips original misses into hits; the
    // counters are overwritten with the authoritative values at go-live.
    let memo = match ctl.resume {
        Some(ck) => ck.restore_memo(threads),
        None => BoundMemo::new(threads),
    };
    let interner = match ctl.resume {
        Some(ck) => ck.restore_interner(),
        None => Interner::new(),
    };
    // Per-query relevant-structure sets, derived once from the
    // workload text (see [`crate::derived`]); every evaluation in the
    // session keys the cost cache through them. A resumed session
    // validates the checkpointed table against this rebuilt one.
    let relevance = RelevanceTable::build(db, workload);
    if let Some(ck) = ctl.resume {
        if ck.relevance != *relevance.rows() {
            return Err(TuneError::Checkpoint(
                "checkpointed relevance table does not match the workload's".to_string(),
            ));
        }
    }
    // Session-portable content signatures for the shared store,
    // computed once: the schema namespace and one signature per
    // workload statement. Like `incremental`/`derived_costs`, the
    // shared store is excluded from `options_signature` — it is pure
    // perf, so checkpoints stay portable across shared-store settings.
    let query_sigs: Vec<u128> = if ctl.shared_store.is_some() {
        workload
            .entries
            .iter()
            .map(|e| crate::shared::statement_signature(&e.statement))
            .collect()
    } else {
        Vec::new()
    };
    let shared = ctl.shared_store.map(|store| crate::shared::SharedCtx {
        store,
        schema_sig: crate::shared::schema_signature(db),
        query_sigs: &query_sigs,
    });
    // Setup never takes a stop or a fault site: the report is only
    // valid with real initial/optimal costs, and injection coordinates
    // are keyed to search sites.
    let ctx = EvalCtx {
        threads,
        cache: cache.as_ref(),
        tracer: trc(live),
        stop: None,
        faults: None,
        relevance: Some(&relevance),
        derived: options.derived_costs,
        shared,
        ..EvalCtx::default()
    };

    if let Some(t) = trc(live) {
        // The thread count is deliberately NOT recorded in the event
        // stream: the trace must be byte-identical for every
        // `--threads` value (it lives in the report/CLI output).
        let mut fields: Vec<(&'static str, pdt_trace::Value)> = vec![
            ("entries", workload.entries.len().into()),
            ("validate_bounds", options.validate_bounds.into()),
        ];
        if let Some(b) = options.space_budget {
            fields.push(("budget", b.into()));
        }
        t.emit("session.begin", fields);
    }
    pdt_trace::incr(trc(live), "workload.deduped", workload.deduped as u64);
    let setup_span = trc(live).map(|t| t.span("setup"));

    // Initial (base) evaluation.
    let base_eval = evaluate_full_ctx(db, &opt, &base, workload, ctx);
    optimizer_calls += base_eval.optimizer_calls;
    let initial_cost = base_eval.total_cost;
    let initial_size = base.size_bytes(db);

    // Lines 1–2: the optimal configuration via instrumentation.
    let (optimal_config, sink) =
        gather_optimal_configuration_traced(db, workload, options.with_views, trc(live));
    let select_count = workload
        .entries
        .iter()
        .filter(|e| e.select.is_some())
        .count();
    optimizer_calls += select_count;
    pdt_trace::incr(trc(live), "optimizer.calls", select_count as u64);
    pdt_trace::emit(
        trc(live),
        "instrument.done",
        vec![
            ("index_requests", sink.index_requests.into()),
            ("view_requests", sink.view_requests.into()),
            ("indexes", sink.created_indexes.into()),
            ("views", sink.created_views.into()),
        ],
    );
    let opt_eval = evaluate_full_ctx(db, &opt, &optimal_config, workload, ctx);
    optimizer_calls += opt_eval.optimizer_calls;
    let optimal_cost = opt_eval.total_cost;
    let optimal_size = optimal_config.size_bytes(db);

    // §3.6 lower bound: optimal SELECT components + shells under base.
    let lower_bound_cost = {
        let base_schema = pdt_physical::PhysicalSchema::new(db, &base);
        workload
            .entries
            .iter()
            .zip(&opt_eval.per_query)
            .map(|(e, q)| {
                let shell = e
                    .shell
                    .as_ref()
                    .map(|s| crate::eval::shell_cost(&opt.opts.cost, &base_schema, s))
                    .unwrap_or(0.0);
                e.weight * (q.select_cost + shell)
            })
            .sum()
    };

    // Warm start: price the currently-deployed configuration once,
    // budget-exempt, like the other setup references. It seeds the
    // pool below and backs the final safety floor.
    let deployed_eval = options.deployed.as_ref().map(|d| {
        let e = evaluate_full_ctx(db, &opt, d, workload, ctx);
        optimizer_calls += e.optimizer_calls;
        let size = d.size_bytes(db);
        pdt_trace::emit(
            trc(live),
            "warm.deployed",
            vec![("cost", e.total_cost.into()), ("size", size.into())],
        );
        (e, size)
    });
    let deployed_baseline = deployed_eval.as_ref().map(|(e, s)| (e.total_cost, *s));
    drop(setup_span);

    // A resumed session must reproduce the checkpointed setup exactly
    // (bitwise): anything else means the database or cost model changed
    // in a way the signatures could not see.
    if let Some(ck) = ctl.resume {
        let deployed_matches = match (deployed_baseline, ck.deployed) {
            (Some((c1, s1)), Some((c2, s2))) => {
                c1.to_bits() == c2.to_bits() && s1.to_bits() == s2.to_bits()
            }
            (None, None) => true,
            _ => false,
        };
        if ck.initial_cost.to_bits() != initial_cost.to_bits()
            || ck.optimal_cost.to_bits() != optimal_cost.to_bits()
            || !deployed_matches
        {
            return Err(TuneError::Checkpoint(
                "replayed setup diverged from the checkpoint (initial/optimal/deployed \
                 cost mismatch)"
                    .to_string(),
            ));
        }
    }

    let has_updates = workload.has_updates();
    let fits = |size: f64| options.space_budget.is_none_or(|b| size <= b);

    let mut report = TuningReport {
        initial_cost,
        initial_size,
        optimal_cost,
        optimal_size,
        optimal_config: optimal_config.clone(),
        lower_bound_cost,
        best: None,
        frontier: vec![FrontierPoint {
            iteration: 0,
            size_bytes: optimal_size,
            cost: optimal_cost,
            fits: fits(optimal_size),
        }],
        iterations: 0,
        stop_reason: StopReason::IterationBudget,
        optimizer_calls,
        cache_hits: 0,
        cache_misses: 0,
        candidates_generated: 0,
        candidates_reused: 0,
        bound_memo_hits: 0,
        bound_memo_misses: 0,
        optimizer_calls_avoided: 0,
        plan_cache_hits: 0,
        plan_cache_misses: 0,
        plan_cache_repriced: 0,
        optimizer_calls_skipped: 0,
        budget_remaining: budget.map(|b| b as u64),
        workload_deduped: workload.deduped as u64,
        candidate_counts: Vec::new(),
        request_counts: (sink.index_requests, sink.view_requests),
        bound_checks: 0,
        bound_violations: Vec::new(),
        // Faults recorded before the resume boundary are restored, not
        // re-recorded: replay suppresses fault accounting.
        faults: ctl.resume.map(|ck| ck.faults.clone()).unwrap_or_default(),
        trace: None,
        elapsed: start.elapsed(),
    };

    // Unconstrained SELECT-only sessions are done (§2: "if the space
    // taken by this configuration is below the maximum allowed and the
    // workload contains no updates, we can return [it]").
    if options.space_budget.is_none() && !has_updates {
        if ctl.resume.is_some() {
            // No checkpoint is ever written before the first search
            // iteration, so none can legitimately resume a session that
            // finishes without entering the loop.
            return Err(TuneError::Checkpoint(
                "checkpoint resumes a session that finishes before its first \
                 search iteration"
                    .to_string(),
            ));
        }
        report.stop_reason = StopReason::Converged;
        report.best = Some(BestConfig {
            config: optimal_config,
            cost: optimal_cost,
            size_bytes: optimal_size,
        });
        // No search loop ran: the whole budget is left over.
        if let Some(remaining) = report.budget_remaining {
            pdt_trace::incr(ctl.tracer, "budget.remaining", remaining);
        }
        if let Some(c) = &cache {
            report.cache_hits = c.hits();
            report.cache_misses = c.misses();
            let d = c.derived_counters();
            report.optimizer_calls_avoided = d.avoided;
            report.plan_cache_hits = d.plan_hits;
            report.plan_cache_misses = d.plan_misses;
            report.plan_cache_repriced = d.repriced;
        }
        pdt_trace::emit(
            ctl.tracer,
            "session.end",
            vec![
                ("iterations", report.iterations.into()),
                ("optimizer_calls", report.optimizer_calls.into()),
                ("stop_reason", report.stop_reason.label().into()),
            ],
        );
        report.trace = ctl.tracer.map(|t| t.summary());
        report.elapsed = start.elapsed();
        return Ok(report);
    }

    // Line 3: the configuration pool.
    let mut rng = StdRng::seed_from_u64(options.seed);

    // Pruning pre-pass (§3.5 "multiple transformations per iteration"):
    // greedily apply every *removal* whose cost upper bound does not
    // increase the expected cost — unused structures always qualify,
    // and under update workloads so do structures whose maintenance
    // outweighs their benefit. This collapses the long prefix of
    // trivially-good relaxations into one step.
    let prepass_span = trc(live).map(|t| t.span("prepass"));
    let prepass_faults = options
        .fault_plan
        .as_ref()
        .map(|p| FaultSite::new(p, SITE_PREPASS, 0));
    // Accumulated interval gap of every bound-served pre-pass step: the
    // root's true cost lies in `[total - gap, total]`, so the root is
    // ranked by that interval's midpoint below.
    let mut prepass_served_gap = 0.0f64;
    let (root_config, root_eval, root_sig, root_view_costs) = {
        let mut cfg = optimal_config;
        let mut eval = opt_eval;
        // Hashed once per pre-pass configuration: the bound memo key of
        // this step and, after the last step, the root node's.
        let mut cfg_sig = cfg.signature128();
        let mut view_costs = ViewBuildCosts::new();
        for _ in 0..cfg.structure_count() {
            if live && stop_check.is_stopped() {
                // Stopped before the first iteration: the root stays
                // wherever the pre-pass got to; the loop prologue turns
                // the trip into the final stop reason.
                break;
            }
            let removals: Vec<(Transformation, u64)> = {
                let _hot = pdt_trace::hot_span(trc(live), pdt_trace::HotPhase::Candidates);
                // The pre-pass only ever scores removals: enumerate
                // them directly instead of building (and discarding)
                // the full merge/split/prefix list (debug builds assert
                // the sequence equals the filtered full enumeration).
                removal_candidates(&cfg, &base)
                    .into_iter()
                    .map(|t| {
                        let sig = interner.transform_sig(&t);
                        (t, sig)
                    })
                    .collect()
            };
            // Score every removal on the worker pool (through the bound
            // memo), then fold the results in candidate order: the fold
            // keeps the sequential tie-break (first strict minimum
            // wins) and accumulates memo hit/miss counts in input
            // order, so the pre-pass is identical for any thread count.
            let cfg_key = memo.cfg_key(cfg_sig);
            let pricing_hot = pdt_trace::hot_span(trc(live), pdt_trace::HotPhase::Pricing);
            let scored = par_map(threads, &removals, |_, (t, sig)| {
                let (entry, hit) = memoized_bound(
                    db,
                    &opt,
                    workload,
                    &eval,
                    &cfg,
                    cfg_key,
                    t,
                    *sig,
                    &view_costs,
                    &memo,
                    options.incremental,
                    budget.is_none(),
                );
                (score_from_entry(&entry, &eval), hit)
            });
            drop(pricing_hot);
            let (mut memo_hits, mut memo_misses) = (0u64, 0u64);
            // (ΔT, position in `removals`) of the running minimum.
            let mut best_removal: Option<(f64, usize)> = None;
            for (at, (score, hit)) in scored.into_iter().enumerate() {
                if hit {
                    memo_hits += 1;
                } else {
                    memo_misses += 1;
                }
                if let Some((delta_t, _)) = score {
                    if delta_t <= 1e-9 && best_removal.is_none_or(|(d, _)| delta_t < d) {
                        best_removal = Some((delta_t, at));
                    }
                }
            }
            memo.record_traced(memo_hits, memo_misses, trc(live));
            let Some((delta_t, at)) = best_removal else {
                break;
            };
            let transformation = &removals[at].0;
            // Materialize only the winner: the workers priced deltas
            // and built no configuration.
            let Some(applied) = apply(transformation, &cfg, db, &opt) else {
                break;
            };
            // Approximate tier: a pre-pass winner's §3.3.2 bound proved
            // the removal does not increase cost (`delta_t <= 1e-9`),
            // but the bound's *select* side can still be pessimistic
            // (its net non-positivity may lean on shell savings). Serve
            // the bound estimate only while its interval gap is too
            // small to change any downstream relaxation decision;
            // otherwise this removal is decision-relevant and spends
            // real budget like a main-loop step.
            let served = if budget.is_some() {
                let (est_eval, gap) = bound_served_eval(
                    db,
                    &opt.opts.cost,
                    workload,
                    &eval,
                    &cfg,
                    &applied,
                    &view_costs,
                );
                if gap <= GAP_TOL * eval.total_cost {
                    let affected = affected_queries(&eval, &applied);
                    budget_skipped += affected;
                    prepass_served_gap += gap;
                    pdt_trace::incr(trc(live), "optimizer.calls_skipped", affected);
                    pdt_trace::emit(
                        trc(live),
                        "budget.skip",
                        vec![
                            ("phase", "prepass".into()),
                            ("transformation", transformation.to_string().into()),
                            ("affected", affected.into()),
                            ("gap", gap.into()),
                            ("upper", est_eval.total_cost.into()),
                        ],
                    );
                    Some(est_eval)
                } else {
                    None
                }
            } else {
                None
            };
            let new_eval = if let Some(est_eval) = served {
                est_eval
            } else {
                if let Some(b) = budget {
                    // Decision-relevant removal: charge the worst case
                    // up front; an unaffordable spend ends the pre-pass
                    // anytime-style (the loop prologue turns the trip
                    // into the final stop reason).
                    let affected = affected_queries(&eval, &applied);
                    if budget_spent + affected > b as u64 {
                        pdt_trace::emit(
                            trc(live),
                            "budget.exhausted",
                            vec![
                                ("phase", "prepass".into()),
                                ("transformation", transformation.to_string().into()),
                                ("affected", affected.into()),
                                ("remaining", (b as u64 - budget_spent).into()),
                            ],
                        );
                        token.trip(StopReason::CallBudget);
                        break;
                    }
                    budget_spent += affected;
                }
                let pre_ctx = EvalCtx {
                    stop: live.then_some(&stop_check),
                    faults: prepass_faults,
                    ..ctx
                };
                let eval_hot = pdt_trace::hot_span(trc(live), pdt_trace::HotPhase::Eval);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    evaluate_incremental_ctx(
                        db,
                        &opt,
                        &applied.config,
                        workload,
                        &eval,
                        &applied.removed_indexes,
                        &applied.removed_views,
                        None,
                        pre_ctx,
                    )
                }));
                drop(eval_hot);
                match result {
                    Ok(Some(e)) => e,
                    // No shortcut limit is set, so `None` means stopped.
                    Ok(None) => break,
                    Err(payload) => {
                        // Contain the fault and keep the prefix already
                        // built: the pre-pass is an optimization, not a
                        // correctness step.
                        if live {
                            record_fault(
                                &mut report,
                                trc(live),
                                &token,
                                options.max_faults,
                                0,
                                FaultKind::EvalPanic,
                                payload_str(payload.as_ref()),
                            );
                        }
                        break;
                    }
                }
            };
            optimizer_calls += new_eval.optimizer_calls;
            if live {
                for q in &new_eval.poison_repairs {
                    record_fault(
                        &mut report,
                        trc(live),
                        &token,
                        options.max_faults,
                        0,
                        FaultKind::CachePoison,
                        format!("repaired poisoned cache cost for query {q}"),
                    );
                }
            }
            pdt_trace::emit(
                trc(live),
                "prepass.remove",
                vec![
                    ("transformation", transformation.to_string().into()),
                    ("delta_t", delta_t.into()),
                    ("cost", new_eval.total_cost.into()),
                ],
            );
            pdt_trace::incr(trc(live), "prepass.removed", 1);
            if options.validate_bounds {
                // The kept (delta_t, applied) pair was scored against
                // the *current* (cfg, eval), so the bound is fresh.
                let bound = eval.total_cost + delta_t;
                let actual = new_eval.total_cost;
                oracle_check(&mut report, trc(live), 0, transformation, bound, actual);
            }
            view_costs = child_view_costs(
                db,
                &opt,
                options,
                &view_costs,
                &applied.config,
                &applied.removed_indexes,
                &applied.removed_views,
                &applied.added_indexes,
            );
            cfg = applied.config;
            cfg_sig = cfg.signature128();
            eval = new_eval;
        }
        (cfg, eval, cfg_sig, view_costs)
    };
    drop(prepass_span);
    let root_size = root_config.size_bytes(db);

    // A bound-served pre-pass leaves the root's costs upper-bounded
    // rather than evaluated; rank it by its interval midpoint like any
    // other estimated node. (Its `best` entry below, if it fits, is a
    // sound upper bound — the final validation re-prices it exactly.)
    let root_est = (budget.is_some() && prepass_served_gap > 0.0)
        .then_some(root_eval.total_cost - 0.5 * prepass_served_gap);
    let mut nodes: Vec<Node> = vec![Node {
        size: root_size,
        config: root_config,
        eval: root_eval,
        parent: None,
        last_relax_penalty: 0.0,
        sig: root_sig,
        view_costs: root_view_costs,
        tried: HashSet::new(),
        cands: None,
        delta: None,
        scored: None,
        exhausted: false,
        pruned: false,
        est_cost: root_est,
    }];
    if fits(nodes[0].size) {
        report.best = Some(BestConfig {
            config: nodes[0].config.clone(),
            cost: nodes[0].eval.total_cost,
            size_bytes: nodes[0].size,
        });
    }
    let mut last_created = 0usize;
    // Warm start: the deployed configuration joins the pool as a second
    // relaxable start point (parentless, like the root) and may claim
    // `best` immediately; the safety floor at the end re-asserts it
    // against whatever the search finds. Not a frontier point — the
    // frontier records accepted relaxation steps only.
    //
    // Staleness gate: if the current workload prices the deployed
    // configuration worse than the structure-free initial configuration,
    // drift has invalidated its structures — relaxing from it only
    // drains the iteration budget (and its out-of-space views defeat
    // derived costing, so every step is a real invocation). It then
    // serves as the safety floor only, not as a start point.
    if let Some((deval, dsize)) = &deployed_eval {
        let d = options.deployed.as_ref().expect("eval implies a config");
        if fits(*dsize)
            && report
                .best
                .as_ref()
                .is_none_or(|b| deval.total_cost < b.cost)
        {
            report.best = Some(BestConfig {
                config: d.clone(),
                cost: deval.total_cost,
                size_bytes: *dsize,
            });
        }
        if deval.total_cost < initial_cost {
            let dep_sig = d.signature128();
            nodes.push(Node {
                config: d.clone(),
                eval: deval.clone(),
                size: *dsize,
                parent: None,
                last_relax_penalty: 0.0,
                sig: dep_sig,
                view_costs: ViewBuildCosts::new(),
                tried: HashSet::new(),
                cands: None,
                delta: None,
                scored: None,
                exhausted: false,
                pruned: false,
                est_cost: None,
            });
            last_created = nodes.len() - 1;
        }
    }
    // Search-phase scoring counters. Replay regenerates them exactly:
    // `generated` counts memo probes regardless of hit/miss outcome
    // (which a restored memo flips), and `reused` never touches the
    // memo, so neither needs a checkpoint field.
    let mut candidates_generated = 0u64;
    let mut candidates_reused = 0u64;

    // Line 4: the main loop.
    let mut search_span = trc(live).map(|t| t.span("search"));
    let mut pending: Option<(usize, Checkpoint)> = None;
    let mut last_saved = resume_at;
    // Flat hot path: SoA scratch for the §3.6 skyline scan, reused
    // across iterations instead of reallocating a snapshot per pass.
    let mut skyline_scratch = SkylineScratch::default();
    for iteration in 1..=options.max_iterations {
        // ---- resilience prologue (never part of the replayed prefix)
        if !live && iteration > resume_at {
            // The replay has caught up: verify fidelity, restore the
            // state replay cannot regenerate (counters are overwritten
            // because replay evaluations hit the restored cache instead
            // of calling the optimizer), and go live.
            let ck = ctl.resume.expect("replay mode implies a checkpoint");
            go_live_checks(&report, &rng, budget_spent, budget_skipped, ck)?;
            optimizer_calls = ck.optimizer_calls;
            if let Some(c) = &cache {
                c.set_counters(ck.cache_hits, ck.cache_misses);
                c.set_derived_counters(ck.derived);
            }
            // Replay against the restored memo turns original misses
            // into hits (candidate generated/reused locals replay
            // exactly — `generated` counts probes regardless of
            // outcome — so only the memo counters need restoring).
            memo.set_counters(ck.bound_memo_hits, ck.bound_memo_misses);
            if let (Some(t), Some(tc)) = (ctl.tracer, &ck.trace) {
                t.restore_state(tc.state.clone());
                search_span = Some(t.resume_span("search", tc.open_span_seq));
            }
            live = true;
        }
        if live {
            if let Some(reason) = stop_check.stopped() {
                report.stop_reason = reason;
                // Save the newest clean boundary. `pending` was
                // captured before the previous iteration ran, so it is
                // valid even if that iteration was truncated mid-
                // evaluation by this very stop.
                if let (Some(sink), Some((done, ck))) = (ctl.checkpoint_sink, pending.take()) {
                    if done > last_saved {
                        sink(done, &ck.to_json_string());
                    }
                }
                break;
            }
            if let Some(sink) = ctl.checkpoint_sink {
                // Reaching this point un-stopped proves iterations
                // `1..=iteration-1` completed without stop interference
                // (the token is sticky): capture them as the new resume
                // boundary.
                let done = iteration - 1;
                if done >= 1 {
                    let ck = capture_checkpoint(
                        opts_sig,
                        base_sig,
                        deployed_baseline,
                        &report,
                        &rng,
                        optimizer_calls,
                        budget_spent,
                        budget_skipped,
                        cache.as_ref(),
                        &memo,
                        &interner,
                        &relevance,
                        ctl.tracer,
                        search_span.as_ref(),
                        done,
                    );
                    if ctl.checkpoint_every > 0
                        && done % ctl.checkpoint_every == 0
                        && done > last_saved
                    {
                        sink(done, &ck.to_json_string());
                        last_saved = done;
                    }
                    pending = Some((done, ck));
                }
            }
        }

        report.iterations = iteration;
        pdt_trace::incr(trc(live), "search.iterations", 1);
        pdt_trace::emit(
            trc(live),
            "iter.begin",
            vec![
                ("iteration", iteration.into()),
                ("nodes", nodes.len().into()),
            ],
        );
        // ---- line 5: pick a configuration ---------------------------
        let Some(node_idx) = pick_node(&nodes, last_created, options, has_updates, &fits) else {
            report.stop_reason = StopReason::Converged;
            break;
        };

        // ---- line 6: pick and apply a transformation ----------------
        // Score candidates once per node; child nodes inherit the
        // still-valid scores from their parent and only score the
        // transformations their own structures introduced ("we can
        // also cache results from one iteration to the next, so the
        // amortized number of transformations that we evaluate per
        // iteration is rather small", §3.4).
        if nodes[node_idx].scored.is_none() {
            // Candidate enumeration: the incremental engine derives the
            // list from the parent's by delta enumeration (identical to
            // a from-scratch run — asserted in debug builds); the
            // reference engine, and the root in both, enumerate from
            // scratch.
            let parent_cands = nodes[node_idx].parent.and_then(|p| nodes[p].cands.clone());
            let cands_hot = pdt_trace::hot_span(trc(live), pdt_trace::HotPhase::Candidates);
            let cands: std::sync::Arc<Vec<(Transformation, u64)>> =
                match (options.incremental, parent_cands, &nodes[node_idx].delta) {
                    (true, Some(pc), Some(d)) => std::sync::Arc::new(candidates_delta(
                        &nodes[node_idx].config,
                        &base,
                        &pc,
                        d,
                        &interner,
                    )),
                    _ => std::sync::Arc::new(
                        candidates(&nodes[node_idx].config, &base)
                            .into_iter()
                            .map(|t| {
                                let sig = interner.transform_sig(&t);
                                (t, sig)
                            })
                            .collect(),
                    ),
                };
            drop(cands_hot);
            // The parent's still-valid scores, keyed by transformation
            // signature and borrowed: one clone per reused candidate,
            // at reuse time.
            let inherited: std::collections::HashMap<u64, &ScoredCandidate> = nodes[node_idx]
                .parent
                .iter()
                .flat_map(|&p| nodes[p].scored.iter().flatten())
                .filter(|c| c.still_valid(&nodes[node_idx].config))
                .map(|c| (c.sig, c))
                .collect();
            // Fresh candidates are scored on the worker pool (through
            // the bound memo); results come back in candidate order and
            // the reuse/hit/miss tallies are folded in that order, so
            // the scored list (and everything downstream) is
            // thread-count-invariant.
            const REUSED: u8 = 0;
            const MEMO_HIT: u8 = 1;
            const MEMO_MISS: u8 = 2;
            let node = &nodes[node_idx];
            let node_key = memo.cfg_key(node.sig);
            let pricing_hot = pdt_trace::hot_span(trc(live), pdt_trace::HotPhase::Pricing);
            let results: Vec<(Option<ScoredCandidate>, u8)> =
                par_map(threads, &cands, |_, (t, sig)| {
                    if let Some(&c) = inherited.get(sig) {
                        (Some(c.clone()), REUSED)
                    } else {
                        let (entry, hit) = memoized_bound(
                            db,
                            &opt,
                            workload,
                            &node.eval,
                            &node.config,
                            node_key,
                            t,
                            *sig,
                            &node.view_costs,
                            &memo,
                            options.incremental,
                            budget.is_none(),
                        );
                        let score = score_from_entry(&entry, &node.eval);
                        let sc = score.map(|(delta_t, delta_s)| ScoredCandidate {
                            delta_t,
                            delta_s,
                            sig: *sig,
                            transformation: t.clone(),
                        });
                        (sc, if hit { MEMO_HIT } else { MEMO_MISS })
                    }
                });
            drop(pricing_hot);
            let (mut reused, mut memo_hits, mut memo_misses) = (0u64, 0u64, 0u64);
            let mut scored: Vec<ScoredCandidate> = Vec::new();
            for (sc, kind) in results {
                match kind {
                    REUSED => reused += 1,
                    MEMO_HIT => memo_hits += 1,
                    _ => memo_misses += 1,
                }
                if let Some(c) = sc {
                    scored.push(c);
                }
            }
            candidates_reused += reused;
            candidates_generated += memo_hits + memo_misses;
            pdt_trace::incr(trc(live), "candidates.reused", reused);
            pdt_trace::incr(trc(live), "candidates.generated", memo_hits + memo_misses);
            memo.record_traced(memo_hits, memo_misses, trc(live));
            pdt_trace::incr(trc(live), "search.scored", scored.len() as u64);
            if let Some(t) = trc(live) {
                for c in &scored {
                    t.emit(
                        "search.candidate",
                        vec![
                            ("transformation", c.transformation.to_string().into()),
                            ("delta_t", c.delta_t.into()),
                            ("delta_s", c.delta_s.into()),
                        ],
                    );
                }
            }
            if options.incremental {
                nodes[node_idx].cands = Some(cands);
            }
            nodes[node_idx].scored = Some(scored);
        }

        let over_budget = options
            .space_budget
            .map_or(0.0, |b| (nodes[node_idx].size - b).max(0.0));
        let mut open: Vec<&ScoredCandidate> = nodes[node_idx]
            .scored
            .as_ref()
            .expect("scored above")
            .iter()
            .filter(|c| !nodes[node_idx].tried.contains(&c.sig))
            .collect();
        // §3.6 skyline: with updates, drop dominated candidates (worse
        // ΔT and worse ΔS than another candidate).
        if has_updates && options.skyline_filter && open.len() > 1 {
            let _hot = pdt_trace::hot_span(trc(live), pdt_trace::HotPhase::Skyline);
            // SoA scan over reused scratch: one dominated flag per
            // open candidate, in input order.
            let flags = skyline_scratch
                .dominated_flags(open.iter().map(|c| (c.delta_t, c.delta_s)))
                .to_vec();
            if let Some(t) = trc(live) {
                for (c, _) in open.iter().zip(&flags).filter(|(_, &d)| d) {
                    t.emit(
                        "skyline.drop",
                        vec![
                            ("transformation", c.transformation.to_string().into()),
                            ("delta_t", c.delta_t.into()),
                            ("delta_s", c.delta_s.into()),
                        ],
                    );
                }
            }
            let mut i = 0;
            open.retain(|_| {
                let keep = !flags[i];
                i += 1;
                keep
            });
        }
        report.candidate_counts.push(open.len());
        pdt_trace::incr(trc(live), "search.open", open.len() as u64);
        if open.is_empty() {
            nodes[node_idx].exhausted = true;
            continue;
        }
        let chosen = match options.transformation_choice {
            TransformationChoice::Penalty => open
                .iter()
                .min_by(|a, b| a.penalty(over_budget).total_cmp(&b.penalty(over_budget)))
                .expect("non-empty"),
            TransformationChoice::MinCostIncrease => open
                .iter()
                .min_by(|a, b| a.delta_t.total_cmp(&b.delta_t))
                .expect("non-empty"),
            TransformationChoice::Random => open[rng.gen_range(0..open.len())],
        };
        let delta_s = chosen.delta_s;
        let delta_t_est = chosen.delta_t;
        let penalty_est = chosen.penalty(over_budget);
        let chosen_sig = chosen.sig;
        let transformation = chosen.transformation.clone();
        pdt_trace::emit(
            trc(live),
            "search.choose",
            vec![
                ("iteration", iteration.into()),
                ("transformation", transformation.to_string().into()),
                ("delta_t", delta_t_est.into()),
                ("delta_s", delta_s.into()),
                ("penalty", penalty_est.into()),
            ],
        );
        nodes[node_idx].tried.insert(chosen_sig);
        let Some(applied) = apply(&transformation, &nodes[node_idx].config, db, &opt) else {
            pdt_trace::emit(
                trc(live),
                "step.skip",
                vec![
                    ("transformation", transformation.to_string().into()),
                    ("reason", "inapplicable".into()),
                ],
            );
            continue;
        };

        // ---- approximate tier: spend, serve, or stop -----------------
        // The gap-driven reallocation policy. The child's true cost
        // lies in `[upper - gap, upper]`, where `upper` is the §3.3.2
        // bound total and `gap` is its select-side replacement slack
        // (see `bound_served_eval`; the lower end is sound because a
        // relaxation never makes an affected query's re-optimized plan
        // cheaper than its current one, and shells are closed-form
        // exact). A *negligible-gap* child — no point of its interval
        // can move a relaxation decision by more than `GAP_TOL` of the
        // parent's cost — is served the estimate for free; it steers
        // (and may claim `best` at its sound upper bound) exactly as
        // the evaluation it replaces would have. A child with a
        // material gap is decision-relevant: only a real evaluation can
        // settle it, so it spends budget, charged at its worst case.
        // Freed budget thus flows to the highest-uncertainty
        // candidates, and `pick_node` keeps steering by interval
        // midpoints in between.
        if let Some(b) = budget {
            let affected = affected_queries(&nodes[node_idx].eval, &applied);
            let (est_eval, gap) = bound_served_eval(
                db,
                &opt.opts.cost,
                workload,
                &nodes[node_idx].eval,
                &nodes[node_idx].config,
                &applied,
                &nodes[node_idx].view_costs,
            );
            let new_size = applied.config.size_bytes(db);
            if gap <= GAP_TOL * nodes[node_idx].eval.total_cost {
                // Serve the estimate: synthesize the child's evaluation
                // from the bound (its total is bit-identical to
                // `cost_upper_bound`), pool it, and let it claim `best`
                // at its upper bound — a sound claim the final
                // validation re-prices exactly.
                let upper = est_eval.total_cost;
                let estimate = upper - 0.5 * gap;
                budget_skipped += affected;
                pdt_trace::incr(trc(live), "optimizer.calls_skipped", affected);
                pdt_trace::emit(
                    trc(live),
                    "budget.skip",
                    vec![
                        ("phase", "search".into()),
                        ("iteration", iteration.into()),
                        ("transformation", transformation.to_string().into()),
                        ("affected", affected.into()),
                        ("gap", gap.into()),
                        ("upper", upper.into()),
                    ],
                );
                let actual_penalty =
                    (upper - nodes[node_idx].eval.total_cost) / delta_s.abs().max(1.0);
                nodes[node_idx].last_relax_penalty =
                    nodes[node_idx].last_relax_penalty.max(actual_penalty);
                pdt_trace::emit(
                    trc(live),
                    "search.step",
                    vec![
                        ("iteration", iteration.into()),
                        ("transformation", transformation.to_string().into()),
                        ("parent_size", nodes[node_idx].size.into()),
                        ("size", new_size.into()),
                        ("cost", upper.into()),
                        ("fits", fits(new_size).into()),
                    ],
                );
                report.frontier.push(FrontierPoint {
                    iteration,
                    size_bytes: new_size,
                    cost: upper,
                    fits: fits(new_size),
                });
                let AppliedTransform { config, delta } = applied;
                if fits(new_size) && report.best.as_ref().is_none_or(|b| upper < b.cost) {
                    pdt_trace::emit(
                        trc(live),
                        "search.best",
                        vec![
                            ("iteration", iteration.into()),
                            ("cost", upper.into()),
                            ("size", new_size.into()),
                        ],
                    );
                    report.best = Some(BestConfig {
                        config: config.clone(),
                        cost: upper,
                        size_bytes: new_size,
                    });
                }
                let child_sig = config.signature128();
                let view_costs = child_view_costs(
                    db,
                    &opt,
                    options,
                    &nodes[node_idx].view_costs,
                    &config,
                    &delta.removed_indexes,
                    &delta.removed_views,
                    &delta.added_indexes,
                );
                nodes.push(Node {
                    config,
                    eval: est_eval,
                    size: new_size,
                    parent: Some(node_idx),
                    last_relax_penalty: 0.0,
                    sig: child_sig,
                    view_costs,
                    tried: HashSet::new(),
                    cands: None,
                    delta: options.incremental.then(|| StepDelta {
                        added_views: delta.added_views(),
                        removed_indexes: delta.removed_indexes,
                        removed_views: delta.removed_views,
                        added_indexes: delta.added_indexes,
                    }),
                    scored: None,
                    exhausted: false,
                    pruned: false,
                    est_cost: Some(estimate),
                });
                last_created = nodes.len() - 1;
                continue;
            }
            // Decision-relevant: a real evaluation, charged up front at
            // its worst case. An unaffordable spend ends the session
            // anytime-style — the loop prologue (or the post-loop
            // reflection) turns the trip into the final stop reason and
            // saves the pending checkpoint, exactly like a deadline.
            if budget_spent + affected > b as u64 {
                pdt_trace::emit(
                    trc(live),
                    "budget.exhausted",
                    vec![
                        ("phase", "search".into()),
                        ("iteration", iteration.into()),
                        ("transformation", transformation.to_string().into()),
                        ("affected", affected.into()),
                        ("remaining", (b as u64 - budget_spent).into()),
                    ],
                );
                token.trip(StopReason::CallBudget);
                continue;
            }
            budget_spent += affected;
        }

        // ---- lines 7–9: evaluate, pool, update best ------------------
        let shortcut_limit = if options.shortcut_evaluation {
            report.best.as_ref().map(|b| b.cost)
        } else {
            None
        };
        // Under the bound oracle the evaluation must run to completion
        // so the §3.3.2 bound can be compared against the true cost;
        // the §3.5 skip is re-imposed on the finished result below, so
        // search decisions are identical either way.
        let eval_limit = if options.validate_bounds {
            None
        } else {
            shortcut_limit
        };
        let step_ctx = EvalCtx {
            stop: live.then_some(&stop_check),
            faults: options
                .fault_plan
                .as_ref()
                .map(|p| FaultSite::new(p, SITE_CANDIDATE, iteration as u64)),
            tracer: trc(live),
            ..ctx
        };
        let eval_hot = pdt_trace::hot_span(trc(live), pdt_trace::HotPhase::Eval);
        let eval = match catch_unwind(AssertUnwindSafe(|| {
            evaluate_incremental_ctx(
                db,
                &opt,
                &applied.config,
                workload,
                &nodes[node_idx].eval,
                &applied.removed_indexes,
                &applied.removed_views,
                eval_limit,
                step_ctx,
            )
        })) {
            Ok(e) => e,
            Err(payload) => {
                // Fault isolation: the candidate is already in `tried`,
                // so containing the panic just skips it; the search
                // carries on with the rest of the pool.
                if live {
                    record_fault(
                        &mut report,
                        trc(live),
                        &token,
                        options.max_faults,
                        iteration,
                        FaultKind::EvalPanic,
                        payload_str(payload.as_ref()),
                    );
                }
                continue;
            }
        };
        drop(eval_hot);
        let Some(eval) = eval else {
            if live && stop_check.is_stopped() {
                // Stop-truncated evaluation, not a shortcut skip: the
                // loop prologue will observe the tripped token and end
                // the session from the last clean boundary.
                continue;
            }
            // §3.5 shortcut: this configuration (and its descendants)
            // cannot beat the best — do not pool it.
            pdt_trace::emit(
                trc(live),
                "step.skip",
                vec![
                    ("transformation", transformation.to_string().into()),
                    ("reason", "shortcut".into()),
                ],
            );
            continue;
        };
        optimizer_calls += eval.optimizer_calls;
        if live {
            for q in &eval.poison_repairs {
                record_fault(
                    &mut report,
                    trc(live),
                    &token,
                    options.max_faults,
                    iteration,
                    FaultKind::CachePoison,
                    format!("repaired poisoned cache cost for query {q}"),
                );
            }
        }

        if options.validate_bounds {
            // Inherited candidate scores can be stale with respect to
            // the node they are applied from, so the oracle recomputes
            // the bound fresh against this node's plans — through the
            // bound memo: a candidate freshly scored at this node was
            // already priced against this exact (transformation,
            // configuration) context, so the rescore is a guaranteed
            // hit and the same context is never priced twice.
            let node = &nodes[node_idx];
            let (entry, hit) = memoized_bound(
                db,
                &opt,
                workload,
                &node.eval,
                &node.config,
                memo.cfg_key(node.sig),
                &transformation,
                chosen_sig,
                &node.view_costs,
                &memo,
                options.incremental,
                true,
            );
            let bound = entry.bound;
            memo.record_traced(u64::from(hit), u64::from(!hit), trc(live));
            oracle_check(
                &mut report,
                trc(live),
                iteration,
                &transformation,
                bound,
                eval.total_cost,
            );
            if shortcut_limit.is_some_and(|l| eval.total_cost > l) {
                pdt_trace::emit(
                    trc(live),
                    "step.skip",
                    vec![
                        ("transformation", transformation.to_string().into()),
                        ("reason", "shortcut".into()),
                    ],
                );
                continue;
            }
        }

        // Pull the step delta out of `applied` before consuming its
        // configuration; shrink removals below fold into it so the
        // child's delta describes the *net* structural change.
        let AppliedTransform {
            mut config,
            delta: step,
        } = applied;
        let step_added_vw = step.added_views();
        let TransformDelta {
            removed_indexes: mut step_removed_ix,
            removed_views: step_removed_vw,
            added_indexes: mut step_added_ix,
            ..
        } = step;
        let mut eval = eval;
        if options.shrink_unused {
            let (unused_ix, _) = unused_structures(&config, &base, &eval);
            if !unused_ix.is_empty() {
                // Build the shrunk configuration aside and commit only
                // on a successful re-evaluation: a panic or a stop mid-
                // shrink keeps the consistent unshrunk pair.
                let mut shrunk = config.clone();
                for i in &unused_ix {
                    shrunk.remove_index(i);
                }
                let shrink_ctx = EvalCtx {
                    stop: live.then_some(&stop_check),
                    faults: options
                        .fault_plan
                        .as_ref()
                        .map(|p| FaultSite::new(p, SITE_SHRINK, iteration as u64)),
                    tracer: trc(live),
                    ..ctx
                };
                // Unused indexes carry no plans, but shells change.
                let shrink_hot = pdt_trace::hot_span(trc(live), pdt_trace::HotPhase::Eval);
                let shrink_result = catch_unwind(AssertUnwindSafe(|| {
                    evaluate_incremental_ctx(
                        db,
                        &opt,
                        &shrunk,
                        workload,
                        &eval,
                        &[],
                        &[],
                        None,
                        shrink_ctx,
                    )
                }));
                drop(shrink_hot);
                match shrink_result {
                    Ok(Some(e2)) => {
                        if live {
                            for q in &e2.poison_repairs {
                                record_fault(
                                    &mut report,
                                    trc(live),
                                    &token,
                                    options.max_faults,
                                    iteration,
                                    FaultKind::CachePoison,
                                    format!("repaired poisoned cache cost for query {q}"),
                                );
                            }
                        }
                        config = shrunk;
                        eval = e2;
                        if options.incremental {
                            // A shrunk-away addition cancels out; a
                            // shrunk pre-existing structure counts as
                            // removed.
                            for i in &unused_ix {
                                if let Some(pos) = step_added_ix.iter().position(|a| a == i) {
                                    step_added_ix.remove(pos);
                                } else {
                                    step_removed_ix.push(i.clone());
                                }
                            }
                        }
                    }
                    // Stopped mid-shrink: keep the unshrunk pair.
                    Ok(None) => {}
                    Err(payload) => {
                        if live {
                            record_fault(
                                &mut report,
                                trc(live),
                                &token,
                                options.max_faults,
                                iteration,
                                FaultKind::EvalPanic,
                                payload_str(payload.as_ref()),
                            );
                        }
                    }
                }
            }
        }

        let size = config.size_bytes(db);
        let cost = eval.total_cost;
        let actual_penalty = (cost - nodes[node_idx].eval.total_cost) / delta_s.abs().max(1.0);
        nodes[node_idx].last_relax_penalty = nodes[node_idx].last_relax_penalty.max(actual_penalty);

        pdt_trace::emit(
            trc(live),
            "search.step",
            vec![
                ("iteration", iteration.into()),
                ("transformation", transformation.to_string().into()),
                ("parent_size", nodes[node_idx].size.into()),
                ("size", size.into()),
                ("cost", cost.into()),
                ("fits", fits(size).into()),
            ],
        );
        report.frontier.push(FrontierPoint {
            iteration,
            size_bytes: size,
            cost,
            fits: fits(size),
        });
        if fits(size) && report.best.as_ref().is_none_or(|b| cost < b.cost) {
            pdt_trace::emit(
                trc(live),
                "search.best",
                vec![
                    ("iteration", iteration.into()),
                    ("cost", cost.into()),
                    ("size", size.into()),
                ],
            );
            report.best = Some(BestConfig {
                config: config.clone(),
                cost,
                size_bytes: size,
            });
        }
        let child_sig = config.signature128();
        let view_costs = child_view_costs(
            db,
            &opt,
            options,
            &nodes[node_idx].view_costs,
            &config,
            &step_removed_ix,
            &step_removed_vw,
            &step_added_ix,
        );
        nodes.push(Node {
            config,
            eval,
            size,
            parent: Some(node_idx),
            last_relax_penalty: 0.0,
            sig: child_sig,
            view_costs,
            tried: HashSet::new(),
            cands: None,
            delta: options.incremental.then_some(StepDelta {
                removed_indexes: step_removed_ix,
                removed_views: step_removed_vw,
                added_indexes: step_added_ix,
                added_views: step_added_vw,
            }),
            scored: None,
            exhausted: false,
            pruned: false,
            est_cost: None,
        });
        last_created = nodes.len() - 1;
    }
    // A session resumed at (or past) its iteration budget replays the
    // whole loop without ever crossing `resume_at`: go live now so the
    // final report carries the checkpointed counters and trace.
    if !live {
        let ck = ctl.resume.expect("replay mode implies a checkpoint");
        go_live_checks(&report, &rng, budget_spent, budget_skipped, ck)?;
        optimizer_calls = ck.optimizer_calls;
        if let Some(c) = &cache {
            c.set_counters(ck.cache_hits, ck.cache_misses);
            c.set_derived_counters(ck.derived);
        }
        memo.set_counters(ck.bound_memo_hits, ck.bound_memo_misses);
        if let (Some(t), Some(tc)) = (ctl.tracer, &ck.trace) {
            t.restore_state(tc.state.clone());
            search_span = Some(t.resume_span("search", tc.open_span_seq));
        }
    }
    drop(search_span);

    // The loop can also end with the token tripped mid-final-iteration
    // (no later loop top observes it): reflect the true reason. A trip
    // never downgrades a natural end — `token.get()` is `None` unless
    // something actually tripped.
    if let Some(reason) = token.get() {
        report.stop_reason = reason;
    }

    // ---- approximate tier: exact validation of the recommendation ---
    // Bound-served ancestors leave upper-bound slack in the costs an
    // incremental evaluation carries for unaffected queries, so the
    // recommendation is re-priced exactly — the DBA-bandits "validate"
    // step, budget-exempt — before the base-configuration safety floor
    // below, which then guarantees the budgeted result is never worse
    // than the deployed configuration. The exact tier never enters
    // this block.
    if budget.is_some() {
        if let Some(best) = &report.best {
            pdt_trace::emit(
                ctl.tracer,
                "budget.validate.begin",
                vec![("cost", best.cost.into())],
            );
            let vctx = EvalCtx {
                tracer: ctl.tracer,
                ..ctx
            };
            let veval = evaluate_full_ctx(db, &opt, &best.config, workload, vctx);
            optimizer_calls += veval.optimizer_calls;
            let cost = veval.total_cost;
            pdt_trace::emit(
                ctl.tracer,
                "budget.validate.end",
                vec![("cost", cost.into())],
            );
            report.best.as_mut().expect("checked above").cost = cost;
        }
    }

    // Recommending nothing (the base configuration) is always an
    // option: never return a configuration worse than the current one.
    let base_size = base.size_bytes(db);
    if fits(base_size) && report.best.as_ref().is_none_or(|b| b.cost > initial_cost) {
        report.best = Some(BestConfig {
            config: base,
            cost: initial_cost,
            size_bytes: base_size,
        });
    }

    // Warm-start safety floor (DBA-bandits): never recommend a
    // configuration that prices worse than the one currently deployed.
    if let Some((deval, dsize)) = &deployed_eval {
        if fits(*dsize)
            && report
                .best
                .as_ref()
                .is_none_or(|b| b.cost > deval.total_cost)
        {
            report.best = Some(BestConfig {
                config: options.deployed.clone().expect("eval implies a config"),
                cost: deval.total_cost,
                size_bytes: *dsize,
            });
        }
    }

    report.optimizer_calls = optimizer_calls;
    if let Some(c) = &cache {
        report.cache_hits = c.hits();
        report.cache_misses = c.misses();
        let d = c.derived_counters();
        report.optimizer_calls_avoided = d.avoided;
        report.plan_cache_hits = d.plan_hits;
        report.plan_cache_misses = d.plan_misses;
        report.plan_cache_repriced = d.repriced;
    }
    report.candidates_generated = candidates_generated;
    report.candidates_reused = candidates_reused;
    report.bound_memo_hits = memo.hits();
    report.bound_memo_misses = memo.misses();
    report.optimizer_calls_skipped = budget_skipped;
    report.budget_remaining = budget.map(|b| (b as u64).saturating_sub(budget_spent));
    if let Some(remaining) = report.budget_remaining {
        pdt_trace::incr(ctl.tracer, "budget.remaining", remaining);
    }
    pdt_trace::emit(
        ctl.tracer,
        "session.end",
        vec![
            ("iterations", report.iterations.into()),
            ("optimizer_calls", report.optimizer_calls.into()),
            ("stop_reason", report.stop_reason.label().into()),
        ],
    );
    report.trace = ctl.tracer.map(|t| t.summary());
    report.elapsed = start.elapsed();
    Ok(report)
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

/// Line 5 of Fig. 5 — the §3.4 heuristic (as amended by §3.6):
///
/// 1. keep relaxing the last configuration while it does not fit (or,
///    with updates, while it improved on its parent);
/// 2. otherwise revisit the chain and "correct" the step with the
///    largest actual penalty;
/// 3. otherwise the cheapest configuration with available work.
fn pick_node(
    nodes: &[Node],
    last_created: usize,
    options: &TunerOptions,
    has_updates: bool,
    fits: &dyn Fn(f64) -> bool,
) -> Option<usize> {
    let usable = |n: &Node| !n.exhausted && !n.pruned;

    if options.config_choice == ConfigChoice::MinCost {
        return nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| usable(n))
            .min_by(|a, b| node_cost(a.1).total_cmp(&node_cost(b.1)))
            .map(|(i, _)| i);
    }

    // Step 1.
    let last = &nodes[last_created];
    let improved_parent = has_updates
        && last
            .parent
            .map(|p| node_cost(last) < node_cost(&nodes[p]))
            .unwrap_or(false);
    if usable(last) && (!fits(last.size) || improved_parent) {
        return Some(last_created);
    }

    // Step 2: the chain from the last configuration to the root; pick
    // the largest-actual-penalty node with remaining work.
    let mut chain = Vec::new();
    let mut cursor = Some(last_created);
    while let Some(i) = cursor {
        chain.push(i);
        cursor = nodes[i].parent;
    }
    if let Some(&i) = chain
        .iter()
        .filter(|&&i| usable(&nodes[i]) && nodes[i].last_relax_penalty > 0.0)
        .max_by(|&&a, &&b| {
            nodes[a]
                .last_relax_penalty
                .total_cmp(&nodes[b].last_relax_penalty)
        })
    {
        return Some(i);
    }

    // Step 3.
    nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| usable(n))
        .min_by(|a, b| node_cost(a.1).total_cmp(&node_cost(b.1)))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
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
                threads: 8,
                deadline_ms: Some(5),
                stop: Some(StopToken::new()),
                incremental: false,
                derived_costs: false,
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
    fn incremental_engine_matches_reference_byte_for_byte() {
        // The tentpole invariant in unit form: the incremental engine
        // (delta enumeration + bound memo) must produce the same report
        // and the same JSONL trace as the from-scratch reference, and
        // the counters must be mode-invariant too.
        let db = test_db();
        let w = workload(&db, SELECTS);
        let free = tune(&db, &w, &TunerOptions::default());
        // A reachable budget (shallow search) and an unreachable one
        // (deepest chain, maximal delta enumeration and score reuse).
        for budget in [free.optimal_size * 0.4, 1.0] {
            let run = |incremental: bool| {
                let tracer = Tracer::new();
                let mut r = tune_traced(
                    &db,
                    &w,
                    &TunerOptions {
                        space_budget: Some(budget),
                        max_iterations: 60,
                        validate_bounds: true,
                        incremental,
                        ..Default::default()
                    },
                    Some(&tracer),
                );
                r.elapsed = std::time::Duration::ZERO;
                if let Some(t) = &mut r.trace {
                    for p in &mut t.phases {
                        p.elapsed = std::time::Duration::ZERO;
                    }
                    t.hot_phases.clear();
                }
                (format!("{r:#?}"), tracer.to_jsonl())
            };
            let (ra, ta) = run(true);
            let (rb, tb) = run(false);
            assert_eq!(ta, tb, "traces must be byte-identical across modes");
            assert_eq!(ra, rb, "reports must be identical across modes");
        }
    }

    #[test]
    fn derived_costing_matches_reference_byte_for_byte() {
        // Same contract as the incremental engine: flipping
        // `derived_costs` may change which serves are backed by real
        // optimizer invocations, but never the report, counters, or
        // trace bytes.
        let db = test_db();
        let w = workload(&db, SELECTS);
        let free = tune(&db, &w, &TunerOptions::default());
        for budget in [free.optimal_size * 0.4, 1.0] {
            let run = |derived_costs: bool| {
                let tracer = Tracer::new();
                let mut r = tune_traced(
                    &db,
                    &w,
                    &TunerOptions {
                        space_budget: Some(budget),
                        max_iterations: 60,
                        derived_costs,
                        ..Default::default()
                    },
                    Some(&tracer),
                );
                r.elapsed = std::time::Duration::ZERO;
                if let Some(t) = &mut r.trace {
                    for p in &mut t.phases {
                        p.elapsed = std::time::Duration::ZERO;
                    }
                    t.hot_phases.clear();
                }
                (format!("{r:#?}"), tracer.to_jsonl())
            };
            let (ra, ta) = run(true);
            let (rb, tb) = run(false);
            assert_eq!(ta, tb, "traces must be byte-identical across modes");
            assert_eq!(ra, rb, "reports must be identical across modes");
        }
    }

    #[test]
    fn bound_memo_eliminates_duplicate_pricing() {
        // The validate_bounds rescore prices the chosen transformation
        // against a configuration the scoring pass already priced, so
        // with the memo in the loop every accepted step is a hit: the
        // same (transformation, configuration) pair is never priced
        // twice.
        let db = test_db();
        // An unreachable budget forces the deepest possible relaxation
        // chain ("keep relaxing the last configuration while it does
        // not fit"), so child nodes are scored every step and inherit
        // their parents' still-valid candidate scores.
        let w = workload(&db, SELECTS);
        let report = tune(
            &db,
            &w,
            &TunerOptions {
                space_budget: Some(1.0),
                max_iterations: 80,
                validate_bounds: true,
                ..Default::default()
            },
        );
        assert!(report.iterations > 0, "search must take steps");
        // Every memo hit is a (transformation, configuration) pair that
        // would have been priced a second time without the memo — the
        // rescore of a candidate freshly scored at its own node is the
        // guaranteed source of such hits.
        assert!(
            report.bound_memo_hits > 0,
            "the validate_bounds rescore must hit the memo for freshly scored candidates"
        );
        assert!(report.bound_memo_misses > 0);
        assert!(report.candidates_generated > 0);
        assert!(
            report.candidates_reused > 0,
            "child nodes must inherit scored candidates from their parents"
        );
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
