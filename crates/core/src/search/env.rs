//! What a session reads but never reassigns: its inputs, the optimizer
//! and the stores ([`Env`]), the §3.3 scores read off them, and the one
//! contained evaluation every search phase runs through.

#![deny(clippy::too_many_lines)]

use super::budget::{affected_queries, Quote};
use super::options::{
    options_signature, BestConfig, Reference, SessionCtl, TunerOptions, TuningReport,
};
use super::{Node, ReplayGate};
use crate::bound::{bound_served_eval, estimates, node_bound, RemovalScore, ViewBuildCosts};
use crate::cache::CostCache;
use crate::derived::RelevanceTable;
use crate::error::TuneError;
use crate::eval::{evaluate_entries, Change, EvalCtx, EvalResult, PreparedStatements, ShellTable};
use crate::fault::{FaultKind, FaultSite};
use crate::node::FactCtx;
use crate::transform::{describe, AppliedTransform, TransformDelta, Transformation};
use crate::workload::Workload;
use pdt_catalog::{Database, TableId};
use pdt_opt::Optimizer;
use pdt_physical::{Configuration, Index};
use pdt_trace::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a session reads but never reassigns: its inputs, the optimizer
/// and the stores (interior-mutable, so scoring can fill them through a
/// shared borrow).
pub(super) struct Env<'a> {
    pub(super) db: &'a Database,
    pub(super) workload: &'a Workload,
    pub(super) options: &'a TunerOptions,
    pub(super) opt: Optimizer<'a>,
    pub(super) base: Configuration,
    pub(super) has_updates: bool,
    /// `false` only under [`Reference::Candidates`]: node facts and
    /// bounds are then recomputed from scratch instead of derived.
    incremental: bool,
    /// `false` only under [`Reference::Costs`]; see [`EvalCtx::derived`].
    derived: bool,
    /// Checkpoints serialize its portable signatures.
    pub(super) cache: CostCache,
    /// Per-query relevant-structure sets, derived once from the
    /// workload text (see [`crate::derived`]); every evaluation in the
    /// session keys the cost cache through them.
    pub(super) relevance: RelevanceTable,
    /// Session-portable content signatures for the shared store,
    /// computed once: the store with its schema namespace, and one
    /// signature per workload statement. The shared store is excluded
    /// from `options_signature` — it is pure perf, so checkpoints stay
    /// portable across shared-store settings.
    shared: Option<(&'a crate::shared::SharedInvocationStore, u128)>,
    query_sigs: Vec<u128>,
    /// Each statement's configuration-independent plan-search facts,
    /// prepared by the §2 pass or on its first real what-if call. Kept
    /// here, off the workload, so `options_signature` never sees it.
    pub(super) prepared: PreparedStatements,
    /// Checkpoint identity: see [`options_signature`] and
    /// [`Checkpoint::check_identity`]. Only a resume check and the
    /// checkpoint records read them, so a session with neither leaves
    /// them at zero (the options signature formats the whole workload).
    pub(super) opts_sig: u64,
    pub(super) base_sig: u64,
}

impl<'a> Env<'a> {
    /// Resolve the inputs and build the stores — restored from
    /// `ctl.resume` when the session resumes, after checking that the
    /// checkpoint belongs to this session.
    pub(super) fn new(
        db: &'a Database,
        workload: &'a Workload,
        options: &'a TunerOptions,
        ctl: &SessionCtl<'a>,
    ) -> Result<Env<'a>, TuneError> {
        let base = Configuration::base(db);
        let (opts_sig, base_sig) = if ctl.resume.is_some() || ctl.checkpoint_sink.is_some() {
            (options_signature(options, db, workload), base.signature())
        } else {
            (0, 0)
        };
        let relevance = RelevanceTable::build(db, workload);
        if let Some(ck) = ctl.resume {
            ck.check_identity(opts_sig, base_sig, ctl.tracer.is_some(), relevance.rows())?;
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
            prepared: PreparedStatements::new(workload),
            opts_sig,
            base_sig,
        })
    }

    /// The evaluation context every evaluation of the session starts
    /// from. It carries no stop and no fault site: setup and the final
    /// validation never take either (the report is only valid with real
    /// reference costs, and injection coordinates are keyed to search
    /// sites); [`Env::evaluate_contained`] adds both.
    pub(super) fn ctx<'c>(&'c self, tracer: Option<&'c Tracer>) -> EvalCtx<'c> {
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
            prepared: Some(&self.prepared),
            ..EvalCtx::default()
        }
    }

    /// What deriving node facts reads.
    pub(super) fn facts(&self) -> FactCtx<'_> {
        FactCtx {
            db: self.db,
            model: &self.opt.opts.cost,
            workload: self.workload,
            base: &self.base,
            from_scratch: !self.incremental,
            validate: self.options.validate_bounds,
        }
    }

    pub(super) fn fits(&self, size: f64) -> bool {
        self.options.space_budget.is_none_or(|b| size <= b)
    }

    /// Line 8: `config` becomes the recommendation if it fits and is
    /// strictly cheaper than the current one. Returns whether it did.
    pub(super) fn offer(
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
    pub(super) fn bound(&self, node: &Node, t: &Transformation) -> Option<(f64, f64)> {
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
    pub(super) fn removal_score(
        &self,
        node: &Node,
        node_terms: &[f64],
        t: &Transformation,
        carried: &mut Option<RemovalScore>,
    ) -> Option<(f64, f64)> {
        if !self.incremental {
            return self.bound(node, t);
        }
        let checks = self.facts().checks();
        match carried {
            Some(score) if checks => self.assert_carried(node, t, score),
            Some(_) => {}
            None => *carried = self.price_removal(node, t),
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

    /// The score ingredients of the removal `t` on `node`, priced from
    /// scratch; `None` when `t` does not apply.
    fn price_removal(&self, node: &Node, t: &Transformation) -> Option<RemovalScore> {
        let delta = describe(t, &node.config, self.db, &self.opt)?;
        let cost = &self.opt.opts.cost;
        Some(RemovalScore::price(
            self.db,
            cost,
            self.workload,
            &node.bound_node(),
            &delta,
        ))
    }

    /// Panic unless `carried`, the ingredients of the removal `t`
    /// carried to `node`, equal a fresh pricing bit for bit.
    fn assert_carried(&self, node: &Node, t: &Transformation, carried: &RemovalScore) {
        let fresh = self
            .price_removal(node, t)
            .expect("a carried removal still applies");
        carried.assert_matches(&fresh, t);
    }

    /// The check behind a pre-pass step that stopped scoring at its
    /// floor (DESIGN.md §13, "The floor"): every removal it left
    /// unscored, priced fresh by [`bound`](Self::bound), scores no less
    /// than `floor` — where the winner scored, so none beats it — and
    /// carried ingredients still equal a fresh pricing. Nothing carried
    /// is changed.
    pub(super) fn assert_floor(
        &self,
        node: &Node,
        unscored: &[(Transformation, Option<RemovalScore>)],
        floor: f64,
    ) {
        for (t, carried) in unscored {
            if let Some((delta_t, _)) = self.bound(node, t) {
                assert!(
                    delta_t >= floor || delta_t.is_nan(),
                    "unscored removal {t} scores {delta_t}, below the pre-pass floor {floor}"
                );
            }
            if let Some(score) = carried {
                self.assert_carried(node, t, score);
            }
        }
    }

    /// The §3.3.2 upper bound on the workload cost once `delta` is
    /// applied to `node`. The incremental engine uses the
    /// affected-query-restricted bound, which is bit-identical to the
    /// full one (see `cost_upper_bound_restricted`); the full side of
    /// that debug assertion prices view rebuilds from scratch, so it is
    /// also the oracle for the carried `view_costs`.
    pub(super) fn cost_bound(&self, node: &Node, delta: &TransformDelta) -> f64 {
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
    pub(super) fn quote<'q>(
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
    pub(super) fn evaluate_contained(
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
                Some((
                    job.prev,
                    Change::Removed {
                        indexes: job.removed_indexes,
                        views: job.removed_views,
                    },
                )),
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
pub(super) struct EvalJob<'j> {
    pub(super) site: u32,
    pub(super) iteration: usize,
    pub(super) config: &'j Configuration,
    pub(super) shells: &'j ShellTable,
    pub(super) prev: &'j EvalResult,
    pub(super) removed_indexes: &'j [Index],
    pub(super) removed_views: &'j [TableId],
    /// §3.5 shortcut limit; `None` runs to completion.
    pub(super) limit: Option<f64>,
}

/// How a contained evaluation ended.
pub(super) enum Contained {
    Done(EvalResult),
    /// §3.5: the accumulated cost passed the shortcut limit.
    Shortcut,
    /// A cooperative stop truncated it; nothing was committed.
    Stopped,
    /// It panicked; the fault is recorded (when live).
    Faulted,
}

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
