//! The §3.5 pruning pre-pass, which relaxes the optimal configuration
//! into the pool's root before the penalty-guided loop, carrying each
//! removal's score ingredients from step to step.

#![deny(clippy::too_many_lines)]

use super::budget::Settled;
use super::env::{Contained, EvalJob};
use super::{oracle_check, Node, Session};
use crate::bound::{RemovalScore, RemovalStep};
use crate::fault::SITE_PREPASS;
use crate::stop::StopReason;
use crate::transform::{apply, inherits, removal_candidates, Transformation};

impl Session<'_> {
    /// Pruning pre-pass (§3.5 "multiple transformations per
    /// iteration"): greedily apply every *removal* whose cost upper
    /// bound does not increase the expected cost — unused structures
    /// always qualify, and under update workloads so do structures
    /// whose maintenance outweighs their benefit. This collapses the
    /// long prefix of trivially-good relaxations into one step: it
    /// relaxes the optimal configuration in place into the pool's root.
    pub(super) fn prepass(&mut self, mut root: Node) -> Node {
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
            // Score the removals in candidate order: the first strict
            // minimum wins. No removal scores below the floor, so one
            // that reaches it wins outright and the rest go unscored,
            // their carried ingredients untouched.
            let pricing_hot = pdt_trace::hot_span(tracer, pdt_trace::HotPhase::Pricing);
            let node_terms = root.bound_node().terms(env.workload);
            let floor = root.bound_node().removal_floor(env.workload, &node_terms);
            // (ΔT, position in `removals`) of the running minimum.
            let mut best_removal: Option<(f64, usize)> = None;
            for (at, (t, carried)) in removals.iter_mut().enumerate() {
                let Some((delta_t, _)) = env.removal_score(&root, &node_terms, t, carried) else {
                    continue;
                };
                if delta_t <= 1e-9 && best_removal.is_none_or(|(d, _)| delta_t < d) {
                    best_removal = Some((delta_t, at));
                    if floor == Some(delta_t) {
                        break;
                    }
                }
            }
            drop(pricing_hot);
            if let Some((floor, at)) =
                best_removal.filter(|&(d, _)| cx.checks() && floor == Some(d))
            {
                env.assert_floor(&root, &removals[at + 1..], floor);
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
            if let Some(t) = tracer {
                t.emit(
                    "prepass.remove",
                    vec![
                        ("transformation", transformation.to_string().into()),
                        ("delta_t", delta_t.into()),
                        ("cost", new_eval.total_cost.into()),
                    ],
                );
            }
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
}
