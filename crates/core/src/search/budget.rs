//! The approximate tier's call budget (§14 of DESIGN.md): what one
//! evaluation can cost at worst, the tolerance under which a bound-served
//! estimate replaces it, and the ledger that settles each quote.

#![deny(clippy::too_many_lines)]

use crate::eval::EvalResult;
use crate::transform::{TransformDelta, Transformation};
use pdt_trace::Tracer;

/// Worst-case real optimizer invocations an incremental re-evaluation
/// after `applied` can make: one per query whose previous plan used a
/// removed structure (the `needs_reopt` rule in `eval.rs`). The
/// approximate tier charges its call budget by this count rather than
/// by actual calls — actual calls depend on cache state, which differs
/// between a live run and a checkpoint replay (the restored cache
/// answers replayed questions for free), while the affected count is a
/// pure function of the search trajectory. `real calls <= charged`
/// always holds.
pub(super) fn affected_queries(prev: &EvalResult, delta: &TransformDelta) -> u64 {
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

/// The approximate tier's what-if call-budget ledger.
///
/// Charged by worst-case affected-query counts (see
/// [`affected_queries`]), never by actual calls, so the ledger is a
/// pure function of the search trajectory: replay regenerates it
/// exactly and go-live verifies it against the checkpoint.
/// Setup (base/optimal evaluation, instrumentation) and the final
/// validation re-pricing are budget-exempt.
pub(super) struct CallLedger {
    /// `None` is the exact (unlimited) tier.
    budget: Option<u64>,
    pub(super) spent: u64,
    /// Worst-case invocations served from the bound instead.
    pub(super) skipped: u64,
}

/// One candidate evaluation put to the ledger: what running it would
/// cost at worst, and the bound-served estimate that could replace it
/// (the child's true cost lies in `[upper - gap, upper]`, see
/// `bound_served_eval`).
pub(super) struct Quote<'q> {
    pub(super) transformation: &'q Transformation,
    pub(super) affected: u64,
    pub(super) gap: f64,
    pub(super) upper: f64,
    /// The parent's evaluated cost, which `GAP_TOL` is a fraction of.
    pub(super) parent_cost: f64,
}

/// The ledger's answer to a [`Quote`].
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Settled {
    /// Negligible gap: use the estimate, for free.
    Served,
    /// Decision-relevant: run the evaluation; its worst case is charged.
    Charged,
    /// Decision-relevant but unaffordable: nothing was charged, and the
    /// caller trips [`StopReason::CallBudget`](crate::stop::StopReason::CallBudget).
    Exhausted,
}

impl CallLedger {
    pub(super) fn new(budget: Option<usize>) -> CallLedger {
        CallLedger {
            budget: budget.map(|b| b as u64),
            spent: 0,
            skipped: 0,
        }
    }

    /// Whether the session runs the approximate tier at all; the exact
    /// tier never computes an estimate to quote.
    pub(super) fn limited(&self) -> bool {
        self.budget.is_some()
    }

    pub(super) fn remaining(&self) -> Option<u64> {
        self.budget.map(|b| b.saturating_sub(self.spent))
    }

    /// The gap-driven serve-or-spend decision for one evaluation in
    /// `phase` (search-phase events also carry the iteration). A
    /// negligible-gap estimate is served; anything else is charged up
    /// front at its worst case, and an unaffordable charge ends the
    /// phase anytime-style.
    pub(super) fn settle(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::tests::{test_db, workload, SELECTS};
    use crate::search::{tune, TunerOptions};
    use crate::transform::candidates;
    use pdt_physical::Configuration;

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
}
