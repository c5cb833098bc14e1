//! What a search node knows about its configuration, and the one rule
//! that derives a child's from its parent's ("we can also cache results
//! from one iteration to the next", §3.4).
//!
//! Every fact is a pure function of the configuration and the session's
//! inputs, so [`NodeFacts::scratch`] computes it from nothing, and
//! [`NodeFacts::child`] derives a relaxed configuration's facts from its
//! parent's and the [`TransformDelta`] between them. A derived fact must
//! equal the scratch one exactly; [`NodeFacts::assert_matches_scratch`]
//! is the one check that says so, run at every derivation in debug
//! builds and under the bound oracle (`TunerOptions::validate_bounds`)
//! in any build. DESIGN.md §13 "Node facts" tabulates the rules.

use crate::bound::ViewBuildCosts;
use crate::eval::ShellTable;
use crate::transform::{
    candidates, candidates_delta, AppliedTransform, TransformDelta, Transformation,
};
use crate::workload::Workload;
use pdt_catalog::Database;
use pdt_opt::CostModel;
use pdt_physical::size::SizeModel;
use pdt_physical::{Configuration, PhysicalSchema};
use std::sync::Arc;

/// Candidate transformations in enumeration order, each with its
/// [`Transformation::sig`]. A transformation is shared, not owned: a
/// child inherits most of its parent's candidates, and its list and
/// its scored candidates hold the parent's handles.
pub type CandList = Vec<(Arc<Transformation>, u64)>;

/// What deriving a node's facts reads: the session's fixed inputs.
#[derive(Clone, Copy)]
pub struct FactCtx<'a> {
    pub db: &'a Database,
    pub model: &'a CostModel,
    pub workload: &'a Workload,
    /// The base configuration, whose structures no transformation
    /// touches.
    pub base: &'a Configuration,
    /// Derive nothing: every node's facts come from scratch (the
    /// `Reference::Candidates` oracle).
    pub from_scratch: bool,
    /// Check every derived fact against scratch in release builds too.
    pub validate: bool,
}

impl FactCtx<'_> {
    /// Whether derived facts are checked against scratch.
    pub(crate) fn checks(&self) -> bool {
        cfg!(debug_assertions) || self.validate
    }
}

/// One search node's facts about its configuration.
pub struct NodeFacts {
    /// The §3.3.2 CBV table, filled on first use.
    pub view_costs: ViewBuildCosts,
    /// The §3.6 update-shell maintenance terms.
    pub shells: ShellTable,
    cands: Cands,
}

/// A node's candidate list. It is derived at the node's first
/// [`NodeFacts::candidates`], so a node that is never scored pays
/// nothing for it.
enum Cands {
    /// Nothing to derive from: enumerate from scratch at first use.
    Scratch,
    /// The list of the nearest ancestor that derived one (the parent,
    /// unless a §3.5 shrink intervened) and the net step from it.
    Pending(Arc<CandList>, Box<TransformDelta>),
    Derived(Arc<CandList>),
}

impl NodeFacts {
    /// The facts of `config`, computed from nothing.
    pub fn scratch(cx: FactCtx<'_>, config: &Configuration) -> NodeFacts {
        NodeFacts {
            view_costs: ViewBuildCosts::new(),
            shells: ShellTable::build(cx.model, &PhysicalSchema::new(cx.db, config), cx.workload),
            cands: Cands::Scratch,
        }
    }

    /// The facts of `step.config`, one step away from this node's
    /// configuration: each fact keeps what the step cannot have
    /// changed.
    pub fn child(&self, cx: FactCtx<'_>, step: &AppliedTransform) -> NodeFacts {
        let config = &step.config;
        if cx.from_scratch {
            return NodeFacts::scratch(cx, config);
        }
        let schema = PhysicalSchema::new(cx.db, config);
        let facts = NodeFacts {
            view_costs: self.view_costs.carried(config, step),
            shells: self.shells.child(cx.model, &schema, cx.workload, step),
            cands: match &self.cands {
                Cands::Scratch => Cands::Scratch,
                Cands::Pending(list, net) => Cands::Pending(list.clone(), Box::new(net.then(step))),
                Cands::Derived(list) => Cands::Pending(list.clone(), Box::new(step.delta.clone())),
            },
        };
        if cx.checks() {
            facts.assert_matches_scratch(cx, config);
        }
        facts
    }

    /// The full candidate list, derived on the first call: by the
    /// candidate rule from the parent's list, or from scratch.
    pub fn candidates(&mut self, cx: FactCtx<'_>, config: &Configuration) -> Arc<CandList> {
        let list = match std::mem::replace(&mut self.cands, Cands::Scratch) {
            Cands::Derived(list) => list,
            Cands::Pending(parent, net) => {
                Arc::new(candidates_delta(config, cx.base, &parent, &net))
            }
            Cands::Scratch => Arc::new(
                candidates(config, cx.base)
                    .into_iter()
                    .map(|t| {
                        let sig = t.sig();
                        (Arc::new(t), sig)
                    })
                    .collect(),
            ),
        };
        self.cands = Cands::Derived(list.clone());
        if cx.checks() {
            self.assert_candidates_match(cx, config);
        }
        list
    }

    /// Panic unless every fact equals its from-scratch computation for
    /// `config`: every CBV entry computed so far, every shell term, the
    /// candidate list once derived, and every page count `config` has
    /// memoized for the catalog.
    pub fn assert_matches_scratch(&self, cx: FactCtx<'_>, config: &Configuration) {
        let schema = PhysicalSchema::new(cx.db, config);
        self.view_costs
            .assert_matches_scratch(cx.db, cx.model, config);
        self.shells
            .assert_matches_scratch(cx.model, &schema, cx.workload);
        self.assert_candidates_match(cx, config);
        for (index, pages) in config.memoized_pages(cx.db) {
            let fresh = SizeModel::default().compute_index_pages(&schema, index);
            assert!(
                pages.to_bits() == fresh.to_bits(),
                "memoized pages of {index} ({pages}) diverged from a fresh count ({fresh})"
            );
        }
    }

    fn assert_candidates_match(&self, cx: FactCtx<'_>, config: &Configuration) {
        if let Cands::Derived(list) = &self.cands {
            assert!(
                list.iter()
                    .map(|(t, _)| &**t)
                    .eq(&candidates(config, cx.base)),
                "derived candidate list diverged from the enumeration"
            );
        }
    }
}
