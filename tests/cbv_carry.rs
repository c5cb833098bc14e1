//! The CBV table a search node carries (`ViewBuildCosts::carried`, by
//! way of `NodeFacts::child`) must hold exactly what a recomputation
//! against the child reproduces: cost bits and rebuild usages. Checked
//! with every other node fact along 60 seeded walks of
//! `tests/facts_walk`, a third of them select-only and the rest with a
//! quarter or half as many writes as reads; `tests/node_facts.rs` holds
//! one test per arm of the rule.

mod facts_walk;

#[test]
fn random_walks_carry_exactly_what_a_recomputation_reproduces() {
    facts_walk::walk(200..260, &[0.0, 0.25, 0.5]);
}
