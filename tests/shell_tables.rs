//! A search node's shell table — built from scratch, derived for a
//! child (`ShellTable::child`, by way of `NodeFacts::child`) or read for
//! a child never built (`ShellTable::relaxed`) — must fold to
//! `shell_cost` under that configuration, `to_bits` equal. Checked with
//! every other node fact along 200 seeded walks of `tests/facts_walk`,
//! each with half to three quarters as many writes as reads;
//! `tests/node_facts.rs` holds one test per arm of the rule.

mod facts_walk;

#[test]
fn derived_tables_fold_to_the_shell_cost_along_random_walks() {
    facts_walk::walk(0..200, &[0.5, 0.75]);
}
