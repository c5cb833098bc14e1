//! The facts a search node carries (`pdt_tuner::node::NodeFacts`) — its
//! CBV table, shell table and candidate list — derived from
//! its parent's must equal the same facts computed from scratch. A
//! stale-low CBV breaks the §3.3.2 upper-bound guarantee, a stale shell
//! term or candidate moves the trace bytes.
//!
//! Three angles. One seeded walk (`tests/facts_walk`) drives the
//! derivation over every transformation kind, a pre-pass leg of
//! removals and §3.5 shrinks folded into a step, and checks every fact
//! against scratch after every step, counting what was carried so no
//! side passes vacuously; along the way every signature a configuration
//! stores must be its structure's. Real sessions run under the bound
//! oracle, which checks every derivation the engine makes, and must
//! trace exactly like the reference engine, which derives nothing. And
//! one small schema pins each arm of the rules: a carried CBV entry
//! shares its usages `Arc` with the parent's, a carried shell term its
//! index handle, so the arms are observable from outside.

mod facts_walk;

use facts_walk::{assert_folds, case, cx, derive, kind, Tally};
use pdtune::catalog::{Column, ColumnId, ColumnStats, ColumnType, Database, TableId};
use pdtune::expr::{Interval, Sarg, SargablePred};
use pdtune::opt::{CostModel, Optimizer};
use pdtune::physical::{Configuration, Index, MaterializedView, PhysicalSchema, SpjgExpr};
use pdtune::sql::parse_workload;
use pdtune::trace::Tracer;
use pdtune::tuner::eval::{shell_index_cost, ShellTable};
use pdtune::tuner::node::{CandList, FactCtx, NodeFacts};
use pdtune::tuner::transform::{
    apply, candidates, AppliedTransform, TransformDelta, Transformation,
};
use pdtune::tuner::{
    gather_optimal_configuration, tune_session, Reference, SessionCtl, TunerOptions, Workload,
};
use pdtune::workloads::bench::BenchParams;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Debug builds also check every derivation inside the engine and are
/// an order of magnitude slower; the sweep proper runs in release (CI
/// runs it there).
const SESSIONS: u64 = if cfg!(debug_assertions) { 9 } else { 108 };

fn bits(terms: &[(Arc<Index>, f64)]) -> Vec<(Index, u64)> {
    terms
        .iter()
        .map(|(i, t)| (Index::clone(i), t.to_bits()))
        .collect()
}

/// This suite's walks, as many writes as reads; `tests/cbv_carry.rs`,
/// `tests/shell_tables.rs` and `tests/cached_facts.rs` walk the other
/// seeds and write mixes.
#[test]
fn random_walks_derive_every_fact_as_scratch_computes_it() {
    facts_walk::walk(308..332, &[1.0]);
}

#[test]
fn sessions_carry_only_entries_a_recomputation_reproduces() {
    let mut view_steps = 0;
    for seed in 0..SESSIONS {
        // DS1, DS2 or the default bench schema, select-only or with a
        // quarter or half as many writes as reads.
        let ratio = [0.0, 0.25, 0.5][(seed / 3 % 3) as usize];
        let family = [0, 1, 3][(seed % 3) as usize];
        let (db, workload) = case(family, BenchParams::default().seed, seed, ratio);
        let with_views = seed % 9 != 8;
        let (optimal, _) = gather_optimal_configuration(&db, &workload, with_views);
        let base_size = Configuration::base(&db).size_bytes(&db);
        let budget =
            base_size + [0.05, 0.3][(seed % 2) as usize] * (optimal.size_bytes(&db) - base_size);
        let run = |reference: Option<Reference>| {
            let tracer = Tracer::new();
            tune_session(
                &db,
                &workload,
                &TunerOptions {
                    space_budget: Some(budget),
                    max_iterations: 30,
                    with_views,
                    shrink_unused: seed % 4 == 3,
                    // The oracle checks every derived fact against a
                    // from-scratch computation and panics on a mismatch.
                    validate_bounds: true,
                    ..TunerOptions::default()
                },
                SessionCtl {
                    tracer: Some(&tracer),
                    reference,
                    ..SessionCtl::default()
                },
            )
            .expect("no checkpoint involved");
            tracer.to_jsonl()
        };
        let carried = run(None);
        assert_eq!(
            carried,
            run(Some(Reference::Candidates)),
            "seed {seed}: the deriving engine's trace diverged from the reference engine's"
        );
        view_steps += carried.matches("remove-view(").count();
    }
    assert!(
        view_steps > SESSIONS as usize,
        "only {view_steps} view removals priced across the sweep"
    );
}

// ---- one test per arm of the rules ----------------------------------

fn int_columns(names: &[(&str, f64)]) -> Vec<Column> {
    names
        .iter()
        .map(|(name, ndv)| Column {
            name: (*name).into(),
            ty: ColumnType::Int,
            stats: ColumnStats::uniform(*ndv, 0.0, *ndv, 4.0),
        })
        .collect()
}

fn at_most_10(column: ColumnId) -> SargablePred {
    SargablePred {
        column,
        sarg: Sarg::Range(Interval::at_most(10.0, true)),
    }
}

/// Add a clustered view `SELECT out FROM table WHERE pred <= 10`.
fn range_view(
    db: &Database,
    config: &mut Configuration,
    table: &str,
    pred: u16,
    out: &[u16],
) -> TableId {
    let t = db.table_by_name(table).unwrap().id;
    let def = SpjgExpr {
        tables: [t].into(),
        output_cols: out.iter().map(|o| ColumnId::new(t, *o)).collect(),
        ranges: vec![at_most_10(ColumnId::new(t, pred))],
        ..Default::default()
    };
    let vid = config.allocate_view_id();
    config.add_view(MaterializedView::create(vid, def, 1000.0, db));
    config.add_index(Index::clustered(vid, [ColumnId::new(vid, 0)]));
    vid
}

/// `r(id pk, a, b, c, d)` and a heap `h(x, y, z)`; one view over each
/// (`vr`: `b <= 10` on `r`, two indexes; `vh`: `y <= 10` on `h`), each
/// with a covering index its rebuild seeks, plus indexes neither
/// rebuild can use. The workload writes `r.c`, deletes from `h` and
/// reads.
struct Arms {
    db: Database,
    model: CostModel,
    w: Workload,
    base: Configuration,
    config: Configuration,
    vr: TableId,
    vh: TableId,
    /// `IX(r [b]; {a})`: what `vr`'s rebuild seeks; left alone by the
    /// write.
    r_cover: Index,
    /// `IX(r [b])`: seekable for `vr`, but loses to `r_cover`; left
    /// alone by the write.
    r_b: Index,
    /// `IX(r [c])`: useless to `vr`; maintained by the write to `c`.
    r_c: Index,
    /// `IX(r [a]; {c})`: maintained through its suffix.
    r_a_c: Index,
    /// `IX(h [y]; {x})`: what `vh`'s rebuild seeks.
    h_cover: Index,
    /// `config`'s facts, both CBV entries priced and the candidate list
    /// derived, so every child's list is derived from it.
    facts: NodeFacts,
}

/// Entries of the workload in [`Arms`].
const WRITE_R: usize = 0;
const DELETE_H: usize = 1;
const READ: usize = 2;

impl Arms {
    fn new() -> Arms {
        let mut b = Database::builder("arms");
        let same =
            |names: &[&str]| int_columns(&names.iter().map(|n| (*n, 1_000.0)).collect::<Vec<_>>());
        b.add_table("r", 1_000_000.0, same(&["id", "a", "b", "c", "d"]), vec![0]);
        b.add_table("h", 500_000.0, same(&["x", "y", "z"]), vec![]);
        let db = b.build();
        let statements = parse_workload(
            "UPDATE r SET c = c + 1 WHERE b < 10;\n\
             DELETE FROM h WHERE y < 5;\n\
             SELECT r.a FROM r WHERE r.b = 3",
        )
        .unwrap();
        let w = Workload::bind(&db, &statements).unwrap();
        let r = db.table_by_name("r").unwrap().id;
        let h = db.table_by_name("h").unwrap().id;
        let col = ColumnId::new;
        let r_cover = Index::new(r, [col(r, 2)], [col(r, 1)]);
        let r_b = Index::new(r, [col(r, 2)], []);
        let r_c = Index::new(r, [col(r, 3)], []);
        let r_a_c = Index::new(r, [col(r, 1)], [col(r, 3)]);
        let h_cover = Index::new(h, [col(h, 1)], [col(h, 0)]);
        let base = Configuration::base(&db);
        let mut config = base.clone();
        for i in [
            r_cover.clone(),
            r_b.clone(),
            r_c.clone(),
            r_a_c.clone(),
            Index::new(r, [col(r, 3), col(r, 4)], []),
            Index::new(r, [col(r, 4), col(r, 3)], [col(r, 1)]),
            h_cover.clone(),
            // Useless to `vh`, promotable (`h` is a heap).
            Index::new(h, [col(h, 2)], []),
        ] {
            assert!(config.add_index(i));
        }
        let vr = range_view(&db, &mut config, "r", 2, &[1]);
        assert!(config.add_index(Index::new(vr, [ColumnId::new(vr, 0)], [])));
        let vh = range_view(&db, &mut config, "h", 1, &[0]);
        let model = CostModel::default();
        let cx = cx(&db, &model, &w, &base);
        let mut facts = NodeFacts::scratch(cx, &config);
        facts.candidates(cx, &config);
        for v in [vr, vh] {
            assert!(facts.view_costs.get(&db, &model, &config, v) > 0.0);
        }
        assert_folds(&facts.shells, cx, &config, "arms");
        Arms {
            db,
            model,
            w,
            base,
            config,
            vr,
            vh,
            r_cover,
            r_b,
            r_c,
            r_a_c,
            h_cover,
            facts,
        }
    }

    fn cx(&self) -> FactCtx<'_> {
        cx(&self.db, &self.model, &self.w, &self.base)
    }

    /// Recompute `facts` from scratch after `config` was edited by hand.
    fn rescan(&mut self) {
        let mut facts = NodeFacts::scratch(self.cx(), &self.config);
        facts.candidates(self.cx(), &self.config);
        self.facts = facts;
    }

    fn step(&self, t: &Transformation) -> (NodeFacts, AppliedTransform) {
        let opt = Optimizer::new(&self.db);
        let applied = apply(t, &self.config, &self.db, &opt).expect("applies");
        (self.derive(&applied), applied)
    }

    /// Derive the child's facts, its candidate list included; every
    /// fact must be what scratch computes.
    fn derive(&self, step: &AppliedTransform) -> NodeFacts {
        let mut tally = Tally::default();
        let cx = self.cx();
        let mut child = derive(&self.facts, cx, &self.config, step, &mut tally, "arms");
        child.candidates(cx, &step.config);
        child.assert_matches_scratch(cx, &step.config);
        child
    }

    /// Was `view`'s CBV entry carried to `child` (which serves the
    /// parent's very `Arc` of usages) rather than left to recompute?
    fn carried(&self, child: &NodeFacts, child_config: &Configuration, view: TableId) -> bool {
        let (db, model) = (&self.db, &self.model);
        let (_, old) = self
            .facts
            .view_costs
            .get_with_usages(db, model, &self.config, view);
        let (_, new) = child
            .view_costs
            .get_with_usages(db, model, child_config, view);
        Arc::ptr_eq(&old, &new)
    }

    fn maintained(table: &ShellTable, entry: usize) -> Vec<Index> {
        table
            .terms(entry)
            .iter()
            .map(|(i, _)| Index::clone(i))
            .collect()
    }
}

#[test]
fn unrelated_removal_carries_every_entry() {
    let a = Arms::new();
    let (child, applied) = a.step(&Transformation::RemoveIndex {
        index: a.r_c.clone(),
    });
    assert!(a.carried(&child, &applied.config, a.vr) && a.carried(&child, &applied.config, a.vh));
}

#[test]
fn removing_an_index_the_rebuild_used_recomputes() {
    let a = Arms::new();
    let (old_cost, old_usages) = a
        .facts
        .view_costs
        .get_with_usages(&a.db, &a.model, &a.config, a.vr);
    assert!(old_usages.iter().any(|u| u.index == a.r_cover));
    let (child, applied) = a.step(&Transformation::RemoveIndex {
        index: a.r_cover.clone(),
    });
    assert!(
        !a.carried(&child, &applied.config, a.vr),
        "stale entry carried"
    );
    assert!(a.carried(&child, &applied.config, a.vh));
    let fresh = child.view_costs.get(&a.db, &a.model, &applied.config, a.vr);
    assert!(fresh > old_cost, "losing the covering index costs more");
}

#[test]
fn removals_that_can_create_candidates_recompute() {
    let a = Arms::new();
    // A seekable index outside the winning plan: removing it can
    // reshuffle the rid-intersection window.
    let (_, usages) = a
        .facts
        .view_costs
        .get_with_usages(&a.db, &a.model, &a.config, a.vr);
    assert!(!usages.iter().any(|u| u.index == a.r_b));
    let (child, applied) = a.step(&Transformation::RemoveIndex {
        index: a.r_b.clone(),
    });
    assert!(!a.carried(&child, &applied.config, a.vr) && a.carried(&child, &applied.config, a.vh));
    // Losing the clustered index turns the base scan into a heap scan.
    let pk = a.config.clustered_index_on(a.r_c.table).unwrap().clone();
    // No transformation removes a base index: a step that does.
    let step = TransformDelta::removing(vec![pk]).materialize(&a.config);
    let child = a.derive(&step);
    assert!(!a.carried(&child, &step.config, a.vr) && a.carried(&child, &step.config, a.vh));
}

/// Why a seekable removal invalidates even outside the winning plan:
/// the rid-intersection enumeration pairs the four most selective
/// seekable indexes only. Four `b`-led indexes fill that window (pairs
/// sharing a leading column are skipped), so the `c`-led one is never
/// paired — until one of the four goes, and the new `b ∩ c` plan
/// undercuts everything the old entry considered.
#[test]
fn a_seekable_removal_can_open_the_intersection_window() {
    let mut b = Database::builder("window");
    b.add_table(
        "r",
        1_000_000.0,
        int_columns(&[
            ("id", 1_000_000.0),
            ("a", 1_000.0),
            ("b", 10_000.0),
            ("c", 1_000.0),
            ("d", 1_000.0),
            ("e", 1_000.0),
            ("f", 1_000.0),
        ]),
        vec![0],
    );
    let db = b.build();
    let r = db.table_by_name("r").unwrap().id;
    let col = |o: u16| ColumnId::new(r, o);
    let base = Configuration::base(&db);
    let mut config = base.clone();
    let b_led = [
        Index::new(r, [col(2)], []),
        Index::new(r, [col(2), col(4)], []),
        Index::new(r, [col(2), col(5)], []),
        Index::new(r, [col(2), col(6)], []),
    ];
    for i in b_led.iter().cloned().chain([Index::new(r, [col(3)], [])]) {
        assert!(config.add_index(i));
    }
    let vid = config.allocate_view_id();
    let def = SpjgExpr {
        tables: [r].into(),
        output_cols: [col(1)].into(),
        ranges: vec![at_most_10(col(2)), at_most_10(col(3))],
        ..Default::default()
    };
    config.add_view(MaterializedView::create(vid, def, 1000.0, &db));

    let (model, w) = (CostModel::default(), Workload::bind(&db, &[]).unwrap());
    let cx = cx(&db, &model, &w, &base);
    let mut parent = NodeFacts::scratch(cx, &config);
    parent.candidates(cx, &config);
    let (old_cost, old_usages) = parent.view_costs.get_with_usages(&db, &model, &config, vid);
    let gone = b_led
        .iter()
        .find(|i| !old_usages.iter().any(|u| u.index == **i))
        .expect("at most one b-led index is in the winning plan");
    let opt = Optimizer::new(&db);
    let remove = Transformation::RemoveIndex {
        index: gone.clone(),
    };
    let step = apply(&remove, &config, &db, &opt).unwrap();
    let mut child = parent.child(cx, &step);
    child.candidates(cx, &step.config);
    child.assert_matches_scratch(cx, &step.config);
    let (new_cost, new_usages) = child
        .view_costs
        .get_with_usages(&db, &model, &step.config, vid);
    assert!(
        !Arc::ptr_eq(&old_usages, &new_usages),
        "stale-high entry carried"
    );
    assert!(
        new_cost < old_cost && new_usages.len() == 2,
        "removing {gone} should let an intersection plan win: {old_cost} -> {new_cost}"
    );
}

#[test]
fn an_index_added_on_a_view_table_recomputes() {
    let a = Arms::new();
    let mut kinds = BTreeSet::new();
    // Leave the indexes the rebuilds can use alone: this test is about
    // additions.
    let used = |i: &Index| [&a.r_cover, &a.r_b, &a.h_cover].contains(&i) || i.table.is_view();
    let all = candidates(&a.config, &a.base);
    for t in all {
        let (kind, skip) = match &t {
            Transformation::MergeIndexes { i1, i2 } => ("merge", used(i1) || used(i2)),
            Transformation::SplitIndexes { i1, i2 } => ("split", used(i1) || used(i2)),
            Transformation::PrefixIndex { index, .. } => ("prefix", used(index)),
            Transformation::PromoteToClustered { index } => ("promote", used(index)),
            _ => continue,
        };
        if skip {
            continue;
        }
        let (child, applied) = a.step(&t);
        let Some(added) = applied.added_indexes.first() else {
            continue;
        };
        let (touched, other) = if added.table == a.r_c.table {
            (a.vr, a.vh)
        } else {
            (a.vh, a.vr)
        };
        assert!(
            !a.carried(&child, &applied.config, touched),
            "{t}: stale entry carried"
        );
        assert!(
            a.carried(&child, &applied.config, other),
            "{t}: unrelated entry dropped"
        );
        kinds.insert(kind);
    }
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        ["merge", "prefix", "promote", "split"]
    );
}

#[test]
fn removed_and_merged_views_drop_and_the_merged_view_is_priced_fresh() {
    let mut a = Arms::new();
    let (child, applied) = a.step(&Transformation::RemoveView { view: a.vr });
    assert!(!a.carried(&child, &applied.config, a.vr) && a.carried(&child, &applied.config, a.vh));

    // A second view over `r` to merge `vr` with.
    let vr2 = range_view(&a.db, &mut a.config, "r", 2, &[3]);
    a.rescan();
    for v in [a.vr, vr2, a.vh] {
        a.facts.view_costs.get(&a.db, &a.model, &a.config, v);
    }
    let (child, applied) = a.step(&Transformation::MergeViews { v1: a.vr, v2: vr2 });
    let merged = applied.added_view.as_ref().unwrap().id;
    assert!(
        child
            .view_costs
            .get(&a.db, &a.model, &applied.config, merged)
            > 0.0
    );
    child
        .view_costs
        .assert_matches_scratch(&a.db, &a.model, &applied.config);
    let carried = |v| a.carried(&child, &applied.config, v);
    assert!(!carried(a.vr) && !carried(vr2) && carried(a.vh));
}

#[test]
fn rows_hold_exactly_the_maintained_indexes_in_configuration_order() {
    let a = Arms::new();
    let row = Arms::maintained(&a.facts.shells, WRITE_R);
    // Key hit, suffix hit, the clustered PK, and both view indexes; not
    // the indexes that leave `c` alone.
    assert!(row.contains(&a.r_c) && row.contains(&a.r_a_c));
    assert!(!row.contains(&a.r_b) && !row.contains(&a.r_cover));
    assert_eq!(row.iter().filter(|i| i.table == a.vr).count(), 2);
    let mut sorted = row.clone();
    sorted.sort();
    assert_eq!(row, sorted, "terms out of configuration order");
    // A delete touches every index of its table and of the view over
    // it; a read has no row.
    let deleted = Arms::maintained(&a.facts.shells, DELETE_H);
    let h = a.h_cover.table;
    assert_eq!(
        deleted.len(),
        a.config.indexes_on(h).count() + a.config.indexes_on(a.vh).count()
    );
    assert!(a.facts.shells.terms(READ).is_empty());
    assert_eq!(a.facts.shells.fold(READ).to_bits(), 0f64.to_bits());
}

#[test]
fn an_unaffected_step_carries_every_term_and_handle() {
    let a = Arms::new();
    let (child, _) = a.step(&Transformation::RemoveIndex {
        index: a.r_b.clone(),
    });
    for entry in [WRITE_R, DELETE_H] {
        let (old, new) = (a.facts.shells.terms(entry), child.shells.terms(entry));
        assert_eq!(bits(old), bits(new));
        // The very handles of the parent's configuration: carried, not
        // rebuilt.
        assert!(old.iter().zip(new).all(|(o, n)| Arc::ptr_eq(&o.0, &n.0)));
    }
}

#[test]
fn a_removed_index_drops_out_and_the_rest_keep_their_bits() {
    let a = Arms::new();
    let (child, _) = a.step(&Transformation::RemoveIndex {
        index: a.r_c.clone(),
    });
    let want: Vec<(Index, u64)> = bits(a.facts.shells.terms(WRITE_R))
        .into_iter()
        .filter(|(i, _)| *i != a.r_c)
        .collect();
    assert_eq!(bits(child.shells.terms(WRITE_R)), want);
    assert!(child.shells.fold(WRITE_R) < a.facts.shells.fold(WRITE_R));
}

#[test]
fn added_indexes_are_priced_fresh_in_configuration_order() {
    let a = Arms::new();
    let mut kinds = BTreeSet::new();
    for t in candidates(&a.config, &a.base) {
        let k = kind(&t);
        if !["merge", "split", "prefix", "promote"].contains(&k) {
            continue;
        }
        let (child, applied) = a.step(&t);
        let schema = PhysicalSchema::new(&a.db, &applied.config);
        for entry in [WRITE_R, DELETE_H] {
            let shell = a.w.entries[entry].shell.as_ref().unwrap();
            for added in &applied.added_indexes {
                let cost = shell_index_cost(&a.model, &schema, shell, added);
                let term = child
                    .shells
                    .terms(entry)
                    .iter()
                    .find(|(i, _)| **i == *added);
                match term {
                    Some((_, t)) => assert_eq!(t.to_bits(), cost.to_bits(), "{added}"),
                    None => assert_eq!(cost, 0.0, "{added} maintained but not in the row"),
                }
            }
        }
        kinds.insert(k);
    }
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        ["merge", "prefix", "promote", "split"]
    );
}

#[test]
fn a_removed_view_takes_its_indexes_terms_with_it() {
    let a = Arms::new();
    let (child, applied) = a.step(&Transformation::RemoveView { view: a.vr });
    assert_eq!(applied.removed_indexes.len(), 2);
    let row = Arms::maintained(&child.shells, WRITE_R);
    assert!(row.iter().all(|i| i.table != a.vr));
    assert_eq!(
        row.len(),
        Arms::maintained(&a.facts.shells, WRITE_R).len() - 2
    );
    assert_eq!(
        bits(child.shells.terms(DELETE_H)),
        bits(a.facts.shells.terms(DELETE_H))
    );
}

#[test]
fn a_merged_view_is_maintained_at_the_view_factor() {
    let mut a = Arms::new();
    let v2 = range_view(&a.db, &mut a.config, "r", 2, &[4]);
    a.rescan();
    let (child, applied) = a.step(&Transformation::MergeViews { v1: a.vr, v2 });
    let merged = applied.added_view.as_ref().unwrap().id;
    let on_merged: Vec<&(Arc<Index>, f64)> = child
        .shells
        .terms(WRITE_R)
        .iter()
        .filter(|(i, _)| i.table == merged)
        .collect();
    assert!(!on_merged.is_empty());
    let schema = PhysicalSchema::new(&a.db, &applied.config);
    let shell = a.w.entries[WRITE_R].shell.as_ref().unwrap();
    let m = &a.model;
    for (i, t) in on_merged {
        // Twice what the same index would cost on a base table.
        let base_like = shell.rows
            * ((m.btree_levels(&schema, i) + 1.0) * m.rand_page * 0.5 + 2.0 * m.cpu_tuple);
        assert_eq!(t.to_bits(), (base_like * 2.0).to_bits(), "{i}");
    }
    // The delete from `h` maintains no view over `r`.
    assert_eq!(
        bits(child.shells.terms(DELETE_H)),
        bits(a.facts.shells.terms(DELETE_H))
    );
}

#[test]
fn a_shell_no_index_serves_folds_like_the_definition() {
    let a = Arms::new();
    let cx = a.cx();
    // Only `r`'s indexes and the view over it: the delete from `h`
    // maintains nothing, and its sum is `+0.0` — one zero term per
    // index it leaves alone.
    let mut config = a.config.clone();
    assert!(config.remove_view(a.vh));
    for i in config
        .indexes_on(a.h_cover.table)
        .cloned()
        .collect::<Vec<_>>()
    {
        config.remove_index(&i);
    }
    let facts = NodeFacts::scratch(cx, &config);
    assert!(facts.shells.terms(DELETE_H).is_empty());
    assert_eq!(facts.shells.fold(DELETE_H).to_bits(), 0f64.to_bits());
    assert_folds(&facts.shells, cx, &config, "no index on h");
    // No index at all: the sum has no term, and its sign is the
    // definition's.
    let empty = Configuration::new();
    let facts = NodeFacts::scratch(cx, &empty);
    assert!(facts.shells.terms(WRITE_R).is_empty() && facts.shells.terms(DELETE_H).is_empty());
    assert_folds(&facts.shells, cx, &empty, "empty configuration");
    // Derived down to nothing, the same.
    let everything = TransformDelta {
        removed_views: vec![a.vr, a.vh],
        ..TransformDelta::removing(a.config.indexes().cloned().collect())
    };
    let step = everything.materialize(&a.config);
    assert_eq!(step.config.index_count(), 0);
    a.derive(&step);
}

/// Removing a clustered index without a replacement makes promotions
/// legal again: the fresh half of the candidate rule regenerates them.
#[test]
fn clustered_removal_reenables_promotions() {
    let mut a = Arms::new();
    let h = a.h_cover.table;
    let ci = Index::clustered(h, [ColumnId::new(h, 0)]);
    assert!(a.config.add_index(ci.clone()));
    a.rescan();
    let cx = cx(&a.db, &a.model, &a.w, &a.base);
    let promotes = |list: &CandList| {
        let on_h = |t: &Transformation| matches!(t, Transformation::PromoteToClustered { index } if index.table == h);
        list.iter().filter(|(t, _)| on_h(t)).count()
    };
    assert_eq!(promotes(&a.facts.candidates(cx, &a.config)), 0);
    let step = TransformDelta::removing(vec![ci]).materialize(&a.config);
    let list = a.derive(&step).candidates(cx, &step.config);
    assert_eq!(promotes(&list), 2, "promotions not regenerated");
}
