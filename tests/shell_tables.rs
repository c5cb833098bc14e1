//! Property and rule tests for the per-node shell tables
//! (`pdt_tuner::eval::ShellTable`): one configuration's update-shell
//! maintenance terms, carried from a search node to its child instead
//! of re-summed over the whole configuration for every bound and every
//! evaluation.
//!
//! The contract is bit-equality with the definition: for every
//! workload entry, folding a table — whether built from scratch,
//! derived for a materialized child (`ShellTable::child`), or read for
//! a child that is never built (`ShellTable::relaxed`, the §3.3.2
//! bound's view) — gives `shell_cost` under that configuration, `to_bits`
//! equal, the sign of zero included. Seeded update-heavy random walks
//! check it over every transformation kind; one small schema pins each
//! arm of the derivation rule (carried terms keep their bits and their
//! index handle, removed indexes and a removed view's indexes drop out,
//! added indexes are priced fresh in configuration order).

use pdtune::catalog::{Column, ColumnId, ColumnStats, ColumnType, Database, TableId};
use pdtune::expr::{Interval, Sarg, SargablePred};
use pdtune::opt::{CostModel, Optimizer};
use pdtune::physical::{Configuration, Index, MaterializedView, PhysicalSchema, SpjgExpr};
use pdtune::sql::parse_workload;
use pdtune::tuner::eval::{shell_cost, shell_index_cost, ShellTable};
use pdtune::tuner::transform::{apply, candidates, AppliedTransform, Transformation};
use pdtune::tuner::{gather_optimal_configuration, Workload};
use pdtune::workloads::bench::{bench_database, bench_workload, BenchParams};
use pdtune::workloads::star::{star_database, star_workload, StarParams};
use pdtune::workloads::{tpch, updates, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The sweep proper runs in release (CI runs it there); debug builds
/// also assert every fold inside the engine and are much slower.
const WALKS: u64 = if cfg!(debug_assertions) { 12 } else { 200 };
const STEPS: usize = 24;

/// Case `seed`: a wide star (DS1, DS2), TPC-H or a random bench schema,
/// with half to three quarters as many writes as reads.
fn case(seed: u64) -> (Database, Workload) {
    let (db, spec): (Database, WorkloadSpec) = match seed % 4 {
        0 => {
            let p = StarParams::ds1();
            (star_database(&p), star_workload(&p, seed, 6))
        }
        1 => {
            let p = StarParams::ds2();
            (star_database(&p), star_workload(&p, seed, 6))
        }
        2 => (
            tpch::tpch_database(0.01),
            tpch::tpch_workload_variant(seed, 6),
        ),
        _ => {
            let db = bench_database(&BenchParams {
                seed,
                ..BenchParams::default()
            });
            let spec = bench_workload(&db, seed, 8);
            (db, spec)
        }
    };
    let ratio = [0.5, 0.75][(seed / 4 % 2) as usize];
    let spec = updates::with_updates(&db, &spec, ratio, seed);
    let workload = Workload::bind(&db, &spec.statements).expect("generated workloads bind");
    (db, workload)
}

/// Panic unless every entry of `table` folds to `shell_cost` under
/// `config`, bit for bit, and its terms are what a build from scratch
/// holds.
fn assert_folds(
    table: &ShellTable,
    db: &Database,
    config: &Configuration,
    w: &Workload,
    ctx: &str,
) {
    let model = CostModel::default();
    let schema = PhysicalSchema::new(db, config);
    let scratch = ShellTable::build(&model, &schema, w);
    for (i, entry) in w.entries.iter().enumerate() {
        let want = entry
            .shell
            .as_ref()
            .map_or(0.0, |s| shell_cost(&model, &schema, s));
        assert_eq!(
            table.fold(i).to_bits(),
            want.to_bits(),
            "{ctx}: entry {i} folds to {} not {want}",
            table.fold(i)
        );
        assert_eq!(
            bits(table.terms(i)),
            bits(scratch.terms(i)),
            "{ctx}: entry {i}'s terms differ from a fresh build"
        );
    }
}

fn bits(terms: &[(Arc<Index>, f64)]) -> Vec<(Index, u64)> {
    terms
        .iter()
        .map(|(i, t)| (Index::clone(i), t.to_bits()))
        .collect()
}

/// The relaxed fold of every shell of `w` for `applied`, read from the
/// parent's table, against `shell_cost` under the materialized child.
fn assert_relaxed_folds(
    parent: &ShellTable,
    db: &Database,
    parent_config: &Configuration,
    applied: &AppliedTransform,
    w: &Workload,
    ctx: &str,
) {
    let model = CostModel::default();
    let old_schema = PhysicalSchema::new(db, parent_config);
    let new_schema = old_schema.relaxed(&applied.removed_views, applied.added_view.as_ref());
    let relaxed = parent.relaxed(&model, &new_schema, parent_config, &applied.delta);
    let child_schema = PhysicalSchema::new(db, &applied.config);
    for (i, entry) in w.entries.iter().enumerate() {
        let Some(s) = &entry.shell else { continue };
        assert_eq!(
            relaxed.cost(i, s).to_bits(),
            shell_cost(&model, &child_schema, s).to_bits(),
            "{ctx}: relaxed fold of entry {i}"
        );
    }
}

fn kind(t: &Transformation) -> &'static str {
    match t {
        Transformation::MergeIndexes { .. } => "merge",
        Transformation::SplitIndexes { .. } => "split",
        Transformation::PrefixIndex { .. } => "prefix",
        Transformation::PromoteToClustered { .. } => "promote",
        Transformation::RemoveIndex { .. } => "remove",
        Transformation::MergeViews { .. } => "merge-views",
        Transformation::RemoveView { .. } => "remove-view",
    }
}

#[test]
fn derived_tables_fold_to_the_shell_cost_along_random_walks() {
    let model = CostModel::default();
    let mut kinds = BTreeSet::new();
    let (mut steps, mut terms) = (0usize, 0usize);
    for seed in 0..WALKS {
        let (db, w) = case(seed);
        let opt = Optimizer::new(&db);
        let base = Configuration::base(&db);
        let (mut config, _) = gather_optimal_configuration(&db, &w, true);
        let mut table = ShellTable::build(&model, &PhysicalSchema::new(&db, &config), &w);
        assert_folds(&table, &db, &config, &w, &format!("seed {seed} root"));
        let mut rng = StdRng::seed_from_u64(seed);
        for step in 0..STEPS {
            let all = candidates(&config, &base);
            if all.is_empty() {
                break;
            }
            let t = &all[rng.gen_range(0..all.len())];
            let Some(applied) = apply(t, &config, &db, &opt) else {
                continue;
            };
            let ctx = format!("seed {seed} step {step}: {t}");
            assert_relaxed_folds(&table, &db, &config, &applied, &w, &ctx);
            let child = table.child(
                &model,
                &PhysicalSchema::new(&db, &applied.config),
                &w,
                &applied.removed_indexes,
                &applied.added_indexes,
            );
            assert_folds(&child, &db, &applied.config, &w, &ctx);
            terms += (0..w.entries.len())
                .map(|i| child.terms(i).len())
                .sum::<usize>();
            kinds.insert(kind(t));
            steps += 1;
            table = child;
            config = applied.config;
        }
    }
    assert!(
        steps > 10 * WALKS as usize,
        "walks too short: {steps} steps"
    );
    assert!(terms > steps, "only {terms} terms over {steps} steps");
    for k in [
        "merge",
        "split",
        "prefix",
        "promote",
        "remove",
        "remove-view",
    ] {
        assert!(kinds.contains(k), "no {k} step walked: {kinds:?}");
    }
}

// ---- one test per arm of the derivation rule ------------------------

fn int_columns(names: &[&str]) -> Vec<Column> {
    names
        .iter()
        .map(|name| Column {
            name: (*name).into(),
            ty: ColumnType::Int,
            stats: ColumnStats::uniform(1_000.0, 0.0, 1_000.0, 4.0),
        })
        .collect()
}

/// `r(id pk, a, b, c, d)` and a heap `h(x, y)`; a view over `r`; a
/// write to `r.c`, a delete from `h`, and a read.
struct Arms {
    db: Database,
    w: Workload,
    config: Configuration,
    /// `IX(r [c])`: maintained by the write to `c`.
    r_c: Index,
    /// `IX(r [a]; {c})`: maintained through its suffix.
    r_a_c: Index,
    /// `IX(r [b])`: left alone by the write.
    r_b: Index,
    /// A view over `r`, two indexes on it.
    vr: TableId,
    table: ShellTable,
}

/// Entries of the workload in [`Arms`].
const WRITE_R: usize = 0;
const DELETE_H: usize = 1;
const READ: usize = 2;

impl Arms {
    fn new() -> Arms {
        let mut b = Database::builder("shells");
        b.add_table(
            "r",
            1_000_000.0,
            int_columns(&["id", "a", "b", "c", "d"]),
            vec![0],
        );
        b.add_table("h", 50_000.0, int_columns(&["x", "y"]), vec![]);
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
        let r_c = Index::new(r, [col(r, 3)], []);
        let r_a_c = Index::new(r, [col(r, 1)], [col(r, 3)]);
        let r_b = Index::new(r, [col(r, 2)], []);
        let mut config = Configuration::base(&db);
        for i in [
            r_c.clone(),
            r_a_c.clone(),
            r_b.clone(),
            Index::new(r, [col(r, 2), col(r, 4)], []),
            Index::new(h, [col(h, 1)], []),
        ] {
            assert!(config.add_index(i));
        }
        let vr = config.allocate_view_id();
        let def = SpjgExpr {
            tables: [r].into(),
            output_cols: [col(r, 1), col(r, 3)].into(),
            ranges: vec![SargablePred {
                column: col(r, 2),
                sarg: Sarg::Range(Interval::at_most(10.0, true)),
            }],
            ..Default::default()
        };
        config.add_view(MaterializedView::create(vr, def, 1000.0, &db));
        config.add_index(Index::clustered(vr, [ColumnId::new(vr, 0)]));
        config.add_index(Index::new(vr, [ColumnId::new(vr, 1)], []));
        let table = ShellTable::build(
            &CostModel::default(),
            &PhysicalSchema::new(&db, &config),
            &w,
        );
        assert_folds(&table, &db, &config, &w, "arms");
        Arms {
            db,
            w,
            config,
            r_c,
            r_a_c,
            r_b,
            vr,
            table,
        }
    }

    /// Apply `t` and derive the child's table; both derivations are
    /// checked against the definition.
    fn step(&self, t: &Transformation) -> (ShellTable, AppliedTransform) {
        let opt = Optimizer::new(&self.db);
        let applied = apply(t, &self.config, &self.db, &opt).expect("applies");
        assert_relaxed_folds(
            &self.table,
            &self.db,
            &self.config,
            &applied,
            &self.w,
            "arms",
        );
        let child = self.table.child(
            &CostModel::default(),
            &PhysicalSchema::new(&self.db, &applied.config),
            &self.w,
            &applied.removed_indexes,
            &applied.added_indexes,
        );
        assert_folds(&child, &self.db, &applied.config, &self.w, &t.to_string());
        (child, applied)
    }

    fn indexes(&self, entry: usize) -> Vec<Index> {
        indexes(&self.table, entry)
    }
}

fn indexes(table: &ShellTable, entry: usize) -> Vec<Index> {
    table
        .terms(entry)
        .iter()
        .map(|(i, _)| Index::clone(i))
        .collect()
}

#[test]
fn rows_hold_exactly_the_maintained_indexes_in_configuration_order() {
    let a = Arms::new();
    let row = a.indexes(WRITE_R);
    // Key hit, suffix hit, the clustered PK, and both view indexes; not
    // the indexes that leave `c` alone.
    assert!(row.contains(&a.r_c) && row.contains(&a.r_a_c));
    assert!(!row.contains(&a.r_b));
    assert_eq!(row.iter().filter(|i| i.table == a.vr).count(), 2);
    let sorted: Vec<Index> = {
        let mut s = row.clone();
        s.sort();
        s
    };
    assert_eq!(row, sorted, "terms out of configuration order");
    // A delete touches every index of its table; a read has no row.
    assert_eq!(a.indexes(DELETE_H).len(), 1);
    assert!(a.table.terms(READ).is_empty());
    assert_eq!(a.table.fold(READ).to_bits(), 0f64.to_bits());
}

#[test]
fn an_unaffected_step_carries_every_term_and_handle() {
    let a = Arms::new();
    let (child, _) = a.step(&Transformation::RemoveIndex {
        index: a.r_b.clone(),
    });
    for entry in [WRITE_R, DELETE_H] {
        let (old, new) = (a.table.terms(entry), child.terms(entry));
        assert_eq!(bits(old), bits(new));
        // The very handles of the parent's configuration: carried, not
        // rebuilt.
        assert!(old.iter().zip(new).all(|(o, n)| Arc::ptr_eq(&o.0, &n.0)));
        assert_eq!(a.table.fold(entry).to_bits(), child.fold(entry).to_bits());
    }
}

#[test]
fn a_removed_index_drops_out_and_the_rest_keep_their_bits() {
    let a = Arms::new();
    let (child, _) = a.step(&Transformation::RemoveIndex {
        index: a.r_c.clone(),
    });
    let want: Vec<(Index, u64)> = bits(a.table.terms(WRITE_R))
        .into_iter()
        .filter(|(i, _)| *i != a.r_c)
        .collect();
    assert_eq!(bits(child.terms(WRITE_R)), want);
    assert!(child.fold(WRITE_R) < a.table.fold(WRITE_R));
}

#[test]
fn added_indexes_are_priced_fresh_in_configuration_order() {
    let a = Arms::new();
    let model = CostModel::default();
    let mut kinds = BTreeSet::new();
    for t in candidates(&a.config, &Configuration::base(&a.db)) {
        let k = kind(&t);
        if !["merge", "split", "prefix", "promote"].contains(&k) {
            continue;
        }
        let (child, applied) = a.step(&t);
        let schema = PhysicalSchema::new(&a.db, &applied.config);
        for entry in [WRITE_R, DELETE_H] {
            let shell = a.w.entries[entry].shell.as_ref().unwrap();
            for added in &applied.added_indexes {
                let cost = shell_index_cost(&model, &schema, shell, added);
                let term = child.terms(entry).iter().find(|(i, _)| **i == *added);
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
    assert!(indexes(&child, WRITE_R).iter().all(|i| i.table != a.vr));
    assert_eq!(indexes(&child, WRITE_R).len(), a.indexes(WRITE_R).len() - 2);
    assert_eq!(bits(child.terms(DELETE_H)), bits(a.table.terms(DELETE_H)));
}

#[test]
fn a_merged_view_is_maintained_at_the_view_factor() {
    let mut a = Arms::new();
    let r = a.db.table_by_name("r").unwrap().id;
    let def = SpjgExpr {
        tables: [r].into(),
        output_cols: [ColumnId::new(r, 1), ColumnId::new(r, 4)].into(),
        ..Default::default()
    };
    let v2 = a.config.allocate_view_id();
    a.config
        .add_view(MaterializedView::create(v2, def, 5000.0, &a.db));
    a.config
        .add_index(Index::clustered(v2, [ColumnId::new(v2, 0)]));
    a.table = ShellTable::build(
        &CostModel::default(),
        &PhysicalSchema::new(&a.db, &a.config),
        &a.w,
    );
    let (child, applied) = a.step(&Transformation::MergeViews { v1: a.vr, v2 });
    let merged = applied.added_view.as_ref().unwrap().id;
    let on_merged: Vec<&(Arc<Index>, f64)> = child
        .terms(WRITE_R)
        .iter()
        .filter(|(i, _)| i.table == merged)
        .collect();
    assert!(!on_merged.is_empty());
    let schema = PhysicalSchema::new(&a.db, &applied.config);
    let shell = a.w.entries[WRITE_R].shell.as_ref().unwrap();
    for (i, t) in on_merged {
        // Twice what the same index would cost on a base table.
        let base_like = shell.rows
            * ((CostModel::default().btree_levels(&schema, i) + 1.0)
                * CostModel::default().rand_page
                * 0.5
                + 2.0 * CostModel::default().cpu_tuple);
        assert_eq!(t.to_bits(), (base_like * 2.0).to_bits(), "{i}");
    }
    // The delete from `h` maintains no view.
    assert_eq!(bits(child.terms(DELETE_H)), bits(a.table.terms(DELETE_H)));
}

#[test]
fn a_shell_no_index_serves_folds_like_the_definition() {
    let a = Arms::new();
    let model = CostModel::default();
    let h = a.db.table_by_name("h").unwrap().id;
    // Only `r`'s indexes: the delete from `h` maintains nothing, and its
    // sum is `+0.0` — one zero term per index it leaves alone.
    let mut config = a.config.clone();
    for i in config.indexes_on(h).cloned().collect::<Vec<_>>() {
        config.remove_index(&i);
    }
    let table = ShellTable::build(&model, &PhysicalSchema::new(&a.db, &config), &a.w);
    assert!(table.terms(DELETE_H).is_empty());
    assert_eq!(table.fold(DELETE_H).to_bits(), 0f64.to_bits());
    assert_folds(&table, &a.db, &config, &a.w, "no index on h");
    // No index at all: the sum has no term, and its sign is the
    // definition's.
    let empty = Configuration::new();
    let table = ShellTable::build(&model, &PhysicalSchema::new(&a.db, &empty), &a.w);
    assert!(table.terms(WRITE_R).is_empty() && table.terms(DELETE_H).is_empty());
    assert_folds(&table, &a.db, &empty, &a.w, "empty configuration");
    // Derived down to nothing, the same.
    let removed: Vec<Index> = a.config.indexes().cloned().collect();
    let views: Vec<TableId> = a.config.views().map(|v| v.id).collect();
    let mut none = a.config.clone();
    for v in views {
        none.remove_view(v);
    }
    for i in &removed {
        none.remove_index(i);
    }
    assert_eq!(none.index_count(), 0);
    let child = a.table.child(
        &model,
        &PhysicalSchema::new(&a.db, &none),
        &a.w,
        &removed,
        &[],
    );
    assert_folds(&child, &a.db, &none, &a.w, "derived to empty");
}
