//! Property tests for the carried CBV table (`ViewBuildCosts::carried`):
//! an entry carried from a configuration to a relaxed one must be
//! bit-equal — cost bits and rebuild usages — to a from-scratch
//! computation against the relaxed configuration. A stale-low CBV breaks
//! the §3.3.2 upper-bound guarantee (the PR 2 "stale CBV memo keying"
//! bug), a stale-high one moves the trace bytes.
//!
//! Three angles. Real sessions run under the bound oracle, which
//! verifies every table the engine carries (each pre-pass step, each
//! pooled node) and panics on a mismatch; their traces must also equal
//! the reference engine's, which never carries. Random walks drive the
//! rule directly over every transformation kind and count what it
//! carried and what it left to recompute, so neither side passes
//! vacuously. And one small schema pins each arm of the rule: a carried
//! entry shares its usages `Arc` with the parent's, a recomputed one
//! never does, so the arms are observable from outside.

use pdtune::catalog::{Column, ColumnId, ColumnStats, ColumnType, Database, TableId};
use pdtune::expr::{Interval, Sarg, SargablePred};
use pdtune::opt::{CostModel, Optimizer};
use pdtune::physical::{Configuration, Index, MaterializedView, SpjgExpr};
use pdtune::trace::Tracer;
use pdtune::tuner::bound::ViewBuildCosts;
use pdtune::tuner::transform::{apply, candidates, AppliedTransform, Transformation};
use pdtune::tuner::{
    gather_optimal_configuration, tune_session, Reference, SessionCtl, TunerOptions, Workload,
};
use pdtune::workloads::bench::{bench_database, bench_workload, BenchParams};
use pdtune::workloads::star::{star_database, star_workload, StarParams};
use pdtune::workloads::{updates, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Debug builds cross-validate every bound against a from-scratch CBV
/// already and are an order of magnitude slower; the sweep proper runs
/// in release (CI runs it there).
const SESSIONS: u64 = if cfg!(debug_assertions) { 9 } else { 108 };
const WALKS: u64 = if cfg!(debug_assertions) { 6 } else { 60 };

/// Case `seed` of the sweep: a wide star schema (DS1, DS2) or the
/// random bench schema, select-only or with a write mix.
fn case(seed: u64) -> (Database, Workload) {
    let update_ratio = [0.0, 0.25, 0.5][(seed / 3 % 3) as usize];
    let (db, spec): (Database, WorkloadSpec) = match seed % 3 {
        0 => {
            let p = StarParams::ds1();
            (star_database(&p), star_workload(&p, seed, 6))
        }
        1 => {
            let p = StarParams::ds2();
            (star_database(&p), star_workload(&p, seed, 6))
        }
        _ => {
            let db = bench_database(&BenchParams::default());
            let spec = bench_workload(&db, seed, 10);
            (db, spec)
        }
    };
    let spec = if update_ratio > 0.0 {
        updates::with_updates(&db, &spec, update_ratio, seed)
    } else {
        spec
    };
    let workload = Workload::bind(&db, &spec.statements).expect("generated workloads bind");
    (db, workload)
}

#[test]
fn sessions_carry_only_entries_a_recomputation_reproduces() {
    let mut view_steps = 0;
    for seed in 0..SESSIONS {
        let (db, workload) = case(seed);
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
                    threads: 1 + (seed % 2) as usize,
                    shrink_unused: seed % 4 == 3,
                    // The oracle verifies every carried table against a
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
            "seed {seed}: the carrying engine's trace diverged from the reference engine's"
        );
        view_steps += carried.matches("remove-view(").count();
    }
    assert!(
        view_steps > SESSIONS as usize,
        "only {view_steps} view removals priced across the sweep"
    );
}

#[test]
fn random_walks_carry_exactly_what_a_recomputation_reproduces() {
    let model = CostModel::default();
    let (mut carried_total, mut recomputed_total, mut steps) = (0usize, 0usize, 0usize);
    for seed in 0..WALKS {
        let (db, workload) = case(seed);
        let opt = Optimizer::new(&db);
        let base = Configuration::base(&db);
        let (mut config, _) = gather_optimal_configuration(&db, &workload, true);
        let mut rng = StdRng::seed_from_u64(seed);
        let price_all = |table: &ViewBuildCosts, config: &Configuration| {
            for v in config.views() {
                table.get(&db, &model, config, v.id);
            }
        };
        let mut table = ViewBuildCosts::new();
        price_all(&table, &config);
        for _ in 0..40 {
            let all = candidates(&config, &base);
            if all.is_empty() {
                break;
            }
            // Any kind, so additions (merge, split, prefix, promote,
            // view merges) are walked as well as removals.
            let t = &all[rng.gen_range(0..all.len())];
            let Some(applied) = apply(t, &config, &db, &opt) else {
                continue;
            };
            let child = table.carried(
                &applied.config,
                &applied.removed_indexes,
                &applied.removed_views,
                &applied.added_indexes,
            );
            let carried = child.assert_matches_scratch(&db, &model, &applied.config);
            carried_total += carried;
            recomputed_total += applied.config.view_count() - carried;
            steps += 1;
            price_all(&child, &applied.config);
            table = child;
            config = applied.config;
        }
    }
    assert!(
        steps > 10 * WALKS as usize,
        "walks too short: {steps} steps"
    );
    assert!(
        carried_total > steps && recomputed_total > steps,
        "carried {carried_total}, recomputed {recomputed_total} over {steps} steps"
    );
}

// ---- one test per arm of the rule -----------------------------------

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
    out: u16,
) -> TableId {
    let t = db.table_by_name(table).unwrap().id;
    let def = SpjgExpr {
        tables: [t].into(),
        output_cols: [ColumnId::new(t, out)].into(),
        ranges: vec![at_most_10(ColumnId::new(t, pred))],
        ..Default::default()
    };
    let vid = config.allocate_view_id();
    config.add_view(MaterializedView::create(vid, def, 1000.0, db));
    config.add_index(Index::clustered(vid, [ColumnId::new(vid, 0)]));
    vid
}

/// `r(id pk, a, b, c, d)` and a heap `h(x, y, z)`; one view over each
/// (`vr`: `b <= 10` on `r`, `vh`: `y <= 10` on `h`), each with a
/// covering index its rebuild plan seeks, plus indexes neither rebuild
/// can use.
struct Arms {
    db: Database,
    config: Configuration,
    vr: TableId,
    vh: TableId,
    /// `IX(r [b]; {a})`: what `vr`'s rebuild seeks.
    r_cover: Index,
    /// `IX(r [b])`: seekable for `vr`, but loses to `r_cover`.
    r_narrow: Index,
    /// `IX(r [c])`: useless to `vr`.
    r_c: Index,
    /// `IX(h [y]; {x})`: what `vh`'s rebuild seeks.
    h_cover: Index,
}

/// A parent table with both views priced, carried across one step.
struct Step<'a> {
    arms: &'a Arms,
    parent: ViewBuildCosts,
    child: ViewBuildCosts,
    child_config: Configuration,
}

impl Arms {
    fn new() -> Arms {
        let mut b = Database::builder("arms");
        let same =
            |names: &[&str]| int_columns(&names.iter().map(|n| (*n, 1_000.0)).collect::<Vec<_>>());
        b.add_table("r", 1_000_000.0, same(&["id", "a", "b", "c", "d"]), vec![0]);
        b.add_table("h", 500_000.0, same(&["x", "y", "z"]), vec![]);
        let db = b.build();
        let r = db.table_by_name("r").unwrap().id;
        let h = db.table_by_name("h").unwrap().id;
        let col = ColumnId::new;
        let r_cover = Index::new(r, [col(r, 2)], [col(r, 1)]);
        let r_narrow = Index::new(r, [col(r, 2)], []);
        let r_c = Index::new(r, [col(r, 3)], []);
        let h_cover = Index::new(h, [col(h, 1)], [col(h, 0)]);
        let mut config = Configuration::base(&db);
        for i in [
            r_cover.clone(),
            r_narrow.clone(),
            r_c.clone(),
            Index::new(r, [col(r, 3), col(r, 4)], []),
            Index::new(r, [col(r, 4), col(r, 3)], [col(r, 1)]),
            h_cover.clone(),
            // Useless to `vh`, promotable (`h` is a heap).
            Index::new(h, [col(h, 2)], []),
        ] {
            assert!(config.add_index(i));
        }
        let vr = range_view(&db, &mut config, "r", 2, 1);
        let vh = range_view(&db, &mut config, "h", 1, 0);
        Arms {
            db,
            config,
            vr,
            vh,
            r_cover,
            r_narrow,
            r_c,
            h_cover,
        }
    }

    fn priced(&self) -> ViewBuildCosts {
        let table = ViewBuildCosts::new();
        for v in self.config.views() {
            assert!(table.get(&self.db, &CostModel::default(), &self.config, v.id) > 0.0);
        }
        table
    }

    fn step(&self, t: &Transformation) -> (Step<'_>, AppliedTransform) {
        let opt = Optimizer::new(&self.db);
        let applied = apply(t, &self.config, &self.db, &opt).expect("applies");
        let step = self.carry(
            applied.config.clone(),
            &applied.removed_indexes,
            &applied.removed_views,
            &applied.added_indexes,
        );
        (step, applied)
    }

    fn carry(
        &self,
        child_config: Configuration,
        removed_indexes: &[Index],
        removed_views: &[TableId],
        added_indexes: &[Index],
    ) -> Step<'_> {
        let parent = self.priced();
        let child = parent.carried(&child_config, removed_indexes, removed_views, added_indexes);
        // Whatever was carried must be what a fresh table computes.
        child.assert_matches_scratch(&self.db, &CostModel::default(), &child_config);
        Step {
            arms: self,
            parent,
            child,
            child_config,
        }
    }
}

impl Step<'_> {
    /// Was `view`'s entry carried (the child serves the parent's very
    /// `Arc` of usages) rather than left to recompute?
    fn carried(&self, view: TableId) -> bool {
        let model = CostModel::default();
        let (_, old) = self
            .parent
            .get_with_usages(&self.arms.db, &model, &self.arms.config, view);
        let (_, new) = self
            .child
            .get_with_usages(&self.arms.db, &model, &self.child_config, view);
        Arc::ptr_eq(&old, &new)
    }
}

#[test]
fn unrelated_removal_carries_every_entry() {
    let a = Arms::new();
    let (step, _) = a.step(&Transformation::RemoveIndex {
        index: a.r_c.clone(),
    });
    assert!(step.carried(a.vr) && step.carried(a.vh));
}

#[test]
fn removing_an_index_the_rebuild_used_recomputes() {
    let a = Arms::new();
    let model = CostModel::default();
    let (old_cost, old_usages) = a.priced().get_with_usages(&a.db, &model, &a.config, a.vr);
    assert!(old_usages.iter().any(|u| u.index == a.r_cover));
    let (step, applied) = a.step(&Transformation::RemoveIndex {
        index: a.r_cover.clone(),
    });
    assert!(!step.carried(a.vr), "stale entry carried");
    assert!(step.carried(a.vh));
    let fresh = step.child.get(&a.db, &model, &applied.config, a.vr);
    assert!(fresh > old_cost, "losing the covering index costs more");
}

#[test]
fn removals_that_can_create_candidates_recompute() {
    let a = Arms::new();
    // A seekable index outside the winning plan: removing it can
    // reshuffle the rid-intersection window.
    let (_, usages) = a
        .priced()
        .get_with_usages(&a.db, &CostModel::default(), &a.config, a.vr);
    assert!(!usages.iter().any(|u| u.index == a.r_narrow));
    let (step, _) = a.step(&Transformation::RemoveIndex {
        index: a.r_narrow.clone(),
    });
    assert!(!step.carried(a.vr) && step.carried(a.vh));
    // Losing the clustered index turns the base scan into a heap scan.
    // No transformation removes a base one, so go through the rule
    // directly.
    let pk = a.config.clustered_index_on(a.r_c.table).unwrap().clone();
    let mut without_pk = a.config.clone();
    without_pk.remove_index(&pk);
    let step = a.carry(without_pk, &[pk], &[], &[]);
    assert!(!step.carried(a.vr) && step.carried(a.vh));
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
    let mut config = Configuration::base(&db);
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

    let model = CostModel::default();
    let parent = ViewBuildCosts::new();
    let (old_cost, old_usages) = parent.get_with_usages(&db, &model, &config, vid);
    let gone = b_led
        .iter()
        .find(|i| !old_usages.iter().any(|u| u.index == **i))
        .expect("at most one b-led index is in the winning plan");
    let mut child_config = config.clone();
    child_config.remove_index(gone);
    let child = parent.carried(&child_config, std::slice::from_ref(gone), &[], &[]);
    let (new_cost, new_usages) = child.get_with_usages(&db, &model, &child_config, vid);
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
    let base = Configuration::base(&a.db);
    let mut kinds = BTreeSet::new();
    // Leave the indexes the rebuilds can use alone: this test is about
    // additions.
    let used = |i: &Index| [&a.r_cover, &a.r_narrow, &a.h_cover].contains(&i) || i.table.is_view();
    for t in candidates(&a.config, &base) {
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
        let (step, applied) = a.step(&t);
        let Some(added) = applied.added_indexes.first() else {
            continue;
        };
        let (touched, other) = if added.table == a.r_c.table {
            (a.vr, a.vh)
        } else {
            (a.vh, a.vr)
        };
        assert!(!step.carried(touched), "{t}: stale entry carried");
        assert!(step.carried(other), "{t}: unrelated entry dropped");
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
    let (step, _) = a.step(&Transformation::RemoveView { view: a.vr });
    assert!(!step.carried(a.vr) && step.carried(a.vh));

    // A second view over `r` to merge `vr` with.
    let db = a.db.clone();
    let vr2 = range_view(&db, &mut a.config, "r", 2, 3);
    let (step, applied) = a.step(&Transformation::MergeViews { v1: a.vr, v2: vr2 });
    let merged = applied.added_view.as_ref().unwrap().id;
    assert!(!step.carried(a.vr) && !step.carried(vr2) && step.carried(a.vh));
    let model = CostModel::default();
    let (cost, usages) = step
        .child
        .get_with_usages(&a.db, &model, &applied.config, merged);
    let (scratch, scratch_usages) =
        ViewBuildCosts::new().get_with_usages(&a.db, &model, &applied.config, merged);
    assert!(cost > 0.0);
    assert_eq!(cost.to_bits(), scratch.to_bits());
    assert_eq!(*usages, *scratch_usages);
}
