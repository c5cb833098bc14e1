//! The seeded walk of the node-facts suite (`tests/node_facts.rs`): it
//! drives `NodeFacts::child` over every transformation kind, a pre-pass
//! leg of removals and §3.5 shrinks folded into a step, and checks every
//! fact against scratch after every step, counting what was carried so
//! no side passes vacuously; along the way every signature a
//! configuration stores must be its structure's.
//!
//! Four suites walk it, each over its own seeds and write mixes:
//! `node_facts`, and `cbv_carry`, `shell_tables` and `cached_facts`,
//! which once walked one fact each and keep the seed counts and write
//! mixes they walked then. Every walk checks every fact; the four test
//! binaries run side by side.

use pdtune::catalog::Database;
use pdtune::opt::{CostModel, Optimizer};
use pdtune::physical::{index_sig128, view_sig128, Configuration, Index, PhysicalSchema};
use pdtune::tuner::eval::{shell_cost, ShellTable};
use pdtune::tuner::node::{FactCtx, NodeFacts};
use pdtune::tuner::transform::{
    apply, candidates, inherits, removal_candidates, AppliedTransform, TransformDelta,
    Transformation,
};
use pdtune::tuner::{config_from_json, config_to_json, gather_optimal_configuration, Workload};
use pdtune::workloads::bench::{bench_database, bench_workload, BenchParams};
use pdtune::workloads::star::{star_database, star_workload, StarParams};
use pdtune::workloads::{tpch, updates, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::ops::Range;

/// Debug builds also check every derivation inside the engine and are
/// an order of magnitude slower: they walk the first `WALK_CAP` seeds
/// of each suite. The sweeps proper run in release (CI runs them there).
const WALK_CAP: usize = if cfg!(debug_assertions) {
    8
} else {
    usize::MAX
};
const STEPS: usize = 40;
const PREPASS_STEPS: usize = 4;

/// Case `seed`: by `family`, a wide star schema (0: DS1, 1: DS2),
/// TPC-H (2) or the bench schema drawn from `bench_seed` (3), with
/// `ratio` writes per read (none at zero).
pub fn case(family: u64, bench_seed: u64, seed: u64, ratio: f64) -> (Database, Workload) {
    let (db, spec): (Database, WorkloadSpec) = match family {
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
                seed: bench_seed,
                ..BenchParams::default()
            });
            let spec = bench_workload(&db, seed, 10);
            (db, spec)
        }
    };
    let spec = if ratio > 0.0 {
        updates::with_updates(&db, &spec, ratio, seed)
    } else {
        spec
    };
    let workload = Workload::bind(&db, &spec.statements).expect("generated workloads bind");
    (db, workload)
}

pub fn cx<'a>(
    db: &'a Database,
    model: &'a CostModel,
    workload: &'a Workload,
    base: &'a Configuration,
) -> FactCtx<'a> {
    FactCtx {
        db,
        model,
        workload,
        base,
        from_scratch: false,
        // The tests check explicitly, in every build.
        validate: false,
    }
}

pub fn kind(t: &Transformation) -> &'static str {
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

/// Price every view of `config` in `facts`' CBV table, so the next step
/// has entries to carry.
fn price_views(facts: &NodeFacts, cx: FactCtx<'_>, config: &Configuration) {
    for v in config.views() {
        facts.view_costs.get(cx.db, cx.model, config, v.id);
    }
}

/// Panic unless every entry of `table` folds to `shell_cost` under
/// `config`, bit for bit.
pub fn assert_folds(table: &ShellTable, cx: FactCtx<'_>, config: &Configuration, ctx: &str) {
    let schema = PhysicalSchema::new(cx.db, config);
    for (i, entry) in cx.workload.entries.iter().enumerate() {
        let want = entry
            .shell
            .as_ref()
            .map_or(0.0, |s| shell_cost(cx.model, &schema, s));
        assert_eq!(
            table.fold(i).to_bits(),
            want.to_bits(),
            "{ctx}: entry {i} folds to {} not {want}",
            table.fold(i)
        );
    }
}

/// The bound's view of the child's shells — read from the parent's
/// table, the child never built — against `shell_cost` under the child.
fn assert_relaxed_folds(
    parent: &ShellTable,
    cx: FactCtx<'_>,
    parent_config: &Configuration,
    step: &AppliedTransform,
    ctx: &str,
) {
    let old_schema = PhysicalSchema::new(cx.db, parent_config);
    let new_schema = old_schema.relaxed(&step.removed_views, step.added_view.as_ref());
    let relaxed = parent.relaxed(cx.model, &new_schema, parent_config, &step.delta);
    let child_schema = PhysicalSchema::new(cx.db, &step.config);
    for (i, entry) in cx.workload.entries.iter().enumerate() {
        let Some(s) = &entry.shell else { continue };
        assert_eq!(
            relaxed.cost(i, s).to_bits(),
            shell_cost(cx.model, &child_schema, s).to_bits(),
            "{ctx}: relaxed fold of entry {i}"
        );
    }
}

/// Panic unless every signature `config` stores is its structure's
/// signature recomputed from scratch, through every accessor.
fn assert_cached(config: &Configuration, ctx: &str) {
    assert_eq!(config.indexes_with_sigs().count(), config.index_count());
    for (i, sig) in config.indexes_with_sigs() {
        assert_eq!(sig, index_sig128(i), "{ctx}: stale signature of {i}");
        assert_eq!(config.index_sig(i), Some(sig), "{ctx}: lookup of {i}");
    }
    assert_eq!(config.views_with_sigs().count(), config.view_count());
    for (v, sig) in config.views_with_sigs() {
        let id = v.id;
        assert_eq!(sig, view_sig128(id, v), "{ctx}: stale signature of {id}");
        assert_eq!(config.view_with_sig(id).map(|(_, s)| s), Some(sig), "{ctx}");
    }
}

/// [`assert_cached`] on `config` and on everything built from it:
/// clones, unions both ways (which re-register colliding views under
/// fresh ids), and a JSON round trip of its index-only part (each view
/// removal drains a range of indexes).
fn assert_cached_everywhere(config: &Configuration, other: &Configuration, ctx: &str) {
    assert_cached(config, ctx);
    assert_cached(&config.clone(), &format!("{ctx}, clone"));
    assert_cached(&config.union(other), &format!("{ctx}, union"));
    assert_cached(&other.union(config), &format!("{ctx}, union rev"));
    let mut indexes_only = config.clone();
    for id in config.views().map(|v| v.id).collect::<Vec<_>>() {
        assert!(indexes_only.remove_view(id));
        assert_cached(&indexes_only, &format!("{ctx}, after remove_view"));
    }
    let json = config_to_json(&indexes_only).expect("index-only configurations serialize");
    let back = config_from_json(&json).expect("round trips");
    assert_eq!(back.signature128(), indexes_only.signature128(), "{ctx}");
    assert_cached(&back, &format!("{ctx}, json"));
}

/// Up to two tunable base-table indexes of `step.config`, one of them
/// an index the step added when it added any: a §3.5 shrink that
/// cancels an addition as well as removing a survivor.
fn shrink_picks(step: &AppliedTransform, base: &Configuration, rng: &mut StdRng) -> Vec<Index> {
    let tunable: Vec<&Index> = step
        .config
        .indexes()
        .filter(|i| !base.contains_index(i) && !i.table.is_view())
        .collect();
    let mut picks: Vec<Index> = Vec::new();
    if let Some(added) = step.added_indexes.iter().find(|a| tunable.contains(a)) {
        picks.push(added.clone());
    }
    if !tunable.is_empty() {
        let other = tunable[rng.gen_range(0..tunable.len())];
        if !picks.contains(other) {
            picks.push(other.clone());
        }
    }
    picks
}

#[derive(Default)]
pub struct Tally {
    steps: usize,
    prepass: usize,
    shrinks: usize,
    cancelled: usize,
    carried_cbv: usize,
    recomputed_cbv: usize,
    shell_terms: usize,
    kinds: BTreeSet<&'static str>,
}

/// One step of the walk: derive `parent`'s child through `step` and
/// check every fact against scratch.
pub fn derive(
    parent: &NodeFacts,
    cx: FactCtx<'_>,
    parent_config: &Configuration,
    step: &AppliedTransform,
    tally: &mut Tally,
    ctx: &str,
) -> NodeFacts {
    assert_relaxed_folds(&parent.shells, cx, parent_config, step, ctx);
    let child = parent.child(cx, step);
    child.assert_matches_scratch(cx, &step.config);
    assert_folds(&child.shells, cx, &step.config, ctx);
    let carried = child
        .view_costs
        .assert_matches_scratch(cx.db, cx.model, &step.config);
    tally.carried_cbv += carried;
    tally.recomputed_cbv += step.config.view_count() - carried;
    tally.shell_terms += (0..cx.workload.entries.len())
        .map(|i| child.shells.terms(i).len())
        .sum::<usize>();
    price_views(&child, cx, &step.config);
    child
}

/// Walk every seed of `seeds` — DS1, DS2, TPC-H and a bench schema of
/// its own by `seed % 4`, successive groups of four cycling through the
/// write mixes `ratios` — for up to `PREPASS_STEPS` pre-pass removals and
/// `STEPS` steps.
pub fn walk(seeds: Range<u64>, ratios: &[f64]) {
    let seeds: Vec<u64> = seeds.take(WALK_CAP).collect();
    let n = seeds.len();
    let model = CostModel::default();
    let mut tally = Tally::default();
    for seed in seeds {
        let ratio = ratios[(seed / 4) as usize % ratios.len()];
        let (db, w) = case(seed % 4, seed, seed, ratio);
        let (opt, base) = (Optimizer::new(&db), Configuration::base(&db));
        let cx = cx(&db, &model, &w, &base);
        let (optimal, _) = gather_optimal_configuration(&db, &w, true);
        assert_cached(&optimal, "optimal");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut config = optimal.clone();
        let mut facts = NodeFacts::scratch(cx, &config);
        price_views(&facts, cx, &config);
        // The pre-pass leg: removals only, enumerated directly, then
        // carried by the inheritance half of the candidate rule. Both
        // must be the removal subset of the full enumeration.
        let mut removals = removal_candidates(&config, &base);
        for step in 0..PREPASS_STEPS {
            let full = candidates(&config, &base).into_iter();
            let subset: Vec<_> = full
                .filter(|t| matches!(kind(t), "remove" | "remove-view"))
                .collect();
            assert_eq!(removals, subset, "seed {seed} pre-pass step {step}");
            if removals.is_empty() {
                break;
            }
            let t = removals[rng.gen_range(0..removals.len())].clone();
            let applied = apply(&t, &config, &db, &opt).expect("removals apply");
            let ctx = format!("seed {seed} pre-pass step {step}: {t}");
            facts = derive(&facts, cx, &config, &applied, &mut tally, &ctx);
            removals.retain(|r| inherits(r, &applied, &applied.config));
            config = applied.config;
            tally.prepass += 1;
        }
        for step in 0..STEPS {
            let all = facts.candidates(cx, &config);
            facts.assert_matches_scratch(cx, &config);
            for (t, sig) in all.iter() {
                assert_eq!(*sig, t.sig(), "seed {seed}: stale {t}");
            }
            if all.is_empty() {
                break;
            }
            // Views are few and index candidates many: give the view
            // kinds a fair share so merges (which create views) happen.
            let views: Vec<&Transformation> = all
                .iter()
                .map(|(t, _)| &**t)
                .filter(|t| matches!(kind(t), "merge-views" | "remove-view"))
                .collect();
            let t = if !views.is_empty() && rng.gen_bool(0.3) {
                views[rng.gen_range(0..views.len())]
            } else {
                &all[rng.gen_range(0..all.len())].0
            };
            let Some(applied) = apply(t, &config, &db, &opt) else {
                continue;
            };
            let ctx = format!("seed {seed} step {step}: {t}");
            let mut child = derive(&facts, cx, &config, &applied, &mut tally, &ctx);
            assert_cached_everywhere(&applied.config, &optimal, &ctx);
            tally.kinds.insert(kind(t));
            tally.steps += 1;
            config = applied.config.clone();
            // A §3.5 shrink folded into the same step: the child's list
            // is then derived from the parent's through the net delta.
            let picks = shrink_picks(&applied, &base, &mut rng);
            if !picks.is_empty() && rng.gen_bool(0.25) {
                tally.cancelled += picks
                    .iter()
                    .filter(|p| applied.added_indexes.contains(p))
                    .count();
                let shrunk = TransformDelta::removing(picks).materialize(&config);
                let ctx = format!("{ctx}, shrunk");
                child = derive(&child, cx, &config, &shrunk, &mut tally, &ctx);
                config = shrunk.config;
                tally.shrinks += 1;
            }
            facts = child;
        }
    }
    let Tally { steps, .. } = tally;
    assert!(steps > 10 * n, "walks too short: {steps} steps");
    // Select-only walks keep their views longer: fewer recomputations.
    assert!(
        tally.carried_cbv > steps && tally.recomputed_cbv > steps / 2,
        "carried {}, recomputed {} CBV entries over {steps} steps",
        tally.carried_cbv,
        tally.recomputed_cbv
    );
    if ratios.iter().any(|r| *r > 0.0) {
        assert!(
            tally.shell_terms > steps,
            "only {} shell terms",
            tally.shell_terms
        );
    }
    assert!(tally.prepass > n, "{} pre-pass steps", tally.prepass);
    assert!(
        tally.shrinks > n && tally.cancelled > 0,
        "{} shrinks, {} cancelled additions",
        tally.shrinks,
        tally.cancelled
    );
    assert_eq!(tally.kinds.len(), 7, "kinds walked: {:?}", tally.kinds);
}
