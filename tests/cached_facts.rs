//! Facts computed once per structure or per catalog must equal their
//! definitions recomputed from scratch.
//!
//! A `Configuration` stores each index's and each view's 128-bit
//! signature once computed, clones carry it, and every what-if cache
//! key is built from those stored values; a stale one would alias two
//! configurations' answers. Seeded random walks drive configurations
//! through every transformation kind (index merges, splits, prefixes,
//! promotions and removals; view merges, which create a view and
//! promote indexes onto it; view removals, which drain a range of
//! indexes), and after every step — and after `clone`, `union` and a
//! `config_to_json` / `config_from_json` round trip — every stored
//! signature must be `index_sig128` / `view_sig128` of its structure.
//!
//! The shared store's schema signature is computed once per `Database`
//! value; it must be bit-equal to the uncached formula for every
//! catalog the repository ships, and for clones taken before and after
//! its first use.

use pdtune::catalog::Database;
use pdtune::opt::Optimizer;
use pdtune::physical::{index_sig128, view_sig128, Configuration};
use pdtune::tuner::shared::{schema_signature, schema_signature_uncached};
use pdtune::tuner::transform::{apply, candidates, Transformation};
use pdtune::tuner::{config_from_json, config_to_json, gather_optimal_configuration, Workload};
use pdtune::workloads::bench::{bench_database, bench_workload, BenchParams};
use pdtune::workloads::star::{star_database, star_workload, StarParams};
use pdtune::workloads::tpch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const WALKS: u64 = if cfg!(debug_assertions) { 6 } else { 48 };
const STEPS: usize = 40;

/// Panic unless every signature `config` stores is its structure's
/// signature recomputed from scratch, through every accessor.
fn assert_cached(config: &Configuration, ctx: &str) {
    assert_eq!(
        config.indexes_with_sigs().count(),
        config.index_count(),
        "{ctx}"
    );
    for (i, sig) in config.indexes_with_sigs() {
        assert_eq!(sig, index_sig128(i), "{ctx}: stale signature of {i}");
        assert_eq!(config.index_sig(i), Some(sig), "{ctx}: lookup of {i}");
    }
    assert_eq!(
        config.views_with_sigs().count(),
        config.view_count(),
        "{ctx}"
    );
    for (v, sig) in config.views_with_sigs() {
        assert_eq!(
            sig,
            view_sig128(v.id, v),
            "{ctx}: stale signature of {}",
            v.id
        );
        assert_eq!(
            config.view_with_sig(v.id).map(|(_, s)| s),
            Some(sig),
            "{ctx}"
        );
    }
}

/// Walk `seed`'s schema: a wide star (DS1, DS2) with views, TPC-H, or a
/// random bench schema.
fn walk_case(seed: u64) -> (Database, Workload) {
    let (db, spec) = match seed % 4 {
        0 => {
            let p = StarParams::ds1();
            let db = star_database(&p);
            let spec = star_workload(&p, seed, 8);
            (db, spec)
        }
        1 => {
            let p = StarParams::ds2();
            let db = star_database(&p);
            let spec = star_workload(&p, seed, 8);
            (db, spec)
        }
        2 => (
            tpch::tpch_database(0.01),
            tpch::tpch_workload_variant(seed, 8),
        ),
        _ => {
            let db = bench_database(&BenchParams {
                seed,
                ..BenchParams::default()
            });
            let spec = bench_workload(&db, seed, 10);
            (db, spec)
        }
    };
    let workload = Workload::bind(&db, &spec.statements).expect("generated workloads bind");
    (db, workload)
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

/// The index-only part of `config`: every view removed, each removal
/// draining that view's range of indexes.
fn without_views(config: &Configuration) -> Configuration {
    let mut out = config.clone();
    let views: Vec<_> = out.views().map(|v| v.id).collect();
    for id in views {
        assert!(out.remove_view(id));
        assert_cached(&out, "after remove_view");
    }
    out
}

#[test]
fn cached_structure_signatures_equal_their_definitions() {
    let mut kinds = BTreeSet::new();
    let mut steps = 0;
    for seed in 0..WALKS {
        let (db, workload) = walk_case(seed);
        let opt = Optimizer::new(&db);
        let base = Configuration::base(&db);
        let (optimal, _) = gather_optimal_configuration(&db, &workload, true);
        assert_cached(&optimal, "optimal");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut config = optimal.clone();
        for step in 0..STEPS {
            let all = candidates(&config, &base);
            if all.is_empty() {
                break;
            }
            // Views are few and index candidates many: give the view
            // kinds a fair share so merges (which create views) happen.
            let views: Vec<&Transformation> = all
                .iter()
                .filter(|t| {
                    matches!(
                        t,
                        Transformation::MergeViews { .. } | Transformation::RemoveView { .. }
                    )
                })
                .collect();
            let t = if !views.is_empty() && rng.gen_bool(0.3) {
                views[rng.gen_range(0..views.len())]
            } else {
                &all[rng.gen_range(0..all.len())]
            };
            let Some(applied) = apply(t, &config, &db, &opt) else {
                continue;
            };
            let ctx = format!("seed {seed} step {step}: {t}");
            assert_cached(&applied.config, &ctx);
            assert_cached(&applied.config.clone(), &format!("{ctx}, clone"));
            // `union` re-registers views under fresh ids when they
            // collide, remapping their indexes.
            assert_cached(&applied.config.union(&optimal), &format!("{ctx}, union"));
            assert_cached(
                &optimal.union(&applied.config),
                &format!("{ctx}, union rev"),
            );
            let indexes_only = without_views(&applied.config);
            let json = config_to_json(&indexes_only).expect("index-only configurations serialize");
            let back = config_from_json(&json).expect("round trips");
            assert_eq!(back.signature128(), indexes_only.signature128(), "{ctx}");
            assert_cached(&back, &format!("{ctx}, json"));
            kinds.insert(kind(t));
            steps += 1;
            config = applied.config;
        }
    }
    assert!(
        steps > 10 * WALKS as usize,
        "walks too short: {steps} steps"
    );
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        [
            "merge",
            "merge-views",
            "prefix",
            "promote",
            "remove",
            "remove-view",
            "split"
        ],
        "a transformation kind was never walked"
    );
}

#[test]
fn memoized_schema_signature_equals_the_formula() {
    let catalogs = [
        tpch::tpch_database(0.01),
        tpch::tpch_database(1.0),
        star_database(&StarParams::ds1()),
        star_database(&StarParams::ds2()),
        bench_database(&BenchParams::default()),
    ];
    for db in &catalogs {
        let early_clone = db.clone();
        let sig = schema_signature_uncached(db);
        // First use computes and remembers; later uses read the memo.
        assert_eq!(schema_signature(db), sig, "{}", db.name);
        assert_eq!(schema_signature(db), sig, "{}", db.name);
        // A clone taken before the first use computes its own, one
        // taken after carries the remembered value: both are the
        // formula's bits.
        assert_eq!(schema_signature(&early_clone), sig, "{}", db.name);
        assert_eq!(schema_signature(&db.clone()), sig, "{}", db.name);
        // The memo answers for the name it was computed under only.
        let mut renamed = db.clone();
        renamed.name.push_str("-renamed");
        assert_eq!(
            schema_signature(&renamed),
            schema_signature_uncached(&renamed)
        );
        assert_ne!(schema_signature(&renamed), sig);
    }
    // Catalogs that differ in statistics only do not share a namespace.
    assert_ne!(
        schema_signature(&catalogs[0]),
        schema_signature(&catalogs[1])
    );
}
