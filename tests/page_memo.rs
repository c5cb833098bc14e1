//! A configuration remembers each index's page count
//! (`SizeModel::index_pages`), and the memo travels with its clones. One
//! configuration may still be priced against several catalogs: here
//! TPC-H at two scale factors, whose tables have the same ids and
//! different row counts. Each catalog must get its own sizes and what-if
//! costs, bit-equal to those of a configuration that has memoized
//! nothing, whichever catalog prices it first.

use pdtune::opt::Optimizer;
use pdtune::prelude::*;
use pdtune::tuner::instrument::gather_optimal_configuration;
use pdtune::workloads::tpch;

/// `config`'s structures in a configuration that remembers nothing.
fn unmemoized(config: &Configuration) -> Configuration {
    let mut fresh = Configuration::new();
    for v in config.views() {
        fresh.add_view(v.clone());
    }
    for i in config.indexes() {
        assert!(fresh.add_index(i.clone()));
    }
    fresh
}

/// `config`'s size and what-if cost per query under `db`, as bits.
fn prices(db: &Database, workload: &Workload, config: &Configuration) -> (u64, Vec<u64>) {
    let opt = Optimizer::new(db);
    let costs = workload
        .entries
        .iter()
        .filter_map(|e| e.select.as_ref())
        .map(|q| opt.what_if(config, &opt.prepare(q)).cost.to_bits())
        .collect();
    (config.size_bytes(db).to_bits(), costs)
}

#[test]
fn each_catalog_gets_its_own_page_counts() {
    let small = tpch::tpch_database(0.01);
    let large = tpch::tpch_database(1.0);
    let spec = tpch::tpch_workload();
    let w_small = Workload::bind(&small, &spec.statements).unwrap();
    let w_large = Workload::bind(&large, &spec.statements).unwrap();
    // Index-only, every plan reads base-table indexes; with views, most
    // read views (sized from their own entries) and their indexes.
    for with_views in [false, true] {
        let (optimal, _) = gather_optimal_configuration(&small, &w_small, with_views);
        assert_eq!(optimal.view_count() > 0, with_views);
        let expect_small = prices(&small, &w_small, &unmemoized(&optimal));
        let expect_large = prices(&large, &w_large, &unmemoized(&optimal));
        assert_ne!(expect_small.0, expect_large.0, "the catalogs differ");
        if !with_views {
            assert_ne!(expect_small.1, expect_large.1, "so do their costs");
        }

        for small_first in [true, false] {
            let config = unmemoized(&optimal);
            for round in 0..2 {
                for on_small in [small_first, !small_first] {
                    // A clone carries the memo the original filled.
                    let config = if round == 0 { &config } else { &config.clone() };
                    let (got, want) = if on_small {
                        (prices(&small, &w_small, config), &expect_small)
                    } else {
                        (prices(&large, &w_large, config), &expect_large)
                    };
                    assert_eq!(
                        &got, want,
                        "views: {with_views}, small first: {small_first}, \
                         round {round}, on small: {on_small}"
                    );
                }
            }
            let first = if small_first { &small } else { &large };
            assert_eq!(
                config.memoized_pages(first).count(),
                config.index_count(),
                "the first catalog to price an index memoizes its pages"
            );
        }
    }
}
