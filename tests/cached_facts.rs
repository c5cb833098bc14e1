//! Signatures computed once and remembered must equal their formulas.
//! The signature a configuration stores per structure is checked along
//! 48 select-only seeded walks of `tests/facts_walk`, after every step
//! and on clones, unions and a JSON round trip. The shared store's
//! schema signature is computed once per `Database` value; it must be
//! bit-equal to the uncached formula for every catalog the repository
//! ships, and for clones taken before and after its first use. The
//! signatures of those catalogs are also pinned as literals.

mod facts_walk;

use pdtune::tuner::shared::{schema_signature, schema_signature_uncached};
use pdtune::workloads::bench::{bench_database, BenchParams};
use pdtune::workloads::star::{star_database, StarParams};
use pdtune::workloads::tpch;

#[test]
fn cached_structure_signatures_equal_their_definitions() {
    facts_walk::walk(260..308, &[0.0]);
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

/// The schema signature of every catalog the repository ships, pinned
/// bit for bit. These values are also the namespace of every warm-store
/// file: a catalog byte that moves would silently cold-start them all,
/// so a change to the statistics generator is correct only if none of
/// these literals moves.
#[test]
fn schema_signatures_are_pinned() {
    let catalogs = [
        tpch::tpch_database(0.01),
        tpch::tpch_database(0.02),
        tpch::tpch_database(0.05),
        tpch::tpch_database(0.1),
        tpch::tpch_database(1.0),
        star_database(&StarParams::ds1()),
        star_database(&StarParams::ds2()),
        bench_database(&BenchParams::default()),
    ];
    let pinned: [u128; 8] = [
        0x62b4b49864003594bc1598ebf4cb0728, // TPC-H sf 0.01
        0x31379d8853d4457722f39007cc88381d, // TPC-H sf 0.02
        0xc171e9a0151e06fc059128b1c3581125, // TPC-H sf 0.05
        0xf3cf6a6b1954371ba01041fc2bc2687e, // TPC-H sf 0.1
        0xfd42efed3d669496ee80ae87dd9ac73c, // TPC-H sf 1
        0x2aafa42beac492afc20b5ad021b9630f, // DS1
        0x38d90054b7732004d49d18e4cc27bab9, // DS2
        0x820d7496d3fb4a6583a9abc255a53c1e, // BENCH
    ];
    let actual: Vec<u128> = catalogs.iter().map(schema_signature_uncached).collect();
    assert_eq!(actual, pinned);
}
