//! The daemon's table of built catalogs.
//!
//! The tuner reads only catalog statistics, never rows, so a catalog is
//! a pure function of [`JobSpec::catalog_key`]. Every session the
//! daemon runs takes its `Arc<Database>` from one [`CatalogTable`]
//! instead of building its own: jobs over the same `(db, sf)` share one
//! catalog, and with it the shared store's schema signature, which the
//! catalog computes once and remembers. The table holds at most
//! `CATALOG_CAP` catalogs and evicts the least recently used one. It
//! is not persisted: a restarted daemon starts empty and rebuilds on
//! demand, the same catalog byte for byte.

use crate::job::{CatalogKey, JobSpec};
use pdt_catalog::Database;
use std::sync::{Arc, Mutex, MutexGuard};

/// Most catalogs one daemon keeps built. A TPC-H catalog's statistics
/// are tens of kB; the cap only stops a client that submits many
/// distinct scale factors from growing the table without bound.
const CATALOG_CAP: usize = 8;

/// Built catalogs by key, least recently used first.
#[derive(Debug, Default)]
pub struct CatalogTable {
    entries: Mutex<Vec<(CatalogKey, Arc<Database>)>>,
}

impl CatalogTable {
    /// The catalog `spec` runs against, built on the first request for
    /// its key. The build runs outside the lock; when two callers race
    /// on one key, both builds are identical and the first one stored
    /// is kept.
    pub fn get(&self, spec: &JobSpec) -> Result<Arc<Database>, String> {
        let key = spec.catalog_key();
        if let Some(db) = use_entry(&mut self.lock(), &key) {
            return Ok(db);
        }
        let built = Arc::new(spec.build_database()?);
        let mut entries = self.lock();
        if let Some(db) = use_entry(&mut entries, &key) {
            return Ok(db);
        }
        if entries.len() >= CATALOG_CAP {
            entries.remove(0);
        }
        entries.push((key, Arc::clone(&built)));
        Ok(built)
    }

    fn lock(&self) -> MutexGuard<'_, Vec<(CatalogKey, Arc<Database>)>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The catalog stored under `key`, now marked most recently used.
fn use_entry(
    entries: &mut Vec<(CatalogKey, Arc<Database>)>,
    key: &CatalogKey,
) -> Option<Arc<Database>> {
    let pos = entries.iter().position(|(k, _)| k == key)?;
    let entry = entries.remove(pos);
    let db = Arc::clone(&entry.1);
    entries.push(entry);
    Some(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tpch(sf: f64) -> JobSpec {
        JobSpec {
            sf,
            ..JobSpec::default()
        }
    }

    #[test]
    fn specs_that_differ_outside_the_key_share_one_catalog() {
        let table = CatalogTable::default();
        let base = tpch(0.01);
        let first = table.get(&base).unwrap();
        let variants = [
            JobSpec {
                seed: 9,
                ..base.clone()
            },
            JobSpec {
                queries: Some(3),
                ..base.clone()
            },
            JobSpec {
                updates: Some(0.5),
                ..base.clone()
            },
            JobSpec {
                budget: Some(2e6),
                ..base.clone()
            },
        ];
        for spec in &variants {
            assert!(Arc::ptr_eq(&first, &table.get(spec).unwrap()), "{spec:?}");
        }
    }

    #[test]
    fn a_different_tpch_scale_gets_a_different_catalog() {
        let table = CatalogTable::default();
        let small = table.get(&tpch(0.01)).unwrap();
        let large = table.get(&tpch(0.02)).unwrap();
        assert!(!Arc::ptr_eq(&small, &large));
        let rows = |db: &Database| db.table_by_name("lineitem").unwrap().rows;
        assert_ne!(rows(&small), rows(&large));
    }

    #[test]
    fn the_other_builders_ignore_the_scale() {
        let table = CatalogTable::default();
        for db in ["ds1", "ds2", "bench"] {
            let spec = |sf| JobSpec {
                db: db.to_string(),
                sf,
                ..JobSpec::default()
            };
            assert_eq!(spec(0.01).catalog_key(), spec(5.0).catalog_key());
            let a = table.get(&spec(0.01)).unwrap();
            assert!(Arc::ptr_eq(&a, &table.get(&spec(5.0)).unwrap()), "{db}");
        }
    }

    #[test]
    fn an_unknown_database_is_an_error_and_not_stored() {
        let table = CatalogTable::default();
        let spec = JobSpec {
            db: "nope".to_string(),
            ..JobSpec::default()
        };
        assert!(table.get(&spec).is_err());
        assert!(table.lock().is_empty());
    }

    #[test]
    fn the_cap_evicts_the_least_recently_used_catalog() {
        let table = CatalogTable::default();
        let sf = |i: usize| 0.01 * (i + 1) as f64;
        let built: Vec<Arc<Database>> = (0..CATALOG_CAP)
            .map(|i| table.get(&tpch(sf(i))).unwrap())
            .collect();
        // Touch the oldest entry, so the second-oldest is now the least
        // recently used one; one more key evicts it.
        assert!(Arc::ptr_eq(&built[0], &table.get(&tpch(sf(0))).unwrap()));
        table.get(&tpch(sf(CATALOG_CAP))).unwrap();
        assert_eq!(table.lock().len(), CATALOG_CAP);
        assert!(Arc::ptr_eq(&built[0], &table.get(&tpch(sf(0))).unwrap()));
        for (i, db) in built.iter().enumerate().skip(2) {
            assert!(Arc::ptr_eq(db, &table.get(&tpch(sf(i))).unwrap()), "{i}");
        }
        assert!(!Arc::ptr_eq(&built[1], &table.get(&tpch(sf(1))).unwrap()));
    }
}
