//! The B-tree size model of §3.3.1.
//!
//! "To estimate its size we first calculate the width of an entry in
//! any of I's leaf nodes as `WL = Σ width(c)` ... the width of an entry
//! in an internal node as `WI = Σ_{c∈K} width(c)`. Using WL and WI we
//! calculate the number of entries per page in leaf (PL) and internal
//! (PI) nodes. Finally, leaf nodes fit in `S0 = ⌈|T|/PL⌉` pages and
//! level-i nodes fit in `Si = ⌈Si−1/PI⌉` pages." The paper's footnote 8
//! mentions fill factors, hidden rid columns and page overheads — all
//! modelled here.

use crate::config::{PageSlot, PhysicalSchema};
use crate::index::Index;

/// Constants of the storage engine model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeModel {
    /// Page size in bytes.
    pub page_size: f64,
    /// Per-page header/slot-array overhead in bytes.
    pub page_overhead: f64,
    /// Per-entry overhead in bytes (record header, null bitmap).
    pub entry_overhead: f64,
    /// Width of a row identifier (hidden rid column in secondary
    /// indexes; child-page pointer in internal nodes).
    pub rid_width: f64,
    /// Fraction of each page actually filled.
    pub fill_factor: f64,
}

impl Default for SizeModel {
    fn default() -> Self {
        SizeModel {
            page_size: 8192.0,
            page_overhead: 96.0,
            entry_overhead: 9.0,
            rid_width: 8.0,
            fill_factor: 0.9,
        }
    }
}

impl SizeModel {
    /// Usable bytes per page.
    fn usable(&self) -> f64 {
        (self.page_size - self.page_overhead) * self.fill_factor
    }

    /// Entries that fit in one page given an entry width.
    fn entries_per_page(&self, entry_width: f64) -> f64 {
        (self.usable() / entry_width.max(1.0)).max(2.0).floor()
    }

    /// Total pages of a B-tree with `rows` leaf entries; infinite when
    /// `rows` is not finite (a cardinality estimate that overflowed).
    pub fn btree_pages(&self, rows: f64, leaf_width: f64, internal_width: f64) -> f64 {
        if !rows.is_finite() {
            return f64::INFINITY;
        }
        let rows = rows.max(1.0);
        let pl = self.entries_per_page(leaf_width);
        let pi = self.entries_per_page(internal_width);
        let mut level = (rows / pl).ceil();
        let mut total = level;
        while level > 1.0 {
            level = (level / pi).ceil();
            total += level;
        }
        total
    }

    /// Leaf-entry width for an index under a schema.
    pub fn leaf_entry_width(&self, schema: &PhysicalSchema<'_>, index: &Index) -> f64 {
        let data_width = if index.clustered {
            // Clustered leaves hold the whole row.
            schema.row_width(index.table)
        } else {
            index
                .columns_ascending()
                .map(|c| schema.column_width(c))
                .sum::<f64>()
                + self.rid_width
        };
        data_width + self.entry_overhead
    }

    /// Internal-entry width (key columns + child pointer).
    pub fn internal_entry_width(&self, schema: &PhysicalSchema<'_>, index: &Index) -> f64 {
        index
            .key
            .iter()
            .map(|c| schema.column_width(*c))
            .sum::<f64>()
            + self.rid_width
            + self.entry_overhead
    }

    /// Estimated pages of an index.
    ///
    /// Computed once per index of a configuration: when `index` is one
    /// of the schema configuration's own handles and the model is the
    /// default one, the count is memoized in the configuration (and
    /// travels with its clones) together with the [`Database::uid`] of
    /// the catalog it was computed against, and served only to that
    /// catalog. Any other index, model or catalog computes afresh.
    ///
    /// [`Database::uid`]: pdt_catalog::Database::uid
    pub fn index_pages(&self, schema: &PhysicalSchema<'_>, index: &Index) -> f64 {
        self.index_pages_at(schema, index, PageSlot(schema.page_memo(index)))
    }

    /// [`SizeModel::index_pages`] of `index`, whose memo under `schema`
    /// is `slot` (as [`PhysicalSchema::indexes_with_pages_on`] hands
    /// them out together): the same count, read without searching the
    /// configuration for the handle.
    pub fn index_pages_at(
        &self,
        schema: &PhysicalSchema<'_>,
        index: &Index,
        slot: PageSlot<'_>,
    ) -> f64 {
        match slot.0 {
            Some(memo) if *self == SizeModel::default() => {
                let uid = schema.db.uid();
                let [at, pages] =
                    memo.get_or_init(|| [uid, self.compute_index_pages(schema, index).to_bits()]);
                if at == uid {
                    f64::from_bits(pages)
                } else {
                    self.compute_index_pages(schema, index)
                }
            }
            _ => self.compute_index_pages(schema, index),
        }
    }

    /// [`SizeModel::index_pages`] computed from the schema, never from a
    /// memo.
    pub fn compute_index_pages(&self, schema: &PhysicalSchema<'_>, index: &Index) -> f64 {
        let rows = schema.rows(index.table);
        self.btree_pages(
            rows,
            self.leaf_entry_width(schema, index),
            self.internal_entry_width(schema, index),
        )
    }

    /// Estimated size of an index in bytes.
    pub fn index_bytes(&self, schema: &PhysicalSchema<'_>, index: &Index) -> f64 {
        self.index_pages(schema, index) * self.page_size
    }

    /// Size *charged to the configuration*: a clustered index on a
    /// base table reorganizes rows that exist anyway, so only its
    /// internal nodes are charged; a clustered index on a materialized
    /// view (or any secondary index) is net-new storage and is charged
    /// in full.
    pub fn index_bytes_charged(&self, schema: &PhysicalSchema<'_>, index: &Index) -> f64 {
        let full = self.index_bytes(schema, index);
        if index.clustered && !index.table.is_view() {
            let rows = schema.rows(index.table);
            let leaf_pages = (rows / self.entries_per_page(self.leaf_entry_width(schema, index)))
                .ceil()
                .max(1.0);
            (full - leaf_pages * self.page_size).max(self.page_size)
        } else {
            full
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use pdt_catalog::{ColumnId, ColumnStats, ColumnType, Database};

    fn db_with_wide_table() -> Database {
        let mut b = Database::builder("sz");
        let mk = |name: &str, ty: ColumnType| pdt_catalog::Column {
            name: name.into(),
            ty,
            stats: ColumnStats::uniform(1000.0, 0.0, 1000.0, ty.max_width() as f64),
        };
        b.add_table(
            "t",
            1_000_000.0,
            vec![
                mk("id", ColumnType::Int),
                mk("v", ColumnType::Int),
                mk("pad", ColumnType::Char(200)),
            ],
            vec![0],
        );
        b.build()
    }

    fn schema(db: &Database, config: &Configuration) -> f64 {
        let s = PhysicalSchema::new(db, config);
        let t = db.table_by_name("t").unwrap().id;
        let m = SizeModel::default();
        let narrow = Index::new(t, [ColumnId::new(t, 1)], []);
        m.index_bytes(&s, &narrow)
    }

    #[test]
    fn narrow_index_much_smaller_than_clustered() {
        let db = db_with_wide_table();
        let config = Configuration::new();
        let s = PhysicalSchema::new(&db, &config);
        let t = db.table_by_name("t").unwrap().id;
        let m = SizeModel::default();
        let narrow = Index::new(t, [ColumnId::new(t, 1)], []);
        let clustered = Index::clustered(t, [ColumnId::new(t, 0)]);
        let nb = m.index_bytes(&s, &narrow);
        let cb = m.index_bytes(&s, &clustered);
        assert!(cb > 5.0 * nb, "clustered {cb} vs narrow {nb}");
    }

    #[test]
    fn suffix_columns_grow_the_index() {
        let db = db_with_wide_table();
        let config = Configuration::new();
        let s = PhysicalSchema::new(&db, &config);
        let t = db.table_by_name("t").unwrap().id;
        let m = SizeModel::default();
        let bare = Index::new(t, [ColumnId::new(t, 1)], []);
        let covering = Index::new(t, [ColumnId::new(t, 1)], [ColumnId::new(t, 2)]);
        assert!(m.index_bytes(&s, &covering) > 2.0 * m.index_bytes(&s, &bare));
    }

    #[test]
    fn size_scales_roughly_linearly_with_rows() {
        let db = db_with_wide_table();
        let config = Configuration::new();
        let one = schema(&db, &config);
        // Build a x10 table.
        let mut b = Database::builder("sz2");
        let mk = |name: &str, ty: ColumnType| pdt_catalog::Column {
            name: name.into(),
            ty,
            stats: ColumnStats::uniform(1000.0, 0.0, 1000.0, ty.max_width() as f64),
        };
        b.add_table(
            "t",
            10_000_000.0,
            vec![
                mk("id", ColumnType::Int),
                mk("v", ColumnType::Int),
                mk("pad", ColumnType::Char(200)),
            ],
            vec![0],
        );
        let db10 = b.build();
        let ten = schema(&db10, &config);
        let ratio = ten / one;
        assert!((9.0..11.0).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn btree_has_multiple_levels() {
        let m = SizeModel::default();
        // 1M rows, 100-byte leaves: ~12.5k leaf pages, needs internal
        // levels, so total > leaf count.
        let leaf_only = (1_000_000.0 / m.entries_per_page(100.0)).ceil();
        let total = m.btree_pages(1_000_000.0, 100.0, 20.0);
        assert!(total > leaf_only);
        assert!(total < leaf_only * 1.1);
    }

    #[test]
    fn tiny_tables_take_one_page() {
        let m = SizeModel::default();
        assert_eq!(m.btree_pages(1.0, 50.0, 20.0), 1.0);
    }

    #[test]
    fn an_infinite_row_count_is_an_infinite_tree() {
        let m = SizeModel::default();
        assert_eq!(m.btree_pages(f64::INFINITY, 100.0, 20.0), f64::INFINITY);
        assert_eq!(m.btree_pages(f64::NAN, 100.0, 20.0), f64::INFINITY);
        assert!(m.btree_pages(f64::MAX, 100.0, 20.0).is_finite());
    }

    #[test]
    fn huge_entries_never_divide_by_zero() {
        let m = SizeModel::default();
        let pages = m.btree_pages(1000.0, 1e9, 1e9);
        assert!(pages.is_finite() && pages >= 500.0);
    }
}
