//! The cost model: abstract time units over I/O and CPU components.
//!
//! Constants are calibrated so the classic crossovers happen at
//! realistic points (documented per constant): an index seek beats a
//! scan below ~10–20 % selectivity without a lookup and ~0.1–1 % with
//! one; covering indexes beat lookups for all but tiny row counts;
//! sort-avoidance matters for large inputs.

use pdt_physical::size::SizeModel;
use pdt_physical::{Index, PhysicalSchema};

/// Cost model constants. One unit ~ one sequential page read.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Sequential page I/O.
    pub seq_page: f64,
    /// Random page I/O (seeks, rid lookups) — 4x sequential, the
    /// standard ratio that puts the seek/scan crossover near 25 % of
    /// pages touched.
    pub rand_page: f64,
    /// CPU cost of pushing one row through an operator.
    pub cpu_tuple: f64,
    /// CPU cost of evaluating one predicate on one row.
    pub cpu_pred: f64,
    /// CPU cost per comparison in sorting (x `n log2 n`).
    pub cpu_sort: f64,
    /// CPU cost of hashing one row (build or probe).
    pub cpu_hash: f64,
    /// The storage model used to translate structures into pages.
    pub size: SizeModel,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            seq_page: 1.0,
            rand_page: 4.0,
            cpu_tuple: 0.01,
            cpu_pred: 0.002,
            cpu_sort: 0.012,
            cpu_hash: 0.015,
            size: SizeModel::default(),
        }
    }
}

/// An (io, cpu) cost pair.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    pub io: f64,
    pub cpu: f64,
}

impl Cost {
    pub const ZERO: Cost = Cost { io: 0.0, cpu: 0.0 };

    pub fn new(io: f64, cpu: f64) -> Cost {
        Cost { io, cpu }
    }

    pub fn total(&self) -> f64 {
        self.io + self.cpu
    }

    pub fn add(&self, other: Cost) -> Cost {
        Cost {
            io: self.io + other.io,
            cpu: self.cpu + other.cpu,
        }
    }
}

impl CostModel {
    /// Pages of an index under a schema.
    pub fn index_pages(&self, schema: &PhysicalSchema<'_>, index: &Index) -> f64 {
        self.size.index_pages(schema, index)
    }

    /// Number of B-tree levels above the leaves (for seek descent
    /// costing).
    pub fn btree_levels(&self, schema: &PhysicalSchema<'_>, index: &Index) -> f64 {
        let pages = self.index_pages(schema, index);
        pages.max(1.0).log(100.0).ceil().max(1.0)
    }

    /// Cost of scanning an entire index (or heap modeled as an index).
    pub fn full_scan(&self, pages: f64, rows: f64) -> Cost {
        Cost::new(pages * self.seq_page, rows * self.cpu_tuple)
    }

    /// Cost of seeking an index: descend the tree, then read the
    /// qualifying fraction of leaf pages sequentially.
    pub fn seek(&self, levels: f64, leaf_pages: f64, selectivity: f64, rows_out: f64) -> Cost {
        let touched = (leaf_pages * selectivity).ceil().max(1.0);
        Cost::new(
            levels * self.rand_page + touched * self.seq_page,
            rows_out * self.cpu_tuple,
        )
    }

    /// Cost of rid lookups for `rows` rows against a table of
    /// `table_pages` pages: random I/O per row, capped by the point
    /// where re-reading the table sequentially (with re-reads) would be
    /// cheaper.
    pub fn rid_lookup(&self, rows: f64, table_pages: f64) -> Cost {
        let random = rows * self.rand_page;
        let capped = random.min(table_pages.max(1.0) * self.seq_page * 3.0 + rows * 0.001);
        Cost::new(capped, rows * self.cpu_tuple)
    }

    /// Cost of intersecting two sorted rid streams.
    pub fn rid_intersect(&self, rows_a: f64, rows_b: f64) -> Cost {
        Cost::new(0.0, (rows_a + rows_b) * self.cpu_tuple)
    }

    /// Cost of applying `n_preds` predicates to `rows` rows.
    pub fn filter(&self, rows: f64, n_preds: usize) -> Cost {
        Cost::new(0.0, rows * self.cpu_pred * n_preds.max(1) as f64)
    }

    /// Cost of sorting `rows` rows of `row_bytes` each; spills add
    /// sequential I/O for one write+read pass.
    pub fn sort(&self, rows: f64, row_bytes: f64) -> Cost {
        const SORT_MEMORY: f64 = 64.0 * 1024.0 * 1024.0;
        let rows = rows.max(1.0);
        let cpu = rows * rows.log2().max(1.0) * self.cpu_sort;
        let bytes = rows * row_bytes;
        let io = if bytes > SORT_MEMORY {
            2.0 * (bytes / self.size.page_size) * self.seq_page
        } else {
            0.0
        };
        Cost::new(io, cpu)
    }

    /// Cost of a hash join given build/probe row counts and the build
    /// side's row width (spills when the build side exceeds memory).
    pub fn hash_join(&self, build_rows: f64, probe_rows: f64, build_bytes_per_row: f64) -> Cost {
        const HASH_MEMORY: f64 = 64.0 * 1024.0 * 1024.0;
        let cpu = (build_rows + probe_rows) * self.cpu_hash;
        let build_bytes = build_rows * build_bytes_per_row;
        let io = if build_bytes > HASH_MEMORY {
            2.0 * (build_bytes / self.size.page_size) * self.seq_page
        } else {
            0.0
        };
        Cost::new(io, cpu)
    }

    /// Cost of hash aggregation.
    pub fn hash_aggregate(&self, rows: f64, groups: f64) -> Cost {
        Cost::new(0.0, rows * self.cpu_hash + groups * self.cpu_tuple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seek_beats_scan_at_low_selectivity() {
        let m = CostModel::default();
        let pages = 10_000.0;
        let rows = 1_000_000.0;
        let scan = m.full_scan(pages, rows).total();
        let seek = m.seek(3.0, pages, 0.001, rows * 0.001).total();
        assert!(seek < scan / 10.0, "seek {seek} vs scan {scan}");
        // And near-full selectivity the seek approaches the scan.
        let seek_all = m.seek(3.0, pages, 1.0, rows).total();
        assert!(seek_all >= scan * 0.95);
    }

    #[test]
    fn rid_lookup_is_capped() {
        let m = CostModel::default();
        let few = m.rid_lookup(10.0, 10_000.0).total();
        assert!(few < 50.0);
        let many = m.rid_lookup(1_000_000.0, 10_000.0);
        // Capped near 3x table scan, not 4M units.
        assert!(many.io <= 31_000.0, "io={}", many.io);
    }

    #[test]
    fn covering_crossover() {
        // Classic: reading 0.1% of rows via a non-covering index
        // (random lookups) beats a full scan on a large table; at 50%
        // the scan wins by a wide margin.
        let m = CostModel::default();
        let table_pages = 100_000.0;
        let rows = 10_000_000.0;
        let scan = m.full_scan(table_pages, rows).total();
        let seek_01pct = m
            .seek(3.0, 2_000.0, 0.001, rows * 0.001)
            .add(m.rid_lookup(rows * 0.001, table_pages))
            .total();
        assert!(seek_01pct < scan, "{seek_01pct} vs {scan}");
        let seek_50pct = m
            .seek(3.0, 2_000.0, 0.5, rows * 0.5)
            .add(m.rid_lookup(rows * 0.5, table_pages))
            .total();
        assert!(seek_50pct > scan, "{seek_50pct} vs {scan}");
    }

    #[test]
    fn sort_spills_add_io() {
        let m = CostModel::default();
        let small = m.sort(10_000.0, 100.0);
        assert_eq!(small.io, 0.0);
        let big = m.sort(10_000_000.0, 100.0);
        assert!(big.io > 0.0);
    }

    #[test]
    fn cost_addition() {
        let a = Cost::new(1.0, 2.0);
        let b = Cost::new(3.0, 4.0);
        assert_eq!(a.add(b).total(), 10.0);
    }
}
