//! Seeded synthetic statistics generation.
//!
//! The paper evaluates on TPC-H data produced by `dbgen` plus internal
//! databases. We do not ship row data; instead each benchmark database
//! describes its columns with a [`Distribution`], from which we *sample*
//! sort keys to build genuine equi-depth histograms. The tuning
//! algorithms only ever consume statistics and optimizer estimates, so
//! this preserves the paper-relevant behaviour (see DESIGN.md §2).

use crate::ids::TableId;
use crate::schema::{Column, DatabaseBuilder};
use crate::stats::{ColumnStats, Histogram};
use crate::types::{ColumnType, SortKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of values sampled per column when building histograms.
const SAMPLE_SIZE: usize = 2_000;
/// Histogram resolution.
const BUCKETS: usize = 50;

/// A synthetic value distribution for one column.
#[derive(Debug, Clone)]
pub enum Distribution {
    /// Uniform integers in `[min, max]`.
    UniformInt { min: i64, max: i64 },
    /// Uniform doubles in `[min, max)`.
    UniformDouble { min: f64, max: f64 },
    /// Zipf-distributed ranks `1..=n` with skew parameter `theta`
    /// (`theta = 0` degenerates to uniform).
    Zipf { n: u64, theta: f64 },
    /// Uniformly chosen dates in a day-number window.
    DateRange { min_day: i64, max_day: i64 },
    /// Strings drawn from a pool of `pool` distinct values with the
    /// given average length.
    StringPool { pool: u64, avg_len: u16 },
    /// A dense key `0..rows` (e.g. surrogate primary keys).
    Serial,
}

impl Distribution {
    /// Number of distinct values this distribution produces when `rows`
    /// rows are drawn.
    pub fn ndv(&self, rows: f64) -> f64 {
        match self {
            Distribution::UniformInt { min, max } => distinct_drawn((*max - *min + 1) as f64, rows),
            Distribution::UniformDouble { .. } => rows.max(1.0),
            Distribution::Zipf { n, .. } => distinct_drawn(*n as f64, rows),
            Distribution::DateRange { min_day, max_day } => {
                distinct_drawn((*max_day - *min_day + 1) as f64, rows)
            }
            Distribution::StringPool { pool, .. } => distinct_drawn(*pool as f64, rows),
            Distribution::Serial => rows.max(1.0),
        }
    }

    /// Draw one sort key.
    fn sample(&self, rng: &mut StdRng, rows: f64) -> SortKey {
        match self {
            Distribution::UniformInt { min, max } => rng.gen_range(*min..=*max) as f64,
            Distribution::UniformDouble { min, max } => rng.gen_range(*min..*max),
            Distribution::Zipf { n, theta } => zipf_sample(rng, *n, *theta) as f64,
            Distribution::DateRange { min_day, max_day } => {
                rng.gen_range(*min_day..=*max_day) as f64
            }
            Distribution::StringPool { pool, avg_len } => {
                // Deterministic pool member -> pseudo-string sort key.
                synth_sort_key(rng.gen_range(0..*pool), *avg_len)
            }
            Distribution::Serial => rng.gen_range(0.0..rows.max(1.0)).floor(),
        }
    }

    fn domain(&self, rows: f64) -> (SortKey, SortKey) {
        match self {
            Distribution::UniformInt { min, max } => (*min as f64, *max as f64),
            Distribution::UniformDouble { min, max } => (*min, *max),
            Distribution::Zipf { n, .. } => (1.0, *n as f64),
            Distribution::DateRange { min_day, max_day } => (*min_day as f64, *max_day as f64),
            Distribution::StringPool { .. } => (0.0, 1.0),
            Distribution::Serial => (0.0, (rows - 1.0).max(0.0)),
        }
    }
}

/// Expected number of distinct values when drawing `rows` samples from a
/// domain of `domain` equally likely values.
fn distinct_drawn(domain: f64, rows: f64) -> f64 {
    if domain <= 0.0 {
        return 1.0;
    }
    (domain * (1.0 - (-rows / domain).exp())).clamp(1.0, domain)
}

/// Inverse-CDF-free Zipf sampling via rejection (adequate for building
/// histograms; not a hot path).
fn zipf_sample(rng: &mut StdRng, n: u64, theta: f64) -> u64 {
    if theta <= 1e-9 {
        return rng.gen_range(1..=n.max(1));
    }
    // Approximate inverse transform for the Zipf CDF using the
    // continuous analogue: P(X <= x) ~ (x/n)^(1-theta) for theta<1.
    let u: f64 = rng.gen_range(0.0f64..1.0);
    if (theta - 1.0).abs() < 1e-9 {
        let x = (n as f64).powf(u);
        return x.ceil().clamp(1.0, n as f64) as u64;
    }
    let exp = 1.0 / (1.0 - theta);
    let x = (n as f64) * u.powf(exp.abs());
    x.ceil().clamp(1.0, n as f64) as u64
}

/// A deterministic synthetic string for pool member `i`. Sampling
/// needs only its sort key, [`synth_sort_key`]; the string is that
/// key's test oracle.
#[cfg(test)]
fn synth_string(i: u64, len: u16) -> String {
    let mut s = String::with_capacity(len as usize);
    let mut v = i.wrapping_mul(0x9E3779B97F4A7C15);
    for _ in 0..len.max(1) {
        let c = b'a' + (v % 26) as u8;
        s.push(c as char);
        v = v.rotate_left(11).wrapping_mul(0x2545F4914F6CDD1D) ^ i;
    }
    s
}

/// `string_sort_key(&synth_string(i, len))`, bit for bit, without
/// building the string: the key reads only the first 8 bytes, so only
/// those are generated (same recurrence, same accumulation order).
fn synth_sort_key(i: u64, len: u16) -> SortKey {
    let mut acc = 0.0f64;
    let mut scale = 1.0f64 / 256.0;
    let mut v = i.wrapping_mul(0x9E3779B97F4A7C15);
    for _ in 0..len.clamp(1, 8) {
        let c = b'a' + (v % 26) as u8;
        acc += (c as f64) * scale;
        scale /= 256.0;
        v = v.rotate_left(11).wrapping_mul(0x2545F4914F6CDD1D) ^ i;
    }
    acc
}

/// Specification of one synthetic column.
#[derive(Debug, Clone)]
pub struct ColumnSpec {
    pub name: String,
    pub ty: ColumnType,
    pub dist: Distribution,
    pub null_frac: f64,
}

impl ColumnSpec {
    pub fn new(name: impl Into<String>, ty: ColumnType, dist: Distribution) -> ColumnSpec {
        ColumnSpec {
            name: name.into(),
            ty,
            dist,
            null_frac: 0.0,
        }
    }

    /// Materialize the column's statistics by sampling the distribution.
    pub fn build_column(&self, rng: &mut StdRng, rows: f64) -> Column {
        let sample: Vec<SortKey> = (0..SAMPLE_SIZE)
            .map(|_| self.dist.sample(rng, rows))
            .collect();
        let (min, max) = self.dist.domain(rows);
        let avg_width = match self.ty {
            ColumnType::VarChar(max_len) => (max_len as f64 * 0.6).max(1.0),
            other => other.max_width() as f64,
        };
        let histogram = Histogram::from_sample(sample, BUCKETS);
        Column {
            name: self.name.clone(),
            ty: self.ty,
            stats: ColumnStats {
                ndv: self.dist.ndv(rows),
                null_frac: self.null_frac,
                min,
                max,
                avg_width,
                histogram,
            },
        }
    }
}

/// Specification of one synthetic table.
#[derive(Debug, Clone)]
pub struct TableSpec {
    pub name: String,
    pub rows: f64,
    pub columns: Vec<ColumnSpec>,
    pub primary_key: Vec<u16>,
}

impl TableSpec {
    /// Add the table to a [`DatabaseBuilder`] with a deterministic
    /// per-table RNG stream derived from `seed`.
    pub fn register(&self, builder: &mut DatabaseBuilder, seed: u64) -> TableId {
        let mut rng = StdRng::seed_from_u64(seed ^ fxhash(&self.name));
        let columns = self
            .columns
            .iter()
            .map(|c| c.build_column(&mut rng, self.rows))
            .collect();
        builder.add_table(
            self.name.clone(),
            self.rows,
            columns,
            self.primary_key.clone(),
        )
    }
}

/// Tiny string hash for seeding per-table RNG streams.
fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Database;

    #[test]
    fn synth_sort_key_equals_the_key_of_the_string() {
        use crate::types::string_sort_key;
        for i in [0, 1, 2, 25, 26, 1_000, 123_456_789, u64::MAX / 3, u64::MAX] {
            for len in 0..=120u16 {
                assert_eq!(
                    synth_sort_key(i, len).to_bits(),
                    string_sort_key(&synth_string(i, len)).to_bits(),
                    "member {i}, len {len}"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = ColumnSpec::new(
            "x",
            ColumnType::Int,
            Distribution::UniformInt { min: 0, max: 999 },
        );
        let mut rng1 = StdRng::seed_from_u64(7);
        let mut rng2 = StdRng::seed_from_u64(7);
        let c1 = spec.build_column(&mut rng1, 10_000.0);
        let c2 = spec.build_column(&mut rng2, 10_000.0);
        assert_eq!(c1.stats, c2.stats);
    }

    #[test]
    fn uniform_int_histogram_is_roughly_uniform() {
        let spec = ColumnSpec::new(
            "x",
            ColumnType::Int,
            Distribution::UniformInt { min: 0, max: 9999 },
        );
        let mut rng = StdRng::seed_from_u64(1);
        let c = spec.build_column(&mut rng, 100_000.0);
        let sel = c
            .stats
            .range_selectivity(Some((2500.0, true)), Some((7500.0, true)));
        assert!((sel - 0.5).abs() < 0.06, "sel={sel}");
    }

    #[test]
    fn zipf_skews_towards_small_ranks() {
        let spec = ColumnSpec::new(
            "x",
            ColumnType::Int,
            Distribution::Zipf {
                n: 1000,
                theta: 0.9,
            },
        );
        let mut rng = StdRng::seed_from_u64(2);
        let c = spec.build_column(&mut rng, 100_000.0);
        let low = c.stats.range_selectivity(None, Some((100.0, true)));
        assert!(low > 0.3, "low-rank mass too small: {low}");
    }

    #[test]
    fn serial_ndv_equals_rows() {
        let d = Distribution::Serial;
        assert_eq!(d.ndv(5000.0), 5000.0);
    }

    #[test]
    fn distinct_drawn_saturates() {
        assert!((distinct_drawn(10.0, 1e9) - 10.0).abs() < 1e-6);
        assert!(distinct_drawn(1e9, 10.0) <= 10.0 + 1e-6);
    }

    #[test]
    fn table_spec_builds_into_database() {
        let spec = TableSpec {
            name: "t".into(),
            rows: 1000.0,
            columns: vec![
                ColumnSpec::new("id", ColumnType::Int, Distribution::Serial),
                ColumnSpec::new(
                    "v",
                    ColumnType::VarChar(20),
                    Distribution::StringPool {
                        pool: 50,
                        avg_len: 12,
                    },
                ),
            ],
            primary_key: vec![0],
        };
        let mut b = Database::builder("gen");
        let id = spec.register(&mut b, 42);
        let db = b.build();
        let t = db.table(id);
        assert_eq!(t.columns.len(), 2);
        assert!(t.column(1).avg_width() < 20.0);
        assert!(t.column(0).stats.histogram.is_some());
    }

    #[test]
    fn synth_strings_are_stable_per_member() {
        assert_eq!(synth_string(5, 10), synth_string(5, 10));
        assert_ne!(synth_string(5, 10), synth_string(6, 10));
    }
}
