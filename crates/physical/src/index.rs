//! B-tree index definitions and the index algebra of §3.1.1.
//!
//! An index is `I = (K; S)`: a *sequence* of key columns `K` and a
//! *set* of suffix columns `S`. "Suffix columns are not present at
//! internal nodes in the index and thus cannot be exploited for seeking
//! (but can help queries that reference such columns in non-sargable
//! predicates)."
//!
//! The merge / split / prefix operations here are pure algebra with the
//! paper's exact definitions; the tuner turns them into configuration
//! transformations.

use pdt_catalog::{ColumnId, TableId};
use std::collections::BTreeSet;
use std::fmt;

// `derive(Hash)` feeds a length as a native `usize` and a discriminant
// as a native `isize`, so every pinned signature literal (an index's
// hash and all that fold it) holds on 64-bit targets only.
const _: () = assert!(usize::BITS == 64, "signatures pinned for 64-bit");

/// A (possibly hypothetical) B-tree index.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Index {
    /// The indexed table — a base table or a materialized view.
    pub table: TableId,
    /// Ordered key columns `K`.
    pub key: Vec<ColumnId>,
    /// Suffix (included) columns `S`, disjoint from `K`.
    pub suffix: BTreeSet<ColumnId>,
    /// Clustered indexes store the full row at the leaves.
    pub clustered: bool,
}

impl Index {
    /// Build a secondary index, normalizing: duplicate key columns are
    /// dropped (first occurrence wins) and key columns are removed from
    /// the suffix. Panics if any column belongs to another table or the
    /// key is empty.
    pub fn new(
        table: TableId,
        key: impl IntoIterator<Item = ColumnId>,
        suffix: impl IntoIterator<Item = ColumnId>,
    ) -> Index {
        let mut seen = BTreeSet::new();
        let key: Vec<ColumnId> = key
            .into_iter()
            .inspect(|c| assert_eq!(c.table, table, "key column from wrong table"))
            .filter(|c| seen.insert(*c))
            .collect();
        assert!(!key.is_empty(), "index must have at least one key column");
        let suffix: BTreeSet<ColumnId> = suffix
            .into_iter()
            .inspect(|c| assert_eq!(c.table, table, "suffix column from wrong table"))
            .filter(|c| !seen.contains(c))
            .collect();
        Index {
            table,
            key,
            suffix,
            clustered: false,
        }
    }

    /// Build a clustered index over `key`.
    pub fn clustered(table: TableId, key: impl IntoIterator<Item = ColumnId>) -> Index {
        let mut idx = Index::new(table, key, std::iter::empty());
        idx.clustered = true;
        idx
    }

    /// All columns materialized at the leaf level (`K ∪ S`). For
    /// clustered indexes callers must remember the leaves hold the
    /// whole row; see [`Index::covers`].
    pub fn all_columns(&self) -> BTreeSet<ColumnId> {
        self.key
            .iter()
            .copied()
            .chain(self.suffix.iter().copied())
            .collect()
    }

    /// Key and suffix columns in ascending column order — the iteration
    /// order of [`all_columns`](Index::all_columns), without building
    /// the set. (`K` and `S` are disjoint and `K` has no duplicates.)
    pub fn columns_ascending(&self) -> impl Iterator<Item = ColumnId> + '_ {
        let mut suffix = self.suffix.iter().copied().peekable();
        // The largest key column handed out so far.
        let mut floor: Option<ColumnId> = None;
        std::iter::from_fn(move || {
            let key = self
                .key
                .iter()
                .copied()
                .filter(|k| floor.is_none_or(|f| *k > f))
                .min();
            match (key, suffix.peek()) {
                (Some(k), Some(s)) if *s < k => suffix.next(),
                (Some(k), _) => {
                    floor = Some(k);
                    Some(k)
                }
                (None, _) => suffix.next(),
            }
        })
    }

    /// Number of stored columns (key + suffix).
    pub fn width(&self) -> usize {
        self.key.len() + self.suffix.len()
    }

    /// True if every column in `needed` can be read from this index
    /// without a rid lookup. Clustered indexes cover every column of
    /// their table.
    pub fn covers<'a>(&self, needed: impl IntoIterator<Item = &'a ColumnId>) -> bool {
        self.clustered
            || needed
                .into_iter()
                .all(|c| self.key.contains(c) || self.suffix.contains(c))
    }

    /// Length of the longest prefix of `K` that appears (in order) at
    /// the start of `other_key`.
    pub fn shared_key_prefix(&self, other_key: &[ColumnId]) -> usize {
        self.key
            .iter()
            .zip(other_key.iter())
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// §3.1.1 Merging: the merge of `I1 = (K1; S1)` and `I2 = (K2; S2)`
    /// is `(K1; (S1 ∪ K2 ∪ S2) − K1)`; if `K1` is a prefix of `K2`, it
    /// is `(K2; (S1 ∪ S2) − K2)`. Returns `None` for cross-table pairs.
    ///
    /// Merging is *ordered*: the result can always be sought the way
    /// `I1` is; `I2`'s requests may degrade to scans.
    pub fn merge(&self, other: &Index) -> Option<Index> {
        if self.table != other.table {
            return None;
        }
        let k1_prefix_of_k2 = self.key.len() <= other.key.len()
            && self.shared_key_prefix(&other.key) == self.key.len();
        let (key, suffix_pool): (Vec<ColumnId>, Vec<ColumnId>) = if k1_prefix_of_k2 {
            (
                other.key.clone(),
                self.suffix
                    .iter()
                    .chain(other.suffix.iter())
                    .copied()
                    .collect(),
            )
        } else {
            (
                self.key.clone(),
                self.suffix
                    .iter()
                    .copied()
                    .chain(other.key.iter().copied())
                    .chain(other.suffix.iter().copied())
                    .collect(),
            )
        };
        let mut merged = Index::new(self.table, key, suffix_pool);
        merged.clustered = self.clustered || other.clustered;
        if merged.clustered {
            // A clustered index carries the whole row; suffix columns
            // are redundant.
            merged.suffix.clear();
        }
        Some(merged)
    }

    /// Whether the two indexes have a column in common (key or suffix):
    /// `all_columns` of each intersect, without building either set.
    pub fn shares_a_column(&self, other: &Index) -> bool {
        let mine = |c: &ColumnId| self.key.contains(c) || self.suffix.contains(c);
        other.key.iter().chain(&other.suffix).any(mine)
    }

    /// Whether [`split`](Index::split) of the two is defined, without
    /// building it: same table, neither clustered, a common key column.
    pub fn splits_with(&self, other: &Index) -> bool {
        self.table == other.table
            && !self.clustered
            && !other.clustered
            && self.key.iter().any(|c| other.key.contains(c))
    }

    /// §3.1.1 Splitting: produce a common index `IC = (K1 ∩ K2; S1 ∩ S2)`
    /// plus residual indexes `IR1 = (K1 − KC; cols(I1) − cols(IC))` and
    /// `IR2` (each present only when its key is non-empty and it differs
    /// from the input). Returns `None` when `K1 ∩ K2 = ∅` ("index splits
    /// are undefined if K1 and K2 have no common columns"), when the
    /// tables differ, or when either input is clustered (clustered
    /// indexes cannot lose columns).
    pub fn split(&self, other: &Index) -> Option<SplitResult> {
        if self.table != other.table || self.clustered || other.clustered {
            return None;
        }
        let k2: BTreeSet<ColumnId> = other.key.iter().copied().collect();
        let kc: Vec<ColumnId> = self
            .key
            .iter()
            .copied()
            .filter(|c| k2.contains(c))
            .collect();
        if kc.is_empty() {
            return None;
        }
        let sc: BTreeSet<ColumnId> = self.suffix.intersection(&other.suffix).copied().collect();
        let common = Index::new(self.table, kc.clone(), sc);
        let common_cols = common.all_columns();
        let residual = |input: &Index| -> Option<Index> {
            let rk: Vec<ColumnId> = input
                .key
                .iter()
                .copied()
                .filter(|c| !common_cols.contains(c))
                .collect();
            if rk.is_empty() {
                return None;
            }
            let rs: Vec<ColumnId> = input
                .all_columns()
                .into_iter()
                .filter(|c| !common_cols.contains(c))
                .collect();
            Some(Index::new(input.table, rk, rs))
        };
        Some(SplitResult {
            residual1: residual(self),
            residual2: residual(other),
            common,
        })
    }

    /// §3.1.1 Prefixing: `IP = (K'; ∅)` for the first `len` key columns
    /// (callers choose `len < |K|`, or `len == |K|` when the suffix is
    /// non-empty — otherwise the "prefix" would be the index itself).
    /// Returns `None` for invalid lengths or clustered inputs.
    pub fn prefix(&self, len: usize) -> Option<Index> {
        if self.clustered || len == 0 || len > self.key.len() {
            return None;
        }
        if len == self.key.len() && self.suffix.is_empty() {
            return None;
        }
        Some(Index::new(
            self.table,
            self.key[..len].iter().copied(),
            std::iter::empty(),
        ))
    }

    /// §3.1.1 Promotion to clustered: the same key, holding full rows.
    pub fn promoted_to_clustered(&self) -> Index {
        Index::clustered(self.table, self.key.iter().copied())
    }

    /// Stable short identifier derived from the content hash.
    pub fn short_id(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// Result of an index split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitResult {
    pub common: Index,
    pub residual1: Option<Index>,
    pub residual2: Option<Index>,
}

impl fmt::Display for Index {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clustered {
            f.write_str("CIX")?;
        } else {
            f.write_str("IX")?;
        }
        write!(f, "({} ", self.table)?;
        f.write_str("[")?;
        for (i, c) in self.key.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "c{}", c.ordinal)?;
        }
        f.write_str("]")?;
        if !self.suffix.is_empty() {
            f.write_str("; {")?;
            for (i, c) in self.suffix.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "c{}", c.ordinal)?;
            }
            f.write_str("}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TableId = TableId(0);

    fn c(i: u16) -> ColumnId {
        ColumnId::new(T, i)
    }

    // Column letters from the paper: a=0, b=1, c=2, d=3, e=4, f=5, g=6.
    fn ix(key: &[u16], suffix: &[u16]) -> Index {
        Index::new(T, key.iter().map(|i| c(*i)), suffix.iter().map(|i| c(*i)))
    }

    #[test]
    fn pair_predicates_agree_with_what_they_stand_for() {
        let shapes: [(&[u16], &[u16]); 6] = [
            (&[0], &[]),
            (&[1], &[0, 2]),
            (&[2, 0], &[5]),
            (&[3], &[4]),
            (&[4, 5], &[]),
            (&[6], &[1, 3]),
        ];
        let mut all: Vec<Index> = shapes.iter().map(|(k, s)| ix(k, s)).collect();
        all.push(Index::clustered(T, [c(0)]));
        let other = TableId(1);
        all.push(Index::new(other, [ColumnId::new(other, 0)], []));
        for a in &all {
            for b in &all {
                let common = !a.all_columns().is_disjoint(&b.all_columns());
                assert_eq!(a.shares_a_column(b), common, "{a} / {b}");
                assert_eq!(a.splits_with(b), a.split(b).is_some(), "{a} / {b}");
            }
        }
    }

    #[test]
    fn columns_ascending_is_the_set_order_and_covers_agrees() {
        for (key, suffix) in [
            (&[4u16, 0, 2][..], &[1u16, 3, 5, 9][..]),
            (&[7], &[]),
            (&[0], &[1, 2]),
            (&[9, 8], &[0, 10]),
        ] {
            let i = ix(key, suffix);
            let all = i.all_columns();
            assert!(i.columns_ascending().eq(all.iter().copied()), "{i}");
            for probe in 0..12 {
                assert_eq!(i.covers([&c(probe)]), all.contains(&c(probe)), "{i}");
            }
        }
    }

    #[test]
    fn paper_merge_example() {
        // Merging I1 = ([a,b,c]; {d,e,f}) and I2 = ([c,d,g]; {e})
        // results in ([a,b,c]; {d,e,f,g}).
        let i1 = ix(&[0, 1, 2], &[3, 4, 5]);
        let i2 = ix(&[2, 3, 6], &[4]);
        let m = i1.merge(&i2).unwrap();
        assert_eq!(m.key, vec![c(0), c(1), c(2)]);
        assert_eq!(
            m.suffix,
            [3, 4, 5, 6].iter().map(|i| c(*i)).collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn merge_prefix_rule() {
        // K1 = [a] is a prefix of K2 = [a, b] => merged key is K2.
        let i1 = ix(&[0], &[3]);
        let i2 = ix(&[0, 1], &[4]);
        let m = i1.merge(&i2).unwrap();
        assert_eq!(m.key, vec![c(0), c(1)]);
        assert_eq!(m.suffix, [3, 4].iter().map(|i| c(*i)).collect());
    }

    #[test]
    fn merge_is_not_symmetric() {
        let i1 = ix(&[0, 1], &[]);
        let i2 = ix(&[2], &[]);
        let m12 = i1.merge(&i2).unwrap();
        let m21 = i2.merge(&i1).unwrap();
        assert_eq!(m12.key, vec![c(0), c(1)]);
        assert_eq!(m21.key, vec![c(2)]);
        assert_ne!(m12, m21);
    }

    #[test]
    fn merge_covers_both_inputs() {
        let i1 = ix(&[0, 1, 2], &[3, 4, 5]);
        let i2 = ix(&[2, 3, 6], &[4]);
        let m = i1.merge(&i2).unwrap();
        assert!(m.covers(&i1.all_columns()));
        assert!(m.covers(&i2.all_columns()));
    }

    #[test]
    fn paper_split_example_1() {
        // I1 = ([a,b,c]; {d,e,f}), I2 = ([c,a]; {e}):
        // IC = ([a,c]; {e}), IR1 = ([b]; {d,f}), no IR2.
        let i1 = ix(&[0, 1, 2], &[3, 4, 5]);
        let i2 = ix(&[2, 0], &[4]);
        let s = i1.split(&i2).unwrap();
        assert_eq!(s.common.key, vec![c(0), c(2)]);
        assert_eq!(s.common.suffix, [4].iter().map(|i| c(*i)).collect());
        let r1 = s.residual1.unwrap();
        assert_eq!(r1.key, vec![c(1)]);
        assert_eq!(r1.suffix, [3, 5].iter().map(|i| c(*i)).collect());
        assert!(s.residual2.is_none());
    }

    #[test]
    fn paper_split_example_2() {
        // I1 = ([a,b,c]; {d,e,f}), I3 = ([a,b]; {d,g}):
        // IC = ([a,b]; {d}), IR1 = ([c]; {e,f}), IR2 = ([g]).
        let i1 = ix(&[0, 1, 2], &[3, 4, 5]);
        let i3 = ix(&[0, 1], &[3, 6]);
        let s = i1.split(&i3).unwrap();
        assert_eq!(s.common.key, vec![c(0), c(1)]);
        assert_eq!(s.common.suffix, [3].iter().map(|i| c(*i)).collect());
        let r1 = s.residual1.unwrap();
        assert_eq!(r1.key, vec![c(2)]);
        assert_eq!(r1.suffix, [4, 5].iter().map(|i| c(*i)).collect());
        // K2 == KC, so there is no IR2: column g is dropped and
        // requests that needed it degrade to rid lookups over IC —
        // exactly the paper's example.
        assert!(s.residual2.is_none());
    }

    #[test]
    fn split_requires_shared_key_columns() {
        let i1 = ix(&[0], &[]);
        let i2 = ix(&[1], &[]);
        assert!(i1.split(&i2).is_none());
    }

    #[test]
    fn prefix_drops_suffix_and_tail() {
        let i = ix(&[0, 1, 2], &[3]);
        let p = i.prefix(2).unwrap();
        assert_eq!(p.key, vec![c(0), c(1)]);
        assert!(p.suffix.is_empty());
        // Full-length prefix allowed because the suffix is non-empty.
        let p3 = i.prefix(3).unwrap();
        assert_eq!(p3.key.len(), 3);
        assert!(p3.suffix.is_empty());
        // But not when there is no suffix to shed.
        let bare = ix(&[0, 1], &[]);
        assert!(bare.prefix(2).is_none());
        assert!(bare.prefix(0).is_none());
    }

    #[test]
    fn clustered_covers_everything() {
        let ci = Index::clustered(T, [c(0)]);
        assert!(ci.covers(&[c(7), c(9)]));
        let si = ix(&[0], &[1]);
        assert!(si.covers(&[c(0), c(1)]));
        assert!(!si.covers(&[c(2)]));
    }

    #[test]
    fn promotion_keeps_key() {
        let i = ix(&[1, 2], &[3]);
        let p = i.promoted_to_clustered();
        assert!(p.clustered);
        assert_eq!(p.key, vec![c(1), c(2)]);
        assert!(p.suffix.is_empty());
    }

    #[test]
    fn normalization_dedupes() {
        let i = Index::new(T, [c(0), c(1), c(0)], [c(1), c(2)]);
        assert_eq!(i.key, vec![c(0), c(1)]);
        assert_eq!(i.suffix, [2].iter().map(|x| c(*x)).collect());
    }

    #[test]
    #[should_panic(expected = "wrong table")]
    fn cross_table_columns_panic() {
        Index::new(T, [ColumnId::new(TableId(1), 0)], []);
    }

    #[test]
    fn merge_across_tables_is_none() {
        let i1 = ix(&[0], &[]);
        let i2 = Index::new(TableId(1), [ColumnId::new(TableId(1), 0)], []);
        assert!(i1.merge(&i2).is_none());
    }

    #[test]
    fn shared_prefix_lengths() {
        let i = ix(&[0, 1, 2], &[]);
        assert_eq!(i.shared_key_prefix(&[c(0), c(1), c(5)]), 2);
        assert_eq!(i.shared_key_prefix(&[c(1)]), 0);
    }
}
