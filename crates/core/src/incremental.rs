//! Incremental candidate engine support: structure interning.
//!
//! [`Interner`] hash-conses [`Index`] descriptors into precomputed
//! 64-bit signatures so candidate keys and `tried`-set membership are
//! O(1) integer operations instead of re-hashing column vectors at
//! every node.

use crate::transform::Transformation;
use pdt_physical::Index;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Hash-consed signatures for physical structures and transformations.
///
/// Lives on the driver thread only (`RefCell`); workers receive
/// precomputed signatures. Signatures are *content-addressed* (a stable
/// hash of the descriptor itself, never an insertion counter), so a
/// resumed session regenerates the identical mapping by replaying the
/// same enumeration, and nothing about it is checkpointed.
#[derive(Default)]
pub struct Interner {
    indexes: RefCell<HashMap<Index, u64>>,
}

impl Interner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Signature of an index descriptor, computed once per distinct value.
    pub fn index_sig(&self, index: &Index) -> u64 {
        if let Some(&sig) = self.indexes.borrow().get(index) {
            return sig;
        }
        let mut h = DefaultHasher::new();
        index.hash(&mut h);
        let sig = h.finish();
        self.indexes.borrow_mut().insert(index.clone(), sig);
        sig
    }

    /// Signature of a transformation: a variant tag plus the interned
    /// signatures of its components. Collisions would affect the
    /// incremental and from-scratch engines identically (both key the
    /// same inheritance map and `tried` set by the same value), so
    /// byte-identity is preserved even in that astronomically unlikely
    /// case.
    pub fn transform_sig(&self, t: &Transformation) -> u64 {
        let mut h = DefaultHasher::new();
        match t {
            Transformation::MergeIndexes { i1, i2 } => {
                1u8.hash(&mut h);
                self.index_sig(i1).hash(&mut h);
                self.index_sig(i2).hash(&mut h);
            }
            Transformation::SplitIndexes { i1, i2 } => {
                2u8.hash(&mut h);
                self.index_sig(i1).hash(&mut h);
                self.index_sig(i2).hash(&mut h);
            }
            Transformation::PrefixIndex { index, len } => {
                3u8.hash(&mut h);
                self.index_sig(index).hash(&mut h);
                len.hash(&mut h);
            }
            Transformation::PromoteToClustered { index } => {
                4u8.hash(&mut h);
                self.index_sig(index).hash(&mut h);
            }
            Transformation::RemoveIndex { index } => {
                5u8.hash(&mut h);
                self.index_sig(index).hash(&mut h);
            }
            Transformation::MergeViews { v1, v2 } => {
                6u8.hash(&mut h);
                v1.hash(&mut h);
                v2.hash(&mut h);
            }
            Transformation::RemoveView { view } => {
                7u8.hash(&mut h);
                view.hash(&mut h);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt_catalog::{ColumnId, TableId};

    fn ix(table: u32, col: u16) -> Index {
        let t = TableId(table);
        Index::new(t, [ColumnId::new(t, col)], [])
    }

    #[test]
    fn interner_is_content_addressed_and_stable() {
        let a = Interner::new();
        let b = Interner::new();
        let i = ix(1, 0);
        let s1 = a.index_sig(&i);
        let s2 = a.index_sig(&i.clone());
        assert_eq!(s1, s2);
        // A fresh interner assigns the same signature: content, not order.
        b.index_sig(&ix(2, 3));
        assert_eq!(b.index_sig(&i), s1);
    }

    #[test]
    fn transform_sigs_distinguish_variants() {
        let it = Interner::new();
        let i1 = ix(1, 0);
        let i2 = ix(1, 1);
        let merge = it.transform_sig(&Transformation::MergeIndexes {
            i1: i1.clone(),
            i2: i2.clone(),
        });
        let split = it.transform_sig(&Transformation::SplitIndexes {
            i1: i1.clone(),
            i2: i2.clone(),
        });
        let remove = it.transform_sig(&Transformation::RemoveIndex { index: i1.clone() });
        let promote = it.transform_sig(&Transformation::PromoteToClustered { index: i1 });
        assert_ne!(merge, split);
        assert_ne!(remove, promote);
    }
}
