//! # pdt-physical — physical design structures
//!
//! The objects the tuner reasons about:
//!
//! * [`index`] — B-tree indexes `I = (K; S)` (ordered key columns plus
//!   suffix columns), including the pure index algebra behind the
//!   paper's §3.1.1 transformations (merge / split / prefix);
//! * [`view`] — materialized views as the 6-tuple
//!   `V = (S, F, J, R, O, G)` of §3.1.2, with the subsumption-based
//!   matching test and the view-merge operation;
//! * [`config`] — a [`Configuration`]: a set of indexes and views,
//!   with the [`PhysicalSchema`] accessor that lets views act as
//!   tables (the paper: views "are treated as base tables");
//! * [`size`] — the B-tree size model of §3.3.1 (entries per page per
//!   level, fill factor, rid and page overheads).

pub mod config;
pub mod index;
mod memo;
pub mod size;
pub mod view;

pub use config::{index_sig128, view_sig128, Configuration, PageSlot, PhysicalSchema, Tagged128};
pub use index::Index;
pub use view::{MaterializedView, SpjgExpr, ViewColumn, ViewColumnSource, ViewMatch};
