//! Configurations: sets of indexes and materialized views, plus the
//! [`PhysicalSchema`] accessor that makes views behave like tables.

use crate::index::Index;
use crate::memo::Memo;
use crate::size::SizeModel;
use crate::view::{MaterializedView, SpjgExpr};
use pdt_catalog::{ColumnId, ColumnStats, Database, TableId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A physical configuration: the set of available physical structures.
///
/// Per the paper, a materialized view is "a regular view for which a
/// clustered index has been implemented": a view in a configuration is
/// only *usable* once it has at least a clustered index; its size is
/// the sum of the sizes of its indexes.
///
/// Structures are shared, not owned: the relaxation search clones a
/// configuration per step it takes and pools every one, and a clone is
/// one allocation per collection plus a reference-count bump per
/// structure.
///
/// Each structure's 128-bit content signature ([`index_sig128`],
/// [`view_sig128`]) is computed at most once, the first time it is
/// asked for, and travels with the structure through clones and
/// relaxations. (Lazily, not at insertion: configurations that are only
/// ever planned against, like the instrumentation pass's trials, never
/// pay for one.) So does each index's page count under the default
/// [`SizeModel`]; see [`SizeModel::index_pages`].
#[derive(Clone, Default)]
pub struct Configuration {
    /// Sorted by `Index`'s `Ord` (table first), without duplicates: the
    /// iteration order of a `BTreeSet<Index>`, and one table's indexes
    /// are a contiguous range.
    indexes: Vec<Arc<Index>>,
    /// What is remembered about each slot of `indexes`, position for
    /// position.
    index_slots: Vec<IndexSlot>,
    views: BTreeMap<TableId, Arc<ViewEntry>>,
}

/// One index's table, and its memos, filled on first use. The table is
/// kept beside the handle so that finding a table's range reads these
/// slots and no index.
#[derive(Clone)]
struct IndexSlot {
    table: TableId,
    /// [`index_sig128`] of the index, as its low and high words.
    sig: Memo,
    /// The [`Database::uid`] of a catalog, and the index's pages (as
    /// `f64` bits) under the default [`SizeModel`], that catalog and
    /// the configuration's own views.
    pages: Memo,
}

/// A registered view with the `Debug` rendering of its definition, which
/// every content signature hashes, rendered once here instead of once
/// per signature call, and its own [`view_sig128`].
struct ViewEntry {
    view: MaterializedView,
    def_text: String,
    sig: OnceLock<u128>,
}

impl ViewEntry {
    fn sig(&self) -> u128 {
        *self
            .sig
            .get_or_init(|| def_sig128(self.view.id, &self.def_text))
    }
}

/// Written by hand so the output is that of the derived impl over
/// `{ indexes: BTreeSet<Index>, views: BTreeMap<TableId, MaterializedView> }`
/// (the report snapshots render configurations through it).
impl fmt::Debug for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Indexes<'a>(&'a [Arc<Index>]);
        impl fmt::Debug for Indexes<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0).finish()
            }
        }
        struct Views<'a>(&'a BTreeMap<TableId, Arc<ViewEntry>>);
        impl fmt::Debug for Views<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(id, e)| (id, &e.view)))
                    .finish()
            }
        }
        f.debug_struct("Configuration")
            .field("indexes", &Indexes(&self.indexes))
            .field("views", &Views(&self.views))
            .finish()
    }
}

impl Configuration {
    /// The empty configuration.
    pub fn new() -> Configuration {
        Configuration::default()
    }

    /// The *base configuration*: the structures that must be present in
    /// any configuration — a clustered primary-key index per table that
    /// declares one (constraint-enforcing indexes, §3.3.2).
    pub fn base(db: &Database) -> Configuration {
        let mut c = Configuration::new();
        for t in db.tables() {
            if !t.primary_key.is_empty() {
                c.add_index(Index::clustered(
                    t.id,
                    t.primary_key.iter().map(|o| ColumnId::new(t.id, *o)),
                ));
            }
        }
        c
    }

    // ----------------------------------------------------------------
    // Indexes
    // ----------------------------------------------------------------

    /// Add an index; returns false if it was already present or if it
    /// is a clustered index colliding with an existing clustered index
    /// on the same table ("provided that C does not already have
    /// another clustered index over table T", §3.1.1).
    pub fn add_index(&mut self, index: Index) -> bool {
        if index.clustered
            && self
                .indexes_on(index.table)
                .any(|i| i.clustered && *i != index)
        {
            return false;
        }
        match self.position(&index) {
            Ok(_) => false,
            Err(at) => {
                self.index_slots.insert(
                    at,
                    IndexSlot {
                        table: index.table,
                        sig: Memo::new(),
                        pages: Memo::new(),
                    },
                );
                self.indexes.insert(at, Arc::new(index));
                true
            }
        }
    }

    /// Remove an index; returns true if present.
    pub fn remove_index(&mut self, index: &Index) -> bool {
        match self.position(index) {
            Ok(at) => {
                self.indexes.remove(at);
                self.index_slots.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    pub fn contains_index(&self, index: &Index) -> bool {
        self.position(index).is_ok()
    }

    /// Where `index` is (or would go), searched within its table's range.
    fn position(&self, index: &Index) -> Result<usize, usize> {
        let run = self.table_range(index.table);
        self.indexes[run.clone()]
            .binary_search_by(|i| (**i).cmp(index))
            .map(|at| run.start + at)
            .map_err(|at| run.start + at)
    }

    /// All indexes.
    pub fn indexes(&self) -> impl Iterator<Item = &Index> {
        self.indexes.iter().map(Arc::as_ref)
    }

    /// All indexes with their [`index_sig128`], in [`indexes`] order.
    ///
    /// [`indexes`]: Configuration::indexes
    pub fn indexes_with_sigs(&self) -> impl Iterator<Item = (&Index, u128)> {
        (0..self.indexes.len()).map(|at| (&*self.indexes[at], self.sig_at(at)))
    }

    /// The shared handles of all indexes, in [`indexes`] order.
    ///
    /// [`indexes`]: Configuration::indexes
    pub fn index_handles(&self) -> &[Arc<Index>] {
        &self.indexes
    }

    /// One table's (or view's) indexes with their [`index_sig128`], in
    /// [`indexes_on`] order.
    ///
    /// [`indexes_on`]: Configuration::indexes_on
    pub fn indexes_with_sigs_on(&self, table: TableId) -> impl Iterator<Item = (&Index, u128)> {
        self.table_range(table)
            .map(|at| (&*self.indexes[at], self.sig_at(at)))
    }

    /// The [`index_sig128`] of `index`, if the configuration holds it.
    pub fn index_sig(&self, index: &Index) -> Option<u128> {
        self.position(index).ok().map(|at| self.sig_at(at))
    }

    fn sig_at(&self, at: usize) -> u128 {
        let [lo, hi] = self.index_slots[at].sig.get_or_init(|| {
            let sig = index_sig128(&self.indexes[at]);
            [sig as u64, (sig >> 64) as u64]
        });
        ((hi as u128) << 64) | lo as u128
    }

    /// The page memo of `index` if it is one of this configuration's own
    /// handles (the same allocation, not merely an equal index). A
    /// caller walking a table's handles reads each slot's memo in step
    /// instead ([`PhysicalSchema::indexes_with_pages_on`]).
    fn page_memo(&self, index: &Index) -> Option<&Memo> {
        // The table's range is short: scan it from its start instead of
        // searching for its end too.
        let start = self.index_slots.partition_point(|s| s.table < index.table);
        self.index_slots[start..]
            .iter()
            .zip(&self.indexes[start..])
            .take_while(|(slot, _)| slot.table == index.table)
            .find(|(_, h)| std::ptr::eq(&***h, index))
            .map(|(slot, _)| &slot.pages)
    }

    /// The indexes whose page count is memoized against `db`, with it.
    pub fn memoized_pages<'s>(&'s self, db: &Database) -> impl Iterator<Item = (&'s Index, f64)> {
        let uid = db.uid();
        self.indexes
            .iter()
            .zip(&self.index_slots)
            .filter_map(move |(i, slot)| match slot.pages.get() {
                Some([at, pages]) if at == uid => Some((&**i, f64::from_bits(pages))),
                _ => None,
            })
    }

    /// The configuration of `table`'s indexes alone (the same handles,
    /// with what each remembers) and, when `table` is a view, its entry:
    /// all a request over `table` reads of this configuration.
    pub fn restricted_to(&self, table: TableId) -> Configuration {
        let run = self.table_range(table);
        Configuration {
            indexes: self.indexes[run.clone()].to_vec(),
            index_slots: self.index_slots[run].to_vec(),
            views: self
                .views
                .get(&table)
                .map(|e| (table, Arc::clone(e)))
                .into_iter()
                .collect(),
        }
    }

    /// Indexes over one table (or view).
    pub fn indexes_on(&self, table: TableId) -> impl Iterator<Item = &Index> {
        self.indexes[self.table_range(table)]
            .iter()
            .map(Arc::as_ref)
    }

    /// The shared handles of one table's indexes, in [`indexes_on`]
    /// order: cloning one names the index without copying it.
    ///
    /// [`indexes_on`]: Configuration::indexes_on
    pub fn index_handles_on(&self, table: TableId) -> &[Arc<Index>] {
        &self.indexes[self.table_range(table)]
    }

    /// True if one table's indexes under two configurations (or at two
    /// moments of one) are the same handles in the same order: then no
    /// index was added to or removed from the table in between. A
    /// caller that keeps a slice to compare later keeps its handles
    /// alive with it, so an address is never reused meanwhile.
    pub fn same_handles(a: &[Arc<Index>], b: &[Arc<Index>]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y))
    }

    fn table_range(&self, table: TableId) -> std::ops::Range<usize> {
        let start = self.index_slots.partition_point(|s| s.table < table);
        let len = self.index_slots[start..].partition_point(|s| s.table == table);
        start..start + len
    }

    /// The clustered index on `table`, if any.
    pub fn clustered_index_on(&self, table: TableId) -> Option<&Index> {
        self.indexes_on(table).find(|i| i.clustered)
    }

    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    // ----------------------------------------------------------------
    // Views
    // ----------------------------------------------------------------

    /// A view id not yet in use.
    pub fn allocate_view_id(&self) -> TableId {
        let next = self
            .views
            .keys()
            .map(|id| id.0 + 1)
            .max()
            .unwrap_or(TableId::VIEW_BASE);
        TableId(next.max(TableId::VIEW_BASE))
    }

    /// Register a materialized view. Panics on id collision (ids come
    /// from [`Configuration::allocate_view_id`]).
    pub fn add_view(&mut self, view: MaterializedView) {
        // Indexes already on the id were sized without this view.
        let run = self.table_range(view.id);
        for slot in &mut self.index_slots[run] {
            slot.pages = Memo::new();
        }
        let def_text = format!("{:?}", view.def);
        let prev = self.views.insert(
            view.id,
            Arc::new(ViewEntry {
                view,
                def_text,
                sig: OnceLock::new(),
            }),
        );
        assert!(prev.is_none(), "view id already in use");
    }

    /// Remove a view and (per §3.1.2 Removal) every index defined over
    /// it. Returns true if the view existed.
    pub fn remove_view(&mut self, id: TableId) -> bool {
        if self.views.remove(&id).is_none() {
            return false;
        }
        let range = self.table_range(id);
        self.indexes.drain(range.clone());
        self.index_slots.drain(range);
        true
    }

    pub fn view(&self, id: TableId) -> Option<&MaterializedView> {
        self.views.get(&id).map(|e| &e.view)
    }

    /// The view registered under `id` with its [`view_sig128`].
    pub fn view_with_sig(&self, id: TableId) -> Option<(&MaterializedView, u128)> {
        self.views.get(&id).map(|e| (&e.view, e.sig()))
    }

    pub fn views(&self) -> impl Iterator<Item = &MaterializedView> {
        self.views.values().map(|e| &e.view)
    }

    /// All views with their [`view_sig128`], in [`views`] order.
    ///
    /// [`views`]: Configuration::views
    pub fn views_with_sigs(&self) -> impl Iterator<Item = (&MaterializedView, u128)> {
        self.views.values().map(|e| (&e.view, e.sig()))
    }

    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// Find a view with a structurally identical definition.
    pub fn find_view_by_def(&self, def: &SpjgExpr) -> Option<&MaterializedView> {
        self.views().find(|v| v.def == *def)
    }

    /// Views that are usable by the optimizer (have a clustered index).
    pub fn usable_views(&self) -> impl Iterator<Item = &MaterializedView> {
        self.views()
            .filter(|v| self.clustered_index_on(v.id).is_some())
    }

    // ----------------------------------------------------------------
    // Whole-configuration operations
    // ----------------------------------------------------------------

    /// Union of two configurations (view id collisions keep `self`'s
    /// entry when definitions are identical; otherwise the other view
    /// is re-registered under a fresh id and its indexes remapped).
    pub fn union(&self, other: &Configuration) -> Configuration {
        let mut out = self.clone();
        let mut remap: BTreeMap<TableId, TableId> = BTreeMap::new();
        for v in other.views() {
            if let Some(existing) = out.find_view_by_def(&v.def) {
                if existing.id != v.id {
                    remap.insert(v.id, existing.id);
                }
                continue;
            }
            match out.views.get(&v.id) {
                None => out.add_view(MaterializedView::clone(v)),
                Some(_) => {
                    let fresh = out.allocate_view_id();
                    let mut moved = MaterializedView::clone(v);
                    moved.id = fresh;
                    remap.insert(v.id, fresh);
                    out.add_view(moved);
                }
            }
        }
        for i in other.indexes() {
            let mut idx = i.clone();
            if let Some(new_id) = remap.get(&i.table) {
                idx = remap_index(&idx, *new_id);
            }
            out.add_index(idx);
        }
        out
    }

    /// Total estimated size in bytes under the default size model
    /// (base-table clustered indexes are charged internal nodes only —
    /// see [`SizeModel::index_bytes_charged`]).
    pub fn size_bytes(&self, db: &Database) -> f64 {
        let model = SizeModel::default();
        let schema = PhysicalSchema::new(db, self);
        self.indexes()
            .map(|i| model.index_bytes_charged(&schema, i))
            .sum()
    }

    /// Number of physical structures (indexes; views count through
    /// their indexes).
    pub fn structure_count(&self) -> usize {
        self.indexes.len() + self.views.len()
    }

    /// A stable content signature for search-pool deduplication.
    pub fn signature(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        for i in &self.indexes {
            i.hash(&mut h);
        }
        for (id, v) in &self.views {
            id.hash(&mut h);
            v.def_text.hash(&mut h);
        }
        h.finish()
    }

    /// 128-bit content signature for cache and memo keys: two
    /// independently-tagged 64-bit hashes over the same structure
    /// stream. Collision probability is negligible at any realistic
    /// search-pool size, so plan-cache correctness never rides on a
    /// 64-bit hash.
    pub fn signature128(&self) -> u128 {
        let mut h = Tagged128::new();
        for i in &self.indexes {
            h.hash(i);
        }
        for (id, v) in &self.views {
            h.hash(id);
            h.hash(&v.def_text);
        }
        h.finish()
    }

    /// Signature of the configuration *as seen by a query over
    /// `tables`*: the indexes on those tables, the views whose
    /// definitions join a subset of them (the only views that can
    /// match, per [`MaterializedView::try_match`]), and the indexes on
    /// those views. Two configurations with equal projected signatures
    /// yield identical plans for the query, so this is the coarse cache
    /// key for memoized what-if optimizer calls.
    ///
    /// It folds the structures' stored signatures ([`index_sig128`],
    /// [`view_sig128`]), walking only the tables' index ranges and the
    /// visible views': nothing is hashed from content here.
    pub fn signature_for_tables128(&self, tables: &BTreeSet<TableId>) -> u128 {
        let mut h = Tagged128::new();
        for &table in tables {
            for at in self.table_range(table) {
                h.hash(&self.sig_at(at));
            }
        }
        for (&id, v) in &self.views {
            if v.view.def.tables.is_subset(tables) {
                h.hash(&v.sig());
                for at in self.table_range(id) {
                    h.hash(&self.sig_at(at));
                }
            }
        }
        h.finish()
    }
}

// The signatures above and `Tagged128` hash `derive(Hash)` values, whose
// lengths and discriminants are fed at the target's width.
const _: () = assert!(usize::BITS == 64, "signatures pinned for 64-bit");

/// A 128-bit content hasher: two `DefaultHasher`s seeded with distinct
/// tag prefixes, combined as `(hi << 64) | lo`. Like the 64-bit
/// signatures it widens, it is only stable within one build (`std`'s
/// `DefaultHasher`), which is already the checkpoint contract.
#[derive(Clone)]
pub struct Tagged128 {
    lo: std::collections::hash_map::DefaultHasher,
    hi: std::collections::hash_map::DefaultHasher,
}

impl Default for Tagged128 {
    fn default() -> Tagged128 {
        Tagged128::new()
    }
}

impl Tagged128 {
    pub fn new() -> Tagged128 {
        use std::hash::Hasher;
        let mut lo = std::collections::hash_map::DefaultHasher::new();
        let mut hi = std::collections::hash_map::DefaultHasher::new();
        lo.write(b"pdt-sig128-lo");
        hi.write(b"pdt-sig128-hi");
        Tagged128 { lo, hi }
    }

    pub fn hash<T: std::hash::Hash + ?Sized>(&mut self, value: &T) {
        value.hash(&mut self.lo);
        value.hash(&mut self.hi);
    }

    pub fn finish(&self) -> u128 {
        use std::hash::Hasher;
        ((self.hi.finish() as u128) << 64) | self.lo.finish() as u128
    }
}

/// 128-bit content signature of a single physical structure, matching
/// the per-element encoding of [`Configuration::signature128`]: indexes
/// hash directly, views hash as `(id, debug-formatted definition)`.
pub fn index_sig128(index: &Index) -> u128 {
    let mut h = Tagged128::new();
    h.hash(index);
    h.finish()
}

/// See [`index_sig128`].
pub fn view_sig128(id: TableId, view: &MaterializedView) -> u128 {
    def_sig128(id, &format!("{:?}", view.def))
}

/// [`view_sig128`] from the already-rendered definition.
fn def_sig128(id: TableId, def_text: &str) -> u128 {
    let mut h = Tagged128::new();
    h.hash(&id);
    h.hash(def_text);
    h.finish()
}

fn remap_index(index: &Index, new_table: TableId) -> Index {
    let mut idx = Index::new(
        new_table,
        index
            .key
            .iter()
            .map(|c| ColumnId::new(new_table, c.ordinal)),
        index
            .suffix
            .iter()
            .map(|c| ColumnId::new(new_table, c.ordinal)),
    );
    idx.clustered = index.clustered;
    idx
}

/// Where one of a configuration's own indexes memoizes its page count
/// under a schema, handed out beside the handle by
/// [`PhysicalSchema::indexes_with_pages_on`]; empty when the schema
/// sizes the index differently from its configuration.
#[derive(Clone, Copy)]
pub struct PageSlot<'a>(pub(crate) Option<&'a Memo>);

impl PageSlot<'_> {
    /// No memo: [`SizeModel::index_pages_at`] computes the count.
    pub const NONE: PageSlot<'static> = PageSlot(None);
}

/// Unified schema accessor over base tables and materialized views.
#[derive(Clone, Copy)]
pub struct PhysicalSchema<'a> {
    pub db: &'a Database,
    pub config: &'a Configuration,
    /// Views of `config` this schema does not resolve, and one view
    /// beyond `config`'s that it does; see [`PhysicalSchema::relaxed`].
    hidden_views: &'a [TableId],
    extra_view: Option<&'a MaterializedView>,
}

impl<'a> PhysicalSchema<'a> {
    pub fn new(db: &'a Database, config: &'a Configuration) -> PhysicalSchema<'a> {
        PhysicalSchema {
            db,
            config,
            hidden_views: &[],
            extra_view: None,
        }
    }

    /// The view side of the schema of a configuration one relaxation
    /// step away from `config`, without building that configuration:
    /// `removed` views stop resolving as tables and `added` starts to.
    /// Sizes and costs structures of the relaxed configuration;
    /// `config`'s *indexes* are not relaxed, so callers enumerate the
    /// relaxed index set themselves.
    pub fn relaxed(
        self,
        removed: &'a [TableId],
        added: Option<&'a MaterializedView>,
    ) -> PhysicalSchema<'a> {
        PhysicalSchema {
            hidden_views: removed,
            extra_view: added,
            ..self
        }
    }

    /// Whether this schema sizes `table`'s indexes as `config` does, so
    /// their page memos apply: always for a base table, for a view only
    /// when the schema hides no view and adds none.
    fn sizes_as_config(&self, table: TableId) -> bool {
        !table.is_view() || (self.hidden_views.is_empty() && self.extra_view.is_none())
    }

    /// The page memo of `index` under this schema: present when `index`
    /// is one of `config`'s own handles and this schema sizes it as
    /// `config` does.
    pub(crate) fn page_memo(&self, index: &Index) -> Option<&'a Memo> {
        if !self.sizes_as_config(index.table) {
            return None;
        }
        self.config.page_memo(index)
    }

    /// One table's (or view's) index handles, in
    /// [`Configuration::index_handles_on`] order, each with where its
    /// page count is memoized under this schema (nowhere when the
    /// schema sizes the table's indexes differently from `config`):
    /// what [`SizeModel::index_pages_at`] reads without searching for
    /// the handle.
    pub fn indexes_with_pages_on(
        &self,
        table: TableId,
    ) -> impl Iterator<Item = (&'a Arc<Index>, PageSlot<'a>)> + Clone {
        let memos = self.sizes_as_config(table);
        let config = self.config;
        let run = config.table_range(table);
        config.indexes[run.clone()]
            .iter()
            .zip(&config.index_slots[run])
            .map(move |(handle, slot)| (handle, PageSlot(memos.then_some(&slot.pages))))
    }

    /// The view registered under `id`, if this schema resolves it.
    pub fn view(&self, id: TableId) -> Option<&'a MaterializedView> {
        match self.extra_view {
            Some(v) if v.id == id => Some(v),
            _ if self.hidden_views.contains(&id) => None,
            _ => self.config.view(id),
        }
    }

    /// Row count of a base table or view.
    pub fn rows(&self, table: TableId) -> f64 {
        if table.is_view() {
            self.view(table).map(|v| v.rows).unwrap_or(1.0)
        } else {
            self.db.table(table).rows
        }
    }

    /// Full row width of a base table or view.
    pub fn row_width(&self, table: TableId) -> f64 {
        if table.is_view() {
            self.view(table).map(|v| v.row_width()).unwrap_or(8.0)
        } else {
            self.db.table(table).row_width()
        }
    }

    /// Average width of a column (base or view).
    pub fn column_width(&self, col: ColumnId) -> f64 {
        if col.table.is_view() {
            self.view(col.table)
                .and_then(|v| v.columns.get(col.ordinal as usize))
                .map(|c| c.width)
                .unwrap_or(8.0)
        } else {
            self.db.column(col).avg_width()
        }
    }

    /// Statistics of a column (base or view). Returns `None` for
    /// unknown view columns.
    pub fn column_stats(&self, col: ColumnId) -> Option<&ColumnStats> {
        if col.table.is_view() {
            self.view(col.table)?
                .columns
                .get(col.ordinal as usize)
                .map(|c| &c.stats)
        } else {
            Some(&self.db.column(col).stats)
        }
    }

    /// Human-readable column name.
    pub fn column_name(&self, col: ColumnId) -> String {
        if col.table.is_view() {
            match self
                .view(col.table)
                .and_then(|v| v.columns.get(col.ordinal as usize))
            {
                Some(c) => format!("{}.{}", col.table, c.name),
                None => col.to_string(),
            }
        } else {
            self.db.column_name(col)
        }
    }

    /// All column ids of a base table or view.
    pub fn all_columns(&self, table: TableId) -> Vec<ColumnId> {
        if table.is_view() {
            match self.view(table) {
                Some(v) => (0..v.columns.len() as u16)
                    .map(|i| ColumnId::new(table, i))
                    .collect(),
                None => Vec::new(),
            }
        } else {
            self.db.table(table).all_column_ids().collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::SpjgExpr;
    use pdt_catalog::{ColumnStats, ColumnType};

    fn test_db() -> Database {
        let mut b = Database::builder("t");
        let mk = |name: &str| pdt_catalog::Column {
            name: name.into(),
            ty: ColumnType::Int,
            stats: ColumnStats::uniform(100.0, 0.0, 100.0, 4.0),
        };
        b.add_table("r", 100_000.0, vec![mk("a"), mk("b"), mk("c")], vec![0]);
        b.add_table("s", 50_000.0, vec![mk("y")], vec![0]);
        b.add_table("heap", 10.0, vec![mk("h")], vec![]);
        b.build()
    }

    fn rcol(db: &Database, c: &str) -> ColumnId {
        let t = db.table_by_name("r").unwrap();
        t.column_id(t.column_ordinal(c).unwrap())
    }

    #[test]
    fn base_configuration_has_pk_clustered_indexes() {
        let db = test_db();
        let base = Configuration::base(&db);
        assert_eq!(base.index_count(), 2, "heap table gets no index");
        for i in base.indexes() {
            assert!(i.clustered);
        }
    }

    #[test]
    fn one_clustered_index_per_table() {
        let db = test_db();
        let mut c = Configuration::base(&db);
        let t = db.table_by_name("r").unwrap().id;
        let second = Index::clustered(t, [rcol(&db, "b")]);
        assert!(!c.add_index(second));
        // Re-adding the same clustered index is idempotent, not a
        // violation.
        let same = c.clustered_index_on(t).unwrap().clone();
        assert!(!c.add_index(same));
    }

    #[test]
    fn remove_view_cascades_indexes() {
        let db = test_db();
        let mut c = Configuration::new();
        let vid = c.allocate_view_id();
        let def = SpjgExpr {
            tables: [db.table_by_name("r").unwrap().id].into(),
            output_cols: [rcol(&db, "a")].into(),
            ..Default::default()
        };
        let v = MaterializedView::create(vid, def, 1000.0, &db);
        c.add_view(v);
        c.add_index(Index::clustered(vid, [ColumnId::new(vid, 0)]));
        assert_eq!(c.structure_count(), 2);
        assert!(c.remove_view(vid));
        assert_eq!(c.structure_count(), 0);
        assert!(!c.remove_view(vid));
    }

    #[test]
    fn usable_views_require_clustered_index() {
        let db = test_db();
        let mut c = Configuration::new();
        let vid = c.allocate_view_id();
        let def = SpjgExpr {
            tables: [db.table_by_name("r").unwrap().id].into(),
            output_cols: [rcol(&db, "a")].into(),
            ..Default::default()
        };
        c.add_view(MaterializedView::create(vid, def, 1000.0, &db));
        assert_eq!(c.usable_views().count(), 0);
        c.add_index(Index::clustered(vid, [ColumnId::new(vid, 0)]));
        assert_eq!(c.usable_views().count(), 1);
    }

    #[test]
    fn size_grows_with_structures() {
        let db = test_db();
        let base = Configuration::base(&db);
        let mut bigger = base.clone();
        let t = db.table_by_name("r").unwrap().id;
        bigger.add_index(Index::new(t, [rcol(&db, "b")], [rcol(&db, "c")]));
        assert!(bigger.size_bytes(&db) > base.size_bytes(&db));
    }

    #[test]
    fn signatures_distinguish_configurations() {
        let db = test_db();
        let base = Configuration::base(&db);
        let mut other = base.clone();
        let t = db.table_by_name("r").unwrap().id;
        other.add_index(Index::new(t, [rcol(&db, "b")], []));
        assert_ne!(base.signature(), other.signature());
        assert_eq!(base.signature(), Configuration::base(&db).signature());
    }

    #[test]
    fn projected_signatures_ignore_unrelated_tables() {
        let db = test_db();
        let r = db.table_by_name("r").unwrap().id;
        let s = db.table_by_name("s").unwrap().id;
        let r_only: BTreeSet<TableId> = [r].into();

        let base = Configuration::base(&db);
        let mut with_s_index = base.clone();
        with_s_index.add_index(Index::new(s, [ColumnId::new(s, 0)], []));
        // An index on `s` is invisible to queries over `r` alone...
        assert_eq!(
            base.signature_for_tables128(&r_only),
            with_s_index.signature_for_tables128(&r_only)
        );
        // ...but visible to queries joining both tables.
        let both: BTreeSet<TableId> = [r, s].into();
        assert_ne!(
            base.signature_for_tables128(&both),
            with_s_index.signature_for_tables128(&both)
        );

        // An index on `r` changes `r`'s projection.
        let mut with_r_index = base.clone();
        with_r_index.add_index(Index::new(r, [rcol(&db, "b")], []));
        assert_ne!(
            base.signature_for_tables128(&r_only),
            with_r_index.signature_for_tables128(&r_only)
        );

        // A view over `r` (and its index) is part of `r`'s projection.
        let mut with_view = base.clone();
        let vid = with_view.allocate_view_id();
        let def = SpjgExpr {
            tables: [r].into(),
            output_cols: [rcol(&db, "a")].into(),
            ..Default::default()
        };
        with_view.add_view(MaterializedView::create(vid, def, 1000.0, &db));
        with_view.add_index(Index::clustered(vid, [ColumnId::new(vid, 0)]));
        assert_ne!(
            base.signature_for_tables128(&r_only),
            with_view.signature_for_tables128(&r_only)
        );
        // But invisible to queries over `s` alone.
        let s_only: BTreeSet<TableId> = [s].into();
        assert_eq!(
            base.signature_for_tables128(&s_only),
            with_view.signature_for_tables128(&s_only)
        );
    }

    #[test]
    fn union_merges_indexes_and_views() {
        let db = test_db();
        let t = db.table_by_name("r").unwrap().id;
        let mut a = Configuration::new();
        a.add_index(Index::new(t, [rcol(&db, "a")], []));
        let mut b = Configuration::new();
        b.add_index(Index::new(t, [rcol(&db, "b")], []));
        let vid = b.allocate_view_id();
        let def = SpjgExpr {
            tables: [t].into(),
            output_cols: [rcol(&db, "a")].into(),
            ..Default::default()
        };
        b.add_view(MaterializedView::create(vid, def, 10.0, &db));
        let u = a.union(&b);
        assert_eq!(u.index_count(), 2);
        assert_eq!(u.view_count(), 1);
    }

    #[test]
    fn union_dedupes_views_by_definition() {
        let db = test_db();
        let t = db.table_by_name("r").unwrap().id;
        let def = SpjgExpr {
            tables: [t].into(),
            output_cols: [rcol(&db, "a")].into(),
            ..Default::default()
        };
        let mut a = Configuration::new();
        let va = a.allocate_view_id();
        a.add_view(MaterializedView::create(va, def.clone(), 10.0, &db));
        a.add_index(Index::clustered(va, [ColumnId::new(va, 0)]));
        let mut b = Configuration::new();
        let vb = b.allocate_view_id();
        b.add_view(MaterializedView::create(vb, def, 10.0, &db));
        b.add_index(Index::clustered(vb, [ColumnId::new(vb, 0)]));
        let u = a.union(&b);
        assert_eq!(u.view_count(), 1);
        assert_eq!(u.index_count(), 1);
    }

    #[test]
    fn physical_schema_resolves_views() {
        let db = test_db();
        let mut c = Configuration::new();
        let vid = c.allocate_view_id();
        let def = SpjgExpr {
            tables: [db.table_by_name("r").unwrap().id].into(),
            output_cols: [rcol(&db, "a"), rcol(&db, "b")].into(),
            ..Default::default()
        };
        c.add_view(MaterializedView::create(vid, def, 123.0, &db));
        let s = PhysicalSchema::new(&db, &c);
        assert_eq!(s.rows(vid), 123.0);
        assert_eq!(s.all_columns(vid).len(), 2);
        assert!(s.column_stats(ColumnId::new(vid, 0)).is_some());
        assert!(s.column_name(ColumnId::new(vid, 0)).contains("r_a"));
        // Base tables resolve too.
        let r = db.table_by_name("r").unwrap().id;
        assert_eq!(s.rows(r), 100_000.0);
    }
}
