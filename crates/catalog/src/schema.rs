//! Tables, columns, keys, and the [`Database`] root object.

use crate::ids::{ColumnId, TableId};
use crate::stats::ColumnStats;
use crate::types::ColumnType;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A column definition with its statistics.
#[derive(Debug, Clone)]
pub struct Column {
    pub name: String,
    pub ty: ColumnType,
    pub stats: ColumnStats,
}

impl Column {
    /// Average stored width in bytes (declared width for fixed types,
    /// sampled average for VARCHARs).
    pub fn avg_width(&self) -> f64 {
        match self.ty.fixed_width() {
            Some(w) => w as f64,
            None => self.stats.avg_width,
        }
    }
}

/// A foreign-key edge `this.column -> referenced_table.referenced_column`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForeignKey {
    pub column: u16,
    pub referenced_table: TableId,
    pub referenced_column: u16,
}

/// A base table: columns, cardinality and key metadata.
#[derive(Debug, Clone)]
pub struct Table {
    pub id: TableId,
    pub name: String,
    pub columns: Vec<Column>,
    /// Estimated number of rows.
    pub rows: f64,
    /// Ordinals of the primary-key columns (empty for heaps without a
    /// declared key).
    pub primary_key: Vec<u16>,
    pub foreign_keys: Vec<ForeignKey>,
}

impl Table {
    /// Column id for ordinal `i`.
    pub fn column_id(&self, ordinal: u16) -> ColumnId {
        ColumnId::new(self.id, ordinal)
    }

    /// Find a column ordinal by (case-insensitive) name.
    pub fn column_ordinal(&self, name: &str) -> Option<u16> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .map(|i| i as u16)
    }

    /// The column at `ordinal`, panicking on out-of-range (internal
    /// invariant: ColumnIds are only minted from real columns).
    pub fn column(&self, ordinal: u16) -> &Column {
        &self.columns[ordinal as usize]
    }

    /// Average width of a full row in bytes.
    pub fn row_width(&self) -> f64 {
        self.columns.iter().map(|c| c.avg_width()).sum()
    }

    /// Estimated heap size in bytes (rows x row width).
    pub fn heap_bytes(&self) -> f64 {
        self.rows * self.row_width()
    }

    /// All column ids of this table.
    pub fn all_column_ids(&self) -> impl Iterator<Item = ColumnId> + '_ {
        (0..self.columns.len() as u16).map(move |i| ColumnId::new(self.id, i))
    }
}

/// A database: the set of base tables plus a name index.
#[derive(Clone)]
pub struct Database {
    pub name: String,
    tables: Vec<Table>,
    by_name: HashMap<String, TableId>,
    /// A content signature of the catalog with the name it was computed
    /// under; see [`Database::memo_signature`]. Empty until first use,
    /// so building a catalog never pays for it.
    signature: OnceLock<(String, u128)>,
    /// See [`Database::uid`].
    uid: u64,
}

/// The next [`Database::uid`] to hand out.
static NEXT_UID: AtomicU64 = AtomicU64::new(1);

/// Written by hand so the memoized signature stays out of the rendering
/// (the output is that of the derived impl before the memo existed).
impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Database")
            .field("name", &self.name)
            .field("tables", &self.tables)
            .field("by_name", &self.by_name)
            .finish()
    }
}

impl Database {
    /// Start building a database.
    pub fn builder(name: impl Into<String>) -> DatabaseBuilder {
        DatabaseBuilder {
            db: Database {
                name: name.into(),
                tables: Vec::new(),
                by_name: HashMap::new(),
                signature: OnceLock::new(),
                uid: 0,
            },
        }
    }

    /// A content signature of this catalog, computed by `compute` at most
    /// once per value: the first call computes and remembers it, later
    /// calls (on this value or a clone of it) return it. Tables cannot
    /// change once built; the name can, so a value renamed after the
    /// first call computes afresh rather than answer for its old name.
    /// Callers must pass the same `compute` every time — the catalog
    /// keeps one signature, whose definition lives with its user.
    pub fn memo_signature(&self, compute: impl Fn(&Database) -> u128) -> u128 {
        let (name, sig) = self
            .signature
            .get_or_init(|| (self.name.clone(), compute(self)));
        if *name == self.name {
            *sig
        } else {
            compute(self)
        }
    }

    /// An identity for memos of facts derived from the tables: every
    /// [`DatabaseBuilder::build`] hands out a new one, and a clone keeps
    /// its original's (its tables are equal, and tables cannot change
    /// once built). Two catalogs with equal ids therefore answer every
    /// table question alike.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// All tables.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Table by id; panics if the id was not minted by this database
    /// (ids are dense indices).
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0 as usize]
    }

    /// Table lookup by case-insensitive name.
    pub fn table_by_name(&self, name: &str) -> Option<&Table> {
        self.by_name
            .get(&name.to_ascii_lowercase())
            .map(|id| self.table(*id))
    }

    /// Column metadata for a global column id. For view columns (ids in
    /// the view range) this panics — callers must resolve those through
    /// the physical layer's view registry.
    pub fn column(&self, id: ColumnId) -> &Column {
        self.table(id.table).column(id.ordinal)
    }

    /// Total size in bytes of all heaps.
    pub fn total_heap_bytes(&self) -> f64 {
        self.tables.iter().map(Table::heap_bytes).sum()
    }

    /// Human-readable `table.column` name for diagnostics.
    pub fn column_name(&self, id: ColumnId) -> String {
        if id.table.is_view() {
            return id.to_string();
        }
        let t = self.table(id.table);
        format!("{}.{}", t.name, t.column(id.ordinal).name)
    }

    fn rebuild_name_index(&mut self) {
        self.by_name = self
            .tables
            .iter()
            .map(|t| (t.name.to_ascii_lowercase(), t.id))
            .collect();
    }
}

/// Builder for [`Database`], assigning dense [`TableId`]s.
pub struct DatabaseBuilder {
    db: Database,
}

impl DatabaseBuilder {
    /// Add a table; returns its assigned id. Panics on duplicate names
    /// (schema construction is programmer-controlled).
    pub fn add_table(
        &mut self,
        name: impl Into<String>,
        rows: f64,
        columns: Vec<Column>,
        primary_key: Vec<u16>,
    ) -> TableId {
        let name = name.into();
        let id = TableId(self.db.tables.len() as u32);
        assert!(
            id.0 < TableId::VIEW_BASE,
            "too many base tables (collides with view id range)"
        );
        assert!(
            !self.db.by_name.contains_key(&name.to_ascii_lowercase()),
            "duplicate table name {name}"
        );
        for &pk in &primary_key {
            assert!(
                (pk as usize) < columns.len(),
                "primary key ordinal {pk} out of range for {name}"
            );
        }
        self.db.by_name.insert(name.to_ascii_lowercase(), id);
        self.db.tables.push(Table {
            id,
            name,
            columns,
            rows,
            primary_key,
            foreign_keys: Vec::new(),
        });
        id
    }

    /// Declare a foreign key (used by the cardinality module to detect
    /// key/foreign-key joins).
    pub fn add_foreign_key(
        &mut self,
        table: TableId,
        column: u16,
        referenced_table: TableId,
        referenced_column: u16,
    ) {
        self.db.tables[table.0 as usize]
            .foreign_keys
            .push(ForeignKey {
                column,
                referenced_table,
                referenced_column,
            });
    }

    /// Finalize the database.
    pub fn build(mut self) -> Database {
        self.db.rebuild_name_index();
        self.db.uid = NEXT_UID.fetch_add(1, Ordering::Relaxed);
        self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(name: &str, ty: ColumnType, ndv: f64) -> Column {
        Column {
            name: name.into(),
            ty,
            stats: ColumnStats::uniform(ndv, 0.0, ndv, ty.max_width() as f64),
        }
    }

    fn sample_db() -> Database {
        let mut b = Database::builder("testdb");
        let r = b.add_table(
            "r",
            1000.0,
            vec![
                col("a", ColumnType::Int, 1000.0),
                col("b", ColumnType::Int, 100.0),
                col("s", ColumnType::VarChar(32), 500.0),
            ],
            vec![0],
        );
        let s = b.add_table("s", 500.0, vec![col("y", ColumnType::Int, 500.0)], vec![0]);
        b.add_foreign_key(r, 1, s, 0);
        b.build()
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        let db = sample_db();
        assert!(db.table_by_name("R").is_some());
        assert!(db.table_by_name("nosuch").is_none());
    }

    #[test]
    fn column_ordinals_resolve() {
        let db = sample_db();
        let r = db.table_by_name("r").unwrap();
        assert_eq!(r.column_ordinal("B"), Some(1));
        assert_eq!(r.column_ordinal("z"), None);
    }

    #[test]
    fn row_width_counts_varchar_average() {
        let db = sample_db();
        let r = db.table_by_name("r").unwrap();
        // 4 + 4 + 32 (avg width seeded to max in this fixture).
        assert!((r.row_width() - 40.0).abs() < 1e-9);
        assert!((r.heap_bytes() - 40_000.0).abs() < 1e-6);
    }

    #[test]
    fn column_names_render() {
        let db = sample_db();
        let r = db.table_by_name("r").unwrap();
        assert_eq!(db.column_name(r.column_id(2)), "r.s");
    }

    #[test]
    #[should_panic(expected = "duplicate table name")]
    fn duplicate_names_panic() {
        let mut b = Database::builder("x");
        b.add_table("t", 1.0, vec![col("a", ColumnType::Int, 1.0)], vec![]);
        b.add_table("T", 1.0, vec![col("a", ColumnType::Int, 1.0)], vec![]);
    }

    #[test]
    fn foreign_keys_recorded() {
        let db = sample_db();
        let r = db.table_by_name("r").unwrap();
        assert_eq!(r.foreign_keys.len(), 1);
        assert_eq!(r.foreign_keys[0].referenced_table, TableId(1));
    }
}
