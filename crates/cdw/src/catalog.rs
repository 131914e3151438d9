//! The CDW catalog: schemas, row storage, the one ordered index each
//! table keeps on its declared key, and per-table locking.
//!
//! A table's rows are one shared, copy-on-write *version*
//! ([`RowVersion`]). A whole-table read hands out the version itself —
//! an `Arc` clone, no row touched — and a writer copies it only while
//! such a reader still holds it, so the reader keeps the rows it read.
//!
//! The catalog maps canonical table names to `Arc<RwLock<Table>>` handles
//! so statements lock exactly the tables they touch — readers of
//! different tables (and readers of the same table) no longer serialize
//! behind one global lock. Lock acquisition order is by canonical name
//! (sorted in the engine) to stay deadlock-free.

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::{RwLockReadGuard, RwLockWriteGuard};

use etlv_protocol::data::{coerce_text, Value, ValueError};
use etlv_protocol::errcode::Cause;
use etlv_sql::ast::{ColumnDef, TableConstraint};
use etlv_sql::SqlType;
use parking_lot::RwLock;

use crate::error::CdwError;
use crate::index::OrderedIndex;
use crate::key::cmp_rows;

/// One version of a table's rows, shared copy-on-write between the table
/// and the results that read all of it.
pub type RowVersion = Arc<Vec<Vec<Value>>>;

/// A column of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (stored upper-cased; lookups are case-insensitive).
    pub name: String,
    /// Declared type.
    pub ty: SqlType,
    /// NOT NULL?
    pub not_null: bool,
}

impl Column {
    /// Coerce one value of table `table` into this column, enforcing NOT
    /// NULL: the rule INSERT and UPDATE apply to each value that lands. A
    /// value that already fits the column is returned as it is (see
    /// [`Value::coerce_to`]).
    #[inline]
    pub fn coerce(&self, table: &str, v: Value) -> Result<Value, CdwError> {
        if v.is_null() {
            return self.null(table);
        }
        v.coerce_to(self.ty.to_legacy())
            .map_err(|e| self.value_error(table, e))
    }

    /// [`coerce`](Self::coerce) for a staged text field, `None` being
    /// NULL: the rule COPY applies as it decodes, through
    /// [`coerce_text`], so only character data allocates.
    #[inline]
    pub fn coerce_text(&self, table: &str, text: Option<&str>) -> Result<Value, CdwError> {
        match text {
            None => self.null(table),
            Some(text) => {
                coerce_text(text, self.ty.to_legacy()).map_err(|e| self.value_error(table, e))
            }
        }
    }

    /// NULL in this column: an abort if it is NOT NULL.
    fn null(&self, table: &str) -> Result<Value, CdwError> {
        if self.not_null {
            return Err(CdwError::abort(
                Cause::Null,
                format!("NULL in NOT NULL column {table}.{}", self.name),
            ));
        }
        Ok(Value::Null)
    }

    fn value_error(&self, table: &str, e: ValueError) -> CdwError {
        CdwError::abort(
            e.cause,
            format!("column {table}.{}: {}", self.name, e.reason),
        )
    }
}

/// A stored table: schema, rows, and the ordered index on its key.
#[derive(Debug, Clone)]
pub struct Table {
    /// Canonical (upper-cased, dotted) name.
    pub name: String,
    /// Column definitions.
    pub columns: Vec<Column>,
    /// Row storage: read through [`Table::rows`], written only through
    /// [`Table::rows_mut`].
    rows: RowVersion,
    /// The ordered index on the declared UNIQUE / PRIMARY KEY columns,
    /// maintained through every mutation. Its columns are the key.
    pub pk: Option<OrderedIndex>,
}

impl Table {
    /// Build a table from a parsed CREATE TABLE.
    pub fn from_create(
        name: String,
        columns: &[ColumnDef],
        constraints: &[TableConstraint],
    ) -> Result<Table, CdwError> {
        let cols: Vec<Column> = columns
            .iter()
            .map(|c| Column {
                name: c.name.to_ascii_uppercase(),
                ty: c.ty,
                not_null: c.not_null,
            })
            .collect();
        let mut pk = None;
        for c in constraints {
            let TableConstraint::Unique { columns: ucols, .. } = c;
            let mut idxs = Vec::with_capacity(ucols.len());
            for uc in ucols {
                let uc_up = uc.to_ascii_uppercase();
                let idx = cols
                    .iter()
                    .position(|c| c.name == uc_up)
                    .ok_or_else(|| CdwError::ColumnNotFound(uc.clone()))?;
                idxs.push(idx);
            }
            // Multiple unique constraints collapse to the first (the
            // legacy scripts in scope declare at most one). The index is
            // maintained even with native uniqueness enforcement off: the
            // emulation probe and the planner both seek it.
            if pk.is_none() {
                pk = Some(OrderedIndex::new(idxs));
            }
        }
        Ok(Table {
            name,
            columns: cols,
            rows: RowVersion::default(),
            pk,
        })
    }

    /// Index of column `name` (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        let up = name.to_ascii_uppercase();
        self.columns.iter().position(|c| c.name == up)
    }

    /// The rows, in rowid order.
    pub(crate) fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// The current version of the rows, shared: a reader holding it keeps
    /// these rows whatever is written afterwards.
    pub(crate) fn version(&self) -> RowVersion {
        Arc::clone(&self.rows)
    }

    /// The rows, for writing. A version some reader still holds is copied
    /// first, and the table moves to the copy; the copy is counted in
    /// `copies`.
    pub(crate) fn rows_mut(&mut self, copies: &mut u64) -> &mut Vec<Vec<Value>> {
        if Arc::get_mut(&mut self.rows).is_none() {
            *copies += 1;
        }
        Arc::make_mut(&mut self.rows)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append pre-validated rows in one shot — the storage half of INSERT
    /// and COPY — then hand the key index the new rowid range, which it
    /// sorts and merges in (see [`OrderedIndex::insert_range`]). Rows are
    /// moved, never cloned; callers must have validated width, types, and
    /// (if enforced) uniqueness already. Returns the number of index maintenance
    /// operations performed; a version copy, if one was made, is counted
    /// in `copies`.
    pub fn append_rows(&mut self, rows: Vec<Vec<Value>>, copies: &mut u64) -> usize {
        let stored = self.rows_mut(copies);
        let start = stored.len();
        stored.extend(rows);
        match &mut self.pk {
            Some(pk) => pk.insert_range(&self.rows, start),
            None => 0,
        }
    }

    /// Re-key the key index from current rows (after DELETE compaction,
    /// or an UPDATE that assigned a key column). Returns index
    /// maintenance operations.
    pub fn rebuild_pk(&mut self) -> usize {
        match &mut self.pk {
            Some(pk) => pk.rebuild(&self.rows),
            None => 0,
        }
    }

    /// Exhaustive index/table consistency check (test harness hook): the
    /// key index is a permutation of the rowids, in key order, ties by
    /// rowid, each beside its key's prefix.
    pub fn validate_indexes(&self) -> Result<(), String> {
        let Some(ix) = &self.pk else {
            return Ok(());
        };
        let (name, order) = (&self.name, ix.rowids());
        if order.len() != self.rows.len() {
            return Err(format!(
                "{name}.PK: {} entries for {} rows",
                order.len(),
                self.rows.len()
            ));
        }
        let mut seen = vec![false; self.rows.len()];
        for (&rid, &prefix) in order.iter().zip(ix.prefixes()) {
            let rid = rid as usize;
            if rid >= self.rows.len() || seen[rid] {
                return Err(format!("{name}.PK: rowid {rid} out of range or duplicated"));
            }
            seen[rid] = true;
            if prefix != ix.prefix_of(&self.rows[rid]) {
                return Err(format!("{name}.PK: stale key prefix for rowid {rid}"));
            }
        }
        for pair in order.windows(2) {
            let key = |rid: u32| ix.key_of(&self.rows[rid as usize]);
            if cmp_rows(&key(pair[0]), &key(pair[1]))
                .then(pair[0].cmp(&pair[1]))
                .is_ge()
            {
                return Err(format!(
                    "{name}.PK: rowid {} out of key order after rowid {}",
                    pair[1], pair[0]
                ));
            }
        }
        Ok(())
    }
}

/// The catalog of all tables, each behind its own reader/writer lock.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<RwLock<Table>>>,
}

/// Canonicalize a dotted object name for catalog lookup.
pub fn canonical_name(name: &str) -> String {
    name.to_ascii_uppercase()
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a new table.
    pub fn create(&mut self, table: Table, if_not_exists: bool) -> Result<(), CdwError> {
        let key = canonical_name(&table.name);
        if self.tables.contains_key(&key) {
            if if_not_exists {
                return Ok(());
            }
            return Err(CdwError::TableExists(table.name));
        }
        self.tables.insert(key, Arc::new(RwLock::new(table)));
        Ok(())
    }

    /// Drop a table, returning its handle (`None` for `IF EXISTS` on a
    /// missing table) so the caller frees its rows after releasing the
    /// catalog lock. (Named `drop_table` so calls through lock guards
    /// don't resolve to `Drop::drop`.)
    pub fn drop_table(
        &mut self,
        name: &str,
        if_exists: bool,
    ) -> Result<Option<Arc<RwLock<Table>>>, CdwError> {
        match self.tables.remove(&canonical_name(name)) {
            None if !if_exists => Err(CdwError::TableNotFound(name.to_string())),
            removed => Ok(removed),
        }
    }

    /// Lock handle for table `name`.
    pub fn handle(&self, name: &str) -> Result<Arc<RwLock<Table>>, CdwError> {
        self.handle_opt(name)
            .ok_or_else(|| CdwError::TableNotFound(name.to_string()))
    }

    /// Lock handle for table `name`, if it exists.
    pub fn handle_opt(&self, name: &str) -> Option<Arc<RwLock<Table>>> {
        self.tables.get(&canonical_name(name)).cloned()
    }

    /// Whether `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        self.tables.contains_key(&canonical_name(name))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }
}

/// A held per-table lock: shared for reads, exclusive for writes.
pub enum TableGuard<'a> {
    /// Shared read lock.
    Read(RwLockReadGuard<'a, Table>),
    /// Exclusive write lock.
    Write(RwLockWriteGuard<'a, Table>),
}

impl TableGuard<'_> {
    fn table(&self) -> &Table {
        match self {
            TableGuard::Read(g) => g,
            TableGuard::Write(g) => g,
        }
    }
}

/// The set of tables a statement locked up front, looked up by canonical
/// name during execution. A name missing from the set reports
/// `TableNotFound` exactly where the old global-catalog lookup would
/// have.
#[derive(Default)]
pub struct TableSet<'a> {
    entries: Vec<(String, TableGuard<'a>)>,
}

impl<'a> TableSet<'a> {
    /// Empty set (constant statements).
    pub fn new() -> TableSet<'a> {
        TableSet::default()
    }

    /// Add a held guard under its canonical name.
    pub fn insert(&mut self, name: String, guard: TableGuard<'a>) {
        self.entries.push((name, guard));
    }

    /// Immutable table lookup.
    pub fn get(&self, name: &str) -> Result<&Table, CdwError> {
        let key = canonical_name(name);
        self.entries
            .iter()
            .find(|(n, _)| *n == key)
            .map(|(_, g)| g.table())
            .ok_or_else(|| CdwError::TableNotFound(name.to_string()))
    }

    /// Mutable table lookup (requires a write guard).
    pub fn get_mut(&mut self, name: &str) -> Result<&mut Table, CdwError> {
        let key = canonical_name(name);
        match self.entries.iter_mut().find(|(n, _)| *n == key) {
            Some((_, TableGuard::Write(g))) => Ok(g),
            Some((_, TableGuard::Read(_))) => Err(CdwError::Unsupported(format!(
                "internal: table {name} locked for read but written"
            ))),
            None => Err(CdwError::TableNotFound(name.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlv_sql::ast::ColumnDef;

    fn make_table(name: &str) -> Table {
        Table::from_create(
            name.to_string(),
            &[
                ColumnDef {
                    name: "ID".into(),
                    ty: SqlType::Integer,
                    not_null: true,
                },
                ColumnDef {
                    name: "NAME".into(),
                    ty: SqlType::VarChar(10, etlv_sql::types::Charset::Latin),
                    not_null: false,
                },
            ],
            &[TableConstraint::Unique {
                columns: vec!["id".into()],
                primary: true,
            }],
        )
        .unwrap()
    }

    #[test]
    fn create_get_drop() {
        let mut cat = Catalog::new();
        cat.create(make_table("PROD.T"), false).unwrap();
        assert!(cat.exists("prod.t"));
        assert!(cat.handle("PROD.T").is_ok());
        assert!(matches!(
            cat.create(make_table("prod.t"), false),
            Err(CdwError::TableExists(_))
        ));
        cat.create(make_table("prod.t"), true).unwrap(); // if not exists
        cat.drop_table("PROD.T", false).unwrap();
        assert!(matches!(
            cat.drop_table("PROD.T", false),
            Err(CdwError::TableNotFound(_))
        ));
        cat.drop_table("PROD.T", true).unwrap();
    }

    #[test]
    fn drop_returns_the_removed_handle() {
        let mut cat = Catalog::new();
        cat.create(make_table("PROD.T"), false).unwrap();
        let held = cat.handle("PROD.T").unwrap();
        let dropped = cat.drop_table("prod.t", false).unwrap().expect("handle");
        assert!(Arc::ptr_eq(&dropped, &held), "the catalog's own table");
        assert_eq!(dropped.read().name, "PROD.T");
        assert!(!cat.exists("PROD.T"));
        // IF EXISTS on a missing table: nothing removed, no error.
        assert!(cat.drop_table("PROD.T", true).unwrap().is_none());
        assert!(cat.drop_table("PROD.MISSING", true).unwrap().is_none());
    }

    #[test]
    fn unique_constraint_resolution() {
        let t = make_table("T");
        // The declared constraint materializes as an always-on PK index.
        let pk = t.pk.expect("pk index");
        assert_eq!(pk.columns, vec![0]);
        let key = pk.key_of(&[Value::Int(5), Value::Str("x".into())]);
        assert_eq!(key, vec![Value::Int(5)]);
    }

    #[test]
    fn bad_constraint_column_rejected() {
        let r = Table::from_create(
            "T".into(),
            &[ColumnDef {
                name: "A".into(),
                ty: SqlType::Integer,
                not_null: false,
            }],
            &[TableConstraint::Unique {
                columns: vec!["NOPE".into()],
                primary: false,
            }],
        );
        assert!(matches!(r, Err(CdwError::ColumnNotFound(_))));
    }

    #[test]
    fn column_lookup_case_insensitive() {
        let t = make_table("T");
        assert_eq!(t.column_index("id"), Some(0));
        assert_eq!(t.column_index("Name"), Some(1));
        assert_eq!(t.column_index("missing"), None);
    }

    #[test]
    fn append_rows_maintains_the_pk() {
        let mut t = make_table("T");
        let mut copies = 0;
        let ops = t.append_rows(
            vec![
                vec![Value::Int(1), Value::Null],
                vec![Value::Int(2), Value::Null],
            ],
            &mut copies,
        );
        assert_eq!(t.len(), 2);
        assert_eq!(ops, 2, "one maintenance op per row");
        assert_eq!(copies, 0, "no reader held the version");
        assert_eq!(
            t.pk.as_ref().unwrap().seek_eq(t.rows(), &[Value::Int(2)]),
            vec![1]
        );
        t.validate_indexes().unwrap();
    }

    #[test]
    fn appending_in_batches_orders_rowids_as_one_build() {
        let dec = Value::Decimal(etlv_protocol::data::Decimal::parse("2.00").unwrap());
        // Duplicate and NULL keys, and 2 as Int, Decimal, then Float; long
        // enough that an unstable sort would reorder equal keys.
        let (int, null, float) = (Value::Int, Value::Null, Value::Float(2.0));
        let keys = [
            [int(3), null.clone(), int(2), dec.clone()],
            [int(1), null, float, int(3)],
        ]
        .concat();
        let first: Vec<Value> = keys.iter().cycle().take(64).cloned().collect();
        let second = vec![dec, Value::Null, int(2)];
        // Into an empty table (sorted build, then a merge) and into a
        // non-empty one (merges throughout); batches, then row by row.
        for existing in [vec![], vec![Value::Float(3.0)]] {
            let mut batched = make_table("T");
            let mut by_row = make_table("T");
            for batch in [&existing, &first, &second] {
                let rows = batch.iter().map(|k| vec![k.clone(), Value::Null]);
                batched.append_rows(rows.collect(), &mut 0);
                for k in batch {
                    by_row.append_rows(vec![vec![k.clone(), Value::Null]], &mut 0);
                }
            }
            batched.validate_indexes().unwrap();
            let pk = batched.pk.as_ref().unwrap();
            let mut built = OrderedIndex::new(pk.columns.clone());
            built.rebuild(batched.rows());
            assert_eq!(pk.rowids(), built.rowids());
            assert_eq!(by_row.pk.as_ref().unwrap().rowids(), built.rowids());
        }
    }

    #[test]
    fn the_index_holds_one_u32_rowid_and_one_u64_key_prefix_per_row() {
        let mut t = make_table("T");
        let rows = (0..20_000).map(|i| vec![Value::Int(i), Value::Null]);
        t.append_rows(rows.collect(), &mut 0);
        let pk = t.pk.as_ref().unwrap();
        let (rowids, prefixes) = (pk.rowids(), pk.prefixes());
        assert_eq!((rowids.len(), prefixes.len()), (20_000, 20_000));
        assert_eq!(std::mem::size_of_val(rowids), 20_000 * size_of::<u32>());
        assert_eq!(std::mem::size_of_val(prefixes), 20_000 * size_of::<u64>());
        t.validate_indexes().unwrap();
    }

    #[test]
    fn stale_pk_key_detected_and_rebuilt() {
        let mut t = make_table("T");
        t.append_rows(
            vec![
                vec![Value::Int(1), Value::Str("b".into())],
                vec![Value::Int(2), Value::Str("a".into())],
            ],
            &mut 0,
        );
        t.validate_indexes().unwrap();

        // Mutate a key cell in place, out of key order, then re-key.
        t.rows_mut(&mut 0)[0][0] = Value::Int(9);
        assert!(t.validate_indexes().is_err(), "stale key detected");
        assert_eq!(t.rebuild_pk(), 2);
        t.validate_indexes().unwrap();
        let pk = t.pk.as_ref().unwrap();
        assert_eq!(pk.seek_eq(t.rows(), &[Value::Int(9)]), vec![0]);
        assert_eq!(pk.rowids(), [1, 0]);
    }

    #[test]
    fn table_set_lookup_and_write_discipline() {
        let mut cat = Catalog::new();
        cat.create(make_table("T"), false).unwrap();
        let handle = cat.handle("t").unwrap();
        let mut set = TableSet::new();
        set.insert(canonical_name("T"), TableGuard::Read(handle.read()));
        assert!(set.get("t").is_ok());
        assert!(set.get_mut("t").is_err(), "read guard refuses mutation");
        assert!(matches!(set.get("other"), Err(CdwError::TableNotFound(_))));
    }
}
