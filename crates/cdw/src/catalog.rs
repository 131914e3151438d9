//! The CDW catalog: schemas, row storage, the one ordered index each
//! table keeps on its declared key, and per-table locking.
//!
//! The catalog maps canonical table names to `Arc<RwLock<Table>>` handles
//! so statements lock exactly the tables they touch — readers of
//! different tables (and readers of the same table) no longer serialize
//! behind one global lock. Lock acquisition order is by canonical name
//! (sorted in the engine) to stay deadlock-free.

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::{RwLockReadGuard, RwLockWriteGuard};

use etlv_protocol::data::Value;
use etlv_sql::ast::{ColumnDef, TableConstraint};
use etlv_sql::SqlType;
use parking_lot::RwLock;

use crate::error::CdwError;
use crate::index::OrderedIndex;
use crate::key::cmp_rows;

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

/// A stored table: schema, rows, and the ordered index on its key.
#[derive(Debug, Clone)]
pub struct Table {
    /// Canonical (upper-cased, dotted) name.
    pub name: String,
    /// Column definitions.
    pub columns: Vec<Column>,
    /// Row storage.
    pub rows: Vec<Vec<Value>>,
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
            rows: Vec::new(),
            pk,
        })
    }

    /// Index of column `name` (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        let up = name.to_ascii_uppercase();
        self.columns.iter().position(|c| c.name == up)
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
    /// and COPY — then hand the key index the new rowid range (an empty
    /// index is built in one sorted pass, see
    /// [`OrderedIndex::insert_range`]). Rows are moved, never cloned;
    /// callers must have validated width, types, and (if enforced)
    /// uniqueness already. Returns the number of index maintenance
    /// operations performed.
    pub fn append_rows(&mut self, rows: Vec<Vec<Value>>) -> usize {
        let start = self.rows.len();
        self.rows.extend(rows);
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
    /// key index holds exactly one entry per row, rowids cover the table,
    /// and every stored key orders equal to the row it points at.
    pub fn validate_indexes(&self) -> Result<(), String> {
        let Some(ix) = &self.pk else {
            return Ok(());
        };
        let name = &self.name;
        if ix.len() != self.rows.len() {
            return Err(format!(
                "{name}.PK: {} entries for {} rows",
                ix.len(),
                self.rows.len()
            ));
        }
        let mut seen = vec![false; self.rows.len()];
        for (key, rowids) in ix.entries() {
            for &rid in rowids {
                if rid >= self.rows.len() || seen[rid] {
                    return Err(format!("{name}.PK: rowid {rid} out of range or duplicated"));
                }
                seen[rid] = true;
                // Keys the index orders as equal share one entry,
                // spelled as the first row inserted under it.
                let expect = ix.key_of(&self.rows[rid]);
                if cmp_rows(key, &expect).is_ne() {
                    return Err(format!("{name}.PK: stale key for rowid {rid}"));
                }
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

    /// Drop a table. (Named `drop_table` so calls through lock guards
    /// don't resolve to `Drop::drop`.)
    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<(), CdwError> {
        let key = canonical_name(name);
        if self.tables.remove(&key).is_none() && !if_exists {
            return Err(CdwError::TableNotFound(name.to_string()));
        }
        Ok(())
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
        let ops = t.append_rows(vec![
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(2), Value::Null],
        ]);
        assert_eq!(t.len(), 2);
        assert_eq!(ops, 2, "one maintenance op per row");
        assert_eq!(t.pk.as_ref().unwrap().seek_eq(&[Value::Int(2)]), vec![1]);
        t.validate_indexes().unwrap();
    }

    #[test]
    fn appending_keeps_the_entries_row_by_row_insertion_leaves() {
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
        let entries = |ix: &OrderedIndex| -> Vec<(Vec<Value>, Vec<usize>)> {
            ix.entries()
                .map(|(k, r)| (k.to_vec(), r.to_vec()))
                .collect()
        };
        // Into an empty table (sorted build, then row by row) and into a
        // non-empty one (row by row throughout).
        for existing in [vec![], vec![Value::Float(3.0)]] {
            let mut t = make_table("T");
            for batch in [&existing, &first, &second] {
                let rows = batch.iter().map(|k| vec![k.clone(), Value::Null]);
                t.append_rows(rows.collect());
            }
            t.validate_indexes().unwrap();
            let pk = t.pk.as_ref().unwrap();
            let mut by_row = OrderedIndex::new(pk.columns.clone());
            for (rowid, row) in t.rows.iter().enumerate() {
                by_row.insert_row(row, rowid);
            }
            assert_eq!(entries(pk), entries(&by_row));
        }
    }

    #[test]
    fn stale_pk_key_detected_and_rebuilt() {
        let mut t = make_table("T");
        t.append_rows(vec![
            vec![Value::Int(1), Value::Str("b".into())],
            vec![Value::Int(2), Value::Str("a".into())],
        ]);
        t.validate_indexes().unwrap();

        // Mutate a key cell in place, then re-key.
        t.rows[1][0] = Value::Int(9);
        assert!(t.validate_indexes().is_err(), "stale key detected");
        assert_eq!(t.rebuild_pk(), 2);
        t.validate_indexes().unwrap();
        assert_eq!(t.pk.as_ref().unwrap().seek_eq(&[Value::Int(9)]), vec![1]);
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
