//! The statement executor.
//!
//! Every mutating statement is **set-oriented**: all input rows are
//! validated and materialized before any table state changes, so a single
//! bad tuple aborts the whole statement with no partial effects — the CDW
//! behaviour the virtualizer's adaptive error handler (§7) is built
//! around.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use etlv_cloudstore::compress;
use etlv_cloudstore::store::{parse_url, ObjectStore};
use etlv_protocol::data::Value;
use etlv_protocol::errcode::Cause;
use etlv_sql::ast::*;
use etlv_sql::types::Charset;
use etlv_sql::SqlType;

use crate::catalog::{Table, TableSet};
use crate::error::CdwError;
use crate::eval::{apply_binary, eval, truthy, Env};
use crate::key::{cmp_values, RowKey};
use crate::plan::{
    choose_access, family_of, normalize_probe, plan_equi_join, Access, Family, PlanStats, SeekPlan,
};
use crate::staged::StagedFormat;

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Result-set columns (empty for DML/DDL).
    pub columns: Vec<(String, SqlType)>,
    /// Result rows (empty for DML/DDL).
    pub rows: Vec<Vec<Value>>,
    /// Rows affected (DML) or returned (queries).
    pub affected: u64,
}

impl QueryResult {
    pub(crate) fn dml(affected: u64) -> QueryResult {
        QueryResult {
            columns: Vec::new(),
            rows: Vec::new(),
            affected,
        }
    }
}

/// Execution context: the tables a statement locked, plus engine knobs.
pub struct ExecCtx<'a> {
    /// Per-table locks acquired up front for this statement.
    pub tables: TableSet<'a>,
    /// Object store for COPY (absent = COPY unsupported).
    pub store: Option<&'a Arc<dyn ObjectStore>>,
    /// Whether UNIQUE constraints are enforced natively.
    pub native_unique: bool,
    /// Whether the access-path planner is enabled (off = scan-only
    /// reference semantics for differential testing).
    pub planner: bool,
    /// Planner decision counters accumulated over this statement. A
    /// cell, so read paths count through a shared context while they
    /// borrow its tables' rows.
    pub stats: Cell<PlanStats>,
}

impl ExecCtx<'_> {
    /// Add to this statement's planner counters.
    fn count(&self, f: impl FnOnce(&mut PlanStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }
}

/// One column visible during evaluation: optional qualifier + name + type.
#[derive(Debug, Clone)]
struct Binding {
    qualifier: Option<String>,
    name: String,
    ty: SqlType,
}

/// A row of a relation: borrowed from a locked table, or built (a joined
/// row, a subquery's result).
type Row<'t> = Cow<'t, [Value]>;

/// A resolved FROM clause: visible columns plus the joined row set, whose
/// stored rows are borrowed for as long as the statement's read lasts.
struct Relation<'t> {
    bindings: Vec<Binding>,
    rows: Vec<Row<'t>>,
}

/// Column reference → row position, or the error resolving it raised.
type ColRef<'e> = (&'e ObjectName, Result<usize, CdwError>);

/// An expression whose column references were resolved against a site's
/// bindings once, before the site's row loop. Each reference is keyed by
/// its address in the borrowed expression, so a lookup during evaluation
/// compares pointers instead of names. A reference that does not resolve
/// keeps its error, raised only if evaluation reaches it — so an empty
/// input or an untaken CASE branch raises nothing.
struct Resolved<'e> {
    expr: &'e Expr,
    cols: Vec<ColRef<'e>>,
}

impl<'e> Resolved<'e> {
    fn new(expr: &'e Expr, bindings: &[Binding]) -> Resolved<'e> {
        let mut cols = Vec::new();
        expr.walk(&mut |n| {
            if let Expr::Column(name) = n {
                cols.push((name, resolve_column(bindings, name)));
            }
        });
        Resolved { expr, cols }
    }

    /// One [`Resolved`] per expression, in order.
    fn all(exprs: impl IntoIterator<Item = &'e Expr>, bindings: &[Binding]) -> Vec<Resolved<'e>> {
        exprs
            .into_iter()
            .map(|e| Resolved::new(e, bindings))
            .collect()
    }

    /// The environment evaluating this expression (or any subtree of it)
    /// over `row`.
    fn env<'a>(&'a self, row: &'a [Value]) -> RowEnv<'a> {
        RowEnv {
            cols: &self.cols,
            row,
        }
    }

    fn eval(&self, row: &[Value]) -> Result<Value, CdwError> {
        eval(self.expr, &self.env(row))
    }

    /// Whether the expression, as a predicate, selects `row`.
    fn holds(&self, row: &[Value]) -> Result<bool, CdwError> {
        Ok(truthy(&self.eval(row)?))
    }
}

/// Evaluation environment for one row: each column reference reads the
/// position it was resolved to.
struct RowEnv<'a> {
    cols: &'a [ColRef<'a>],
    row: &'a [Value],
}

impl Env for RowEnv<'_> {
    fn resolve(&self, name: &ObjectName) -> Result<Value, CdwError> {
        match self.cols.iter().find(|(r, _)| std::ptr::eq(*r, name)) {
            Some((_, pos)) => Ok(self.row[pos.clone()?].clone()),
            None => Err(CdwError::Unsupported(format!(
                "internal: column {name} was not resolved before evaluation"
            ))),
        }
    }
}

fn resolve_column(bindings: &[Binding], name: &ObjectName) -> Result<usize, CdwError> {
    let (qual, col) = match name.0.len() {
        1 => (None, name.0[0].to_ascii_uppercase()),
        2 => (
            Some(name.0[0].to_ascii_uppercase()),
            name.0[1].to_ascii_uppercase(),
        ),
        _ => return Err(CdwError::ColumnNotFound(name.dotted())),
    };
    let mut found = None;
    for (i, b) in bindings.iter().enumerate() {
        if b.name != col {
            continue;
        }
        if let Some(q) = &qual {
            if b.qualifier.as_deref() != Some(q.as_str()) {
                continue;
            }
        }
        if found.is_some() {
            return Err(CdwError::AmbiguousColumn(name.dotted()));
        }
        found = Some(i);
    }
    found.ok_or_else(|| CdwError::ColumnNotFound(name.dotted()))
}

/// The access path for a single-table filter: the planner's choice, or a
/// scan when the planner is off.
fn table_access(
    planner: bool,
    table: &Table,
    selection: Option<&Expr>,
    bindings: &[Binding],
) -> Access {
    if !planner {
        return Access::Scan;
    }
    choose_access(table, selection, &mut |n| resolve_column(bindings, n).ok())
}

/// Execute one parsed DML/query statement. DDL never reaches here — the
/// engine applies it directly against the catalog (it needs the catalog
/// map itself, not per-table locks).
pub fn execute(ctx: &mut ExecCtx<'_>, stmt: &Stmt) -> Result<QueryResult, CdwError> {
    match stmt {
        Stmt::CreateTable(_) | Stmt::DropTable { .. } => Err(CdwError::Unsupported(
            "internal: DDL is handled by the engine".into(),
        )),
        Stmt::Insert(ins) => exec_insert(ctx, ins),
        Stmt::Update(u) => exec_update(ctx, u),
        Stmt::Delete(d) => exec_delete(ctx, d),
        Stmt::Select(sel) => exec_select(ctx, sel),
        Stmt::Copy(c) => exec_copy(ctx, c),
    }
}

// ------------------------------------------------------------------ INSERT

fn exec_insert(ctx: &mut ExecCtx<'_>, ins: &Insert) -> Result<QueryResult, CdwError> {
    // Compute source rows first (SELECT may read the target's old state).
    let src_rows: Vec<Vec<Value>> = match &ins.source {
        InsertSource::Values(rows) => {
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let mut vals = Vec::with_capacity(row.len());
                for (i, e) in row.iter().enumerate() {
                    vals.push(eval(e, &crate::eval::EmptyEnv).map_err(|err| err.at(i))?);
                }
                out.push(vals);
            }
            out
        }
        InsertSource::Select(sel) => exec_select(ctx, sel)?.rows,
    };

    let table = ctx.tables.get(&ins.table.dotted())?;
    let ncols = table.columns.len();

    // Map provided values onto the full column list.
    let col_map: Vec<usize> = match &ins.columns {
        None => (0..ncols).collect(),
        Some(cols) => {
            let mut map = Vec::with_capacity(cols.len());
            for c in cols {
                map.push(
                    table
                        .column_index(c)
                        .ok_or_else(|| CdwError::ColumnNotFound(c.clone()))?,
                );
            }
            map
        }
    };

    // Validate and coerce every row BEFORE mutating (set-oriented). Source
    // rows are consumed by value — no per-value clone on the ingest path,
    // and a row filling every column in order is coerced where it lies.
    let mut staged: Vec<Vec<Value>> = Vec::with_capacity(src_rows.len());
    for row in src_rows {
        if row.len() != col_map.len() {
            return Err(CdwError::ColumnCount {
                expected: col_map.len(),
                actual: row.len(),
            });
        }
        let full = if ins.columns.is_none() {
            row
        } else {
            let mut full = vec![Value::Null; ncols];
            for (v, &ci) in row.into_iter().zip(&col_map) {
                full[ci] = v;
            }
            full
        };
        staged.push(coerce_row(table, full, &col_map)?);
    }

    // Uniqueness (native mode) + append via the shared batch path.
    let native_unique = ctx.native_unique;
    let stats = ctx.stats.get_mut();
    let table = ctx.tables.get_mut(&ins.table.dotted())?;
    let n = append_unique_checked(table, staged, native_unique, "duplicate key", stats)?;
    Ok(QueryResult::dml(n))
}

/// Coerce one value to its column's type, enforcing NOT NULL.
fn coerce_col(table: &Table, ci: usize, v: Value) -> Result<Value, CdwError> {
    let col = &table.columns[ci];
    if v.is_null() {
        if col.not_null {
            return Err(CdwError::abort(
                Cause::Null,
                format!("NULL in NOT NULL column {}.{}", table.name, col.name),
            ));
        }
        return Ok(Value::Null);
    }
    v.coerce_to(col.ty.to_legacy()).map_err(|e| {
        CdwError::abort(
            e.cause,
            format!("column {}.{}: {}", table.name, col.name, e.reason),
        )
    })
}

/// Coerce a full-width row to the table's column types in place, enforcing
/// NOT NULL. An abort names the value that fed the failing column:
/// `col_map[i]` is the column the statement's `i`-th value fills.
fn coerce_row(
    table: &Table,
    mut row: Vec<Value>,
    col_map: &[usize],
) -> Result<Vec<Value>, CdwError> {
    for (ci, v) in row.iter_mut().enumerate() {
        let value = std::mem::replace(v, Value::Null);
        *v = coerce_col(table, ci, value).map_err(|e| {
            match col_map.iter().position(|&c| c == ci) {
                Some(i) => e.at(i),
                None => e,
            }
        })?;
    }
    Ok(row)
}

/// Validate batch uniqueness (native mode) against existing rows and within
/// the batch itself, then append every row — the single append path shared
/// by INSERT and COPY. `conflict` names the operation in the abort message
/// ("duplicate key" or "COPY"). Rows must already be full-width and
/// coerced.
fn append_unique_checked(
    table: &mut Table,
    staged: Vec<Vec<Value>>,
    native_unique: bool,
    conflict: &str,
    stats: &mut PlanStats,
) -> Result<u64, CdwError> {
    if let Some(pk) = table.pk.as_ref().filter(|_| native_unique) {
        // O(log n) probes against the always-maintained PK ordered index
        // (plus an O(1) intra-batch hash probe) — the statement path is no
        // longer a scan per row.
        stats.index_seeks += 1;
        let mut batch_keys: HashMap<RowKey, ()> = HashMap::with_capacity(staged.len());
        for row in &staged {
            let key = pk.key_of(row);
            if pk.contains_key(&key) || batch_keys.insert(RowKey(key), ()).is_some() {
                return Err(CdwError::abort(
                    Cause::Uniqueness,
                    format!("{conflict} violates unique constraint on {}", table.name),
                ));
            }
        }
    }
    let n = staged.len() as u64;
    stats.index_maintains += table.append_rows(staged) as u64;
    Ok(n)
}

// ------------------------------------------------------------------ UPDATE

fn exec_update(ctx: &mut ExecCtx<'_>, u: &Update) -> Result<QueryResult, CdwError> {
    let planner = ctx.planner;
    let table = ctx.tables.get(&u.table.dotted())?;
    let bindings = table_bindings(table, None);
    let mut assignment_idx = Vec::with_capacity(u.assignments.len());
    for (col, _) in &u.assignments {
        assignment_idx.push(
            table
                .column_index(col)
                .ok_or_else(|| CdwError::ColumnNotFound(col.clone()))?,
        );
    }

    // Positions whose assignment survives (the last write to its column),
    // visited in column order so coercion errors surface in the same order
    // the old whole-row coercion reported them.
    let mut final_positions: Vec<usize> = (0..assignment_idx.len())
        .filter(|&p| !assignment_idx[p + 1..].contains(&assignment_idx[p]))
        .collect();
    final_positions.sort_by_key(|&p| assignment_idx[p]);

    // Phase 1 (read-only): compute the assigned values of every affected
    // row. Only assigned columns are materialized — the rest of the row is
    // updated in place during phase 3, never cloned. The candidate set
    // comes from the planner: an index seek visits only the rows that can
    // match instead of scanning the table.
    let access = table_access(planner, table, u.selection.as_ref(), &bindings);
    let (candidates, residual): (Box<dyn Iterator<Item = usize>>, bool) = match &access {
        Access::Empty => (Box::new(std::iter::empty()), false),
        Access::Scan => {
            ctx.stats.get_mut().full_scans += 1;
            (Box::new(0..table.rows.len()), u.selection.is_some())
        }
        Access::Seek(p) => {
            ctx.stats.get_mut().index_seeks += 1;
            (Box::new(p.seek(table).into_iter()), !p.consumed)
        }
    };
    let filter = u.selection.as_ref().filter(|_| residual);
    let filter = filter.map(|w| Resolved::new(w, &bindings));
    let assigned = Resolved::all(u.assignments.iter().map(|(_, e)| e), &bindings);
    let mut updates: Vec<(usize, Vec<Value>)> = Vec::new();
    for i in candidates {
        let row = &table.rows[i];
        if !filter.as_ref().map_or(Ok(true), |w| w.holds(row))? {
            continue;
        }
        let mut vals: Vec<Value> = Vec::with_capacity(assignment_idx.len());
        for a in &assigned {
            vals.push(a.eval(row)?);
        }
        // Coerce only values that actually land (duplicate assignments to
        // one column are overwritten uncoerced, as before).
        for &p in &final_positions {
            let v = std::mem::replace(&mut vals[p], Value::Null);
            vals[p] = coerce_col(table, assignment_idx[p], v)?;
        }
        updates.push((i, vals));
    }

    // Phase 2: uniqueness re-validation under native enforcement, using
    // each row's *effective* key (assigned values where present, stored
    // values elsewhere).
    if let Some(pk) = table.pk.as_ref().filter(|_| ctx.native_unique) {
        let updated: HashMap<usize, &Vec<Value>> =
            updates.iter().map(|(i, vals)| (*i, vals)).collect();
        let mut keys: HashMap<RowKey, ()> = HashMap::new();
        for (i, row) in table.rows.iter().enumerate() {
            let key = match updated.get(&i) {
                Some(vals) => pk
                    .columns
                    .iter()
                    .map(
                        |&uc| match assignment_idx.iter().rposition(|&ci| ci == uc) {
                            Some(p) => vals[p].clone(),
                            None => row[uc].clone(),
                        },
                    )
                    .collect(),
                None => pk.key_of(row),
            };
            if keys.insert(RowKey(key), ()).is_some() {
                return Err(CdwError::abort(
                    Cause::Uniqueness,
                    format!("UPDATE would violate unique constraint on {}", table.name),
                ));
            }
        }
    }

    // Phase 3: apply in place — only the assigned cells change. The key
    // index is re-keyed only when a key column was assigned (rowids are
    // stable).
    let n = updates.len() as u64;
    let rekey = !updates.is_empty()
        && table
            .pk
            .as_ref()
            .is_some_and(|pk| pk.columns.iter().any(|c| assignment_idx.contains(c)));
    let stats = ctx.stats.get_mut();
    let table = ctx.tables.get_mut(&u.table.dotted())?;
    for (i, vals) in updates {
        for (&ci, v) in assignment_idx.iter().zip(vals) {
            table.rows[i][ci] = v;
        }
    }
    if rekey {
        stats.index_maintains += table.rebuild_pk() as u64;
    }
    Ok(QueryResult::dml(n))
}

// ------------------------------------------------------------------ DELETE

fn exec_delete(ctx: &mut ExecCtx<'_>, d: &Delete) -> Result<QueryResult, CdwError> {
    let planner = ctx.planner;
    let table = ctx.tables.get(&d.table.dotted())?;
    let bindings = table_bindings(table, None);
    // Phase 1 (read-only): mark victims, so a WHERE evaluation error leaves
    // the table untouched (set-oriented, like every other mutation). The
    // planner narrows the candidate set to an index seek where possible.
    let access = table_access(planner, table, d.selection.as_ref(), &bindings);
    let (candidates, residual): (Box<dyn Iterator<Item = usize>>, bool) = match &access {
        Access::Empty => (Box::new(std::iter::empty()), false),
        Access::Scan => {
            ctx.stats.get_mut().full_scans += 1;
            (Box::new(0..table.rows.len()), d.selection.is_some())
        }
        Access::Seek(p) => {
            ctx.stats.get_mut().index_seeks += 1;
            (Box::new(p.seek(table).into_iter()), !p.consumed)
        }
    };
    let filter = d.selection.as_ref().filter(|_| residual);
    let filter = filter.map(|w| Resolved::new(w, &bindings));
    let mut hits: Vec<bool> = vec![false; table.rows.len()];
    let mut removed = 0u64;
    for i in candidates {
        let hit = filter
            .as_ref()
            .map_or(Ok(true), |w| w.holds(&table.rows[i]))?;
        if hit && !hits[i] {
            removed += 1;
            hits[i] = true;
        }
    }
    // Phase 2: compact in place — survivors shift down, nothing is cloned.
    // Deletion shifts rowids, so the key index is re-keyed.
    let stats = ctx.stats.get_mut();
    let table = ctx.tables.get_mut(&d.table.dotted())?;
    let mut idx = 0;
    table.rows.retain(|_| {
        let keep = !hits[idx];
        idx += 1;
        keep
    });
    if removed > 0 {
        stats.index_maintains += table.rebuild_pk() as u64;
    }
    Ok(QueryResult::dml(removed))
}

// ------------------------------------------------------------------ COPY

fn exec_copy(ctx: &mut ExecCtx<'_>, c: &CopyStmt) -> Result<QueryResult, CdwError> {
    let store = ctx
        .store
        .ok_or_else(|| CdwError::Unsupported("COPY requires an attached object store".into()))?
        .clone();
    let url = parse_url(&c.from_url).map_err(|e| CdwError::Store(e.to_string()))?;
    let keys = store
        .list(&url.bucket, &url.key)
        .map_err(|e| CdwError::Store(e.to_string()))?;
    let format = StagedFormat::new(c.delimiter);

    let table = ctx.tables.get(&c.table.dotted())?;
    let arity = table.columns.len();

    // Parse and coerce everything first (set-oriented COPY).
    let mut staged: Vec<Vec<Value>> = Vec::new();
    for key in &keys {
        let raw = store
            .get(&url.bucket, key)
            .map_err(|e| CdwError::Store(e.to_string()))?;
        let data = if compress::is_compressed(&raw) {
            compress::decompress(&raw).map_err(|e| {
                CdwError::abort(
                    Cause::BadFile,
                    format!("corrupt compressed part {key}: {e}"),
                )
            })?
        } else {
            raw
        };
        for row in format.parse(&data, arity)? {
            staged.push(coerce_row(table, row, &[])?);
        }
    }

    let native_unique = ctx.native_unique;
    let stats = ctx.stats.get_mut();
    let table = ctx.tables.get_mut(&c.table.dotted())?;
    let n = append_unique_checked(table, staged, native_unique, "COPY", stats)?;
    Ok(QueryResult::dml(n))
}

// ------------------------------------------------------------------ SELECT

fn table_bindings(table: &Table, alias: Option<&str>) -> Vec<Binding> {
    let qualifier = alias
        .map(str::to_ascii_uppercase)
        .unwrap_or_else(|| base_name(&table.name));
    table
        .columns
        .iter()
        .map(|c| Binding {
            qualifier: Some(qualifier.clone()),
            name: c.name.clone(),
            ty: c.ty,
        })
        .collect()
}

fn base_name(dotted: &str) -> String {
    dotted
        .rsplit('.')
        .next()
        .unwrap_or(dotted)
        .to_ascii_uppercase()
}

fn exec_select(ctx: &ExecCtx<'_>, sel: &SelectStmt) -> Result<QueryResult, CdwError> {
    let row_key = match &sel.from {
        Some(TableRef::Named { name, .. }) => integer_key(ctx.tables.get(&name.dotted())?),
        _ => None,
    };
    let Relation { bindings, rows } = select_source(ctx, sel)?;

    let has_aggregates = projection_has_aggregates(sel);
    let (mut out_rows, columns) = if has_aggregates || !sel.group_by.is_empty() {
        exec_aggregate(sel, &bindings, &rows)?
    } else {
        exec_plain(sel, &bindings, &rows, row_key)?
    };

    if sel.distinct {
        let mut seen = HashMap::new();
        out_rows.retain(|row| seen.insert(RowKey(row.clone()), ()).is_none());
    }

    if let Some(n) = sel.limit {
        out_rows.truncate(n as usize);
    }

    let affected = out_rows.len() as u64;
    Ok(QueryResult {
        columns,
        rows: out_rows,
        affected,
    })
}

/// Position of `table`'s primary key when it is a single integer column:
/// the key a projection abort names its failing row by.
fn integer_key(table: &Table) -> Option<usize> {
    match table.pk.as_ref().map(|pk| &pk.columns[..]) {
        Some(&[c]) => matches!(
            table.columns[c].ty,
            SqlType::ByteInt | SqlType::SmallInt | SqlType::Integer | SqlType::BigInt
        )
        .then_some(c),
        _ => None,
    }
}

/// Produce the filtered source relation of a SELECT: FROM resolution plus
/// WHERE, with predicate pushdown into a single named table (index seek or
/// filtered scan) where the planner proves it safe.
fn select_source<'t>(ctx: &'t ExecCtx<'_>, sel: &SelectStmt) -> Result<Relation<'t>, CdwError> {
    match &sel.from {
        None => {
            let mut rows = vec![Cow::Owned(Vec::new())];
            if let Some(w) = &sel.selection {
                rows = filter_rows(&[], w, rows)?;
            }
            Ok(Relation {
                bindings: Vec::new(),
                rows,
            })
        }
        Some(TableRef::Named { name, alias }) => {
            single_table_select(ctx, name, alias.as_deref(), sel.selection.as_ref())
        }
        Some(from) => {
            let rel = resolve_from(ctx, from, sel.selection.as_ref())?;
            let rows = match &sel.selection {
                Some(w) => filter_rows(&rel.bindings, w, rel.rows)?,
                None => rel.rows,
            };
            Ok(Relation {
                bindings: rel.bindings,
                rows,
            })
        }
    }
}

/// Every stored row of `table`, borrowed.
fn all_rows(table: &Table) -> Vec<Row<'_>> {
    table.rows.iter().map(|r| Cow::Borrowed(&r[..])).collect()
}

/// Single-table FROM with the WHERE clause pushed into the access path.
fn single_table_select<'t>(
    ctx: &'t ExecCtx<'_>,
    name: &ObjectName,
    alias: Option<&str>,
    selection: Option<&Expr>,
) -> Result<Relation<'t>, CdwError> {
    let table = ctx.tables.get(&name.dotted())?;
    let bindings = table_bindings(table, alias);
    let access = table_access(ctx.planner, table, selection, &bindings);
    let rows = match &access {
        Access::Empty => Vec::new(),
        Access::Scan => {
            ctx.count(|s| s.full_scans += 1);
            match selection {
                None => all_rows(table),
                Some(w) => filter_rows(&bindings, w, all_rows(table))?,
            }
        }
        Access::Seek(p) => {
            ctx.count(|s| s.index_seeks += 1);
            let rows = seek_rows(table, p);
            match selection {
                Some(w) if !p.consumed => filter_rows(&bindings, w, rows)?,
                _ => rows,
            }
        }
    };
    Ok(Relation { bindings, rows })
}

/// The rows a seek selects, borrowed in rowid order so results are
/// byte-identical to a scan.
fn seek_rows<'t>(table: &'t Table, p: &SeekPlan) -> Vec<Row<'t>> {
    p.seek(table)
        .into_iter()
        .map(|i| Cow::Borrowed(&table.rows[i][..]))
        .collect()
}

/// Access path for the named left input of a join, with the enclosing
/// SELECT's WHERE pushed through the join. The planner sees the whole
/// WHERE but a resolver that admits only columns resolving — in the
/// combined bindings of both inputs, unambiguously — to the left table,
/// so only left-only `col OP literal` conjuncts can drive the seek. The
/// caller still applies the whole WHERE after the join: the seek is a
/// pre-filter dropping left rows that provably fail one conjunct (left
/// columns are never NULL-padded, so this holds for LEFT joins too).
/// Anything unprovable — including a right input whose bindings cannot be
/// computed — is a scan.
fn join_left_access(
    ctx: &ExecCtx<'_>,
    left: &Table,
    left_alias: Option<&str>,
    right: &TableRef,
    selection: Option<&Expr>,
) -> Access {
    if !ctx.planner || selection.is_none() {
        return Access::Scan;
    }
    let Ok(right_bindings) = bindings_of(ctx, right) else {
        return Access::Scan;
    };
    let mut bindings = table_bindings(left, left_alias);
    let left_len = bindings.len();
    bindings.extend(right_bindings);
    let mut resolve = |n: &ObjectName| resolve_column(&bindings, n).ok().filter(|&i| i < left_len);
    choose_access(left, selection, &mut resolve)
}

/// Keep the rows `w` selects, in row order, moving them (borrowed rows
/// stay borrowed); the first evaluation error aborts.
fn filter_rows<'t>(
    bindings: &[Binding],
    w: &Expr,
    rows: Vec<Row<'t>>,
) -> Result<Vec<Row<'t>>, CdwError> {
    let w = Resolved::new(w, bindings);
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        if w.holds(&row)? {
            out.push(row);
        }
    }
    Ok(out)
}

/// `lrow` padded with `width` NULLs: a LEFT join's unmatched row.
fn null_padded(lrow: &[Value], width: usize) -> Row<'static> {
    let mut combined = Vec::with_capacity(lrow.len() + width);
    combined.extend_from_slice(lrow);
    combined.extend(std::iter::repeat_n(Value::Null, width));
    Cow::Owned(combined)
}

/// Resolve a FROM tree into its joined row set. `selection` is the
/// enclosing SELECT's WHERE, which the caller applies in full afterwards;
/// here it only narrows a join's named left input (see
/// [`join_left_access`]).
fn resolve_from<'t>(
    ctx: &'t ExecCtx<'_>,
    from: &TableRef,
    selection: Option<&Expr>,
) -> Result<Relation<'t>, CdwError> {
    match from {
        TableRef::Named { name, alias } => {
            let table = ctx.tables.get(&name.dotted())?;
            ctx.count(|s| s.full_scans += 1);
            Ok(Relation {
                bindings: table_bindings(table, alias.as_deref()),
                rows: all_rows(table),
            })
        }
        TableRef::Subquery { query, alias } => {
            let result = exec_select(ctx, query)?;
            let qualifier = alias.to_ascii_uppercase();
            Ok(Relation {
                bindings: result
                    .columns
                    .iter()
                    .map(|(n, ty)| Binding {
                        qualifier: Some(qualifier.clone()),
                        name: n.to_ascii_uppercase(),
                        ty: *ty,
                    })
                    .collect(),
                rows: result.rows.into_iter().map(Cow::Owned).collect(),
            })
        }
        TableRef::Join {
            left,
            right,
            kind,
            on,
        } => {
            let l = match &**left {
                TableRef::Named { name, alias } => {
                    let table = ctx.tables.get(&name.dotted())?;
                    let rows =
                        match join_left_access(ctx, table, alias.as_deref(), right, selection) {
                            Access::Scan => {
                                ctx.count(|s| s.full_scans += 1);
                                all_rows(table)
                            }
                            Access::Empty => Vec::new(),
                            Access::Seek(p) => {
                                ctx.count(|s| s.index_seeks += 1);
                                seek_rows(table, &p)
                            }
                        };
                    Relation {
                        bindings: table_bindings(table, alias.as_deref()),
                        rows,
                    }
                }
                other => resolve_from(ctx, other, None)?,
            };
            if ctx.planner {
                if let TableRef::Named { name, alias } = &**right {
                    if let Some(rel) = try_index_join(ctx, &l, name, alias.as_deref(), kind, on)? {
                        return Ok(rel);
                    }
                }
            }
            let r = resolve_from(ctx, right, None)?;
            let mut bindings = l.bindings.clone();
            bindings.extend(r.bindings.iter().cloned());
            let on = Resolved::new(on, &bindings);
            let mut rows = Vec::new();
            for lrow in &l.rows {
                let mut matched = false;
                for rrow in &r.rows {
                    let combined = Cow::Owned([&lrow[..], &rrow[..]].concat());
                    if on.holds(&combined)? {
                        matched = true;
                        rows.push(combined);
                    }
                }
                if !matched && *kind == JoinKind::Left {
                    rows.push(null_padded(lrow, r.bindings.len()));
                }
            }
            Ok(Relation { bindings, rows })
        }
    }
}

/// Attempt an index-lookup join against a named right table: probe its
/// ordered index with per-left-row key values instead of nested-looping
/// over every pair. Returns `Ok(None)` whenever exact equivalence with the
/// nested loop cannot be proven — unplannable ON shape, a key evaluation
/// error, or an un-normalizable probe (the fallback then reproduces the
/// error, in order). Evaluation is pure, so re-running it in the fallback
/// is free of side effects.
fn try_index_join<'t>(
    ctx: &'t ExecCtx<'_>,
    l: &Relation<'t>,
    name: &ObjectName,
    alias: Option<&str>,
    kind: &JoinKind,
    on: &Expr,
) -> Result<Option<Relation<'t>>, CdwError> {
    let Ok(rtable) = ctx.tables.get(&name.dotted()) else {
        // Missing table: the fallback raises TableNotFound at the same
        // point the nested loop would have.
        return Ok(None);
    };
    let mut bindings = l.bindings.clone();
    bindings.extend(table_bindings(rtable, alias));
    let left_len = l.bindings.len();
    let mut resolve = |n: &ObjectName| resolve_column(&bindings, n).ok();
    let Some(plan) = plan_equi_join(rtable, on, left_len, &mut resolve) else {
        return Ok(None);
    };
    let fams: Vec<Family> = plan
        .keys
        .iter()
        .map(|(_, rc)| family_of(rtable.columns[*rc].ty))
        .collect();
    let rwidth = rtable.columns.len();
    let mut rows = Vec::new();
    if rtable.rows.is_empty() {
        // The nested loop never evaluates ON against an empty right side —
        // short-circuit before touching the key expressions.
        if *kind == JoinKind::Left {
            rows = l
                .rows
                .iter()
                .map(|lrow| null_padded(lrow, rwidth))
                .collect();
        }
        ctx.count(|s| s.index_seeks += 1);
        return Ok(Some(Relation { bindings, rows }));
    }
    let pk = rtable.pk.as_ref().expect("a join is only planned on a key");
    // Keys resolve against the combined bindings — so name resolution,
    // ambiguity included, matches the nested loop — and the planner
    // admitted only keys whose every column lies on the left, so they
    // evaluate over the left row alone.
    let keys = Resolved::all(plan.keys.iter().map(|(e, _)| e), &bindings);
    for lrow in &l.rows {
        let mut probes = Vec::with_capacity(keys.len());
        let mut null_probe = false;
        for (key, fam) in keys.iter().zip(&fams) {
            let Ok(v) = key.eval(lrow) else {
                return Ok(None);
            };
            if v.is_null() {
                // NULL never equals anything: this left row matches no
                // right row (and comparison with NULL cannot error).
                null_probe = true;
                break;
            }
            match normalize_probe(&v, *fam) {
                Some(nv) => probes.push(nv),
                None => return Ok(None),
            }
        }
        let mut matched = false;
        if !null_probe {
            let mut rowids = pk.seek_eq(&probes);
            rowids.sort_unstable();
            for rid in rowids {
                matched = true;
                rows.push(Cow::Owned([&lrow[..], &rtable.rows[rid]].concat()));
            }
        }
        if !matched && *kind == JoinKind::Left {
            rows.push(null_padded(lrow, rwidth));
        }
    }
    ctx.count(|s| s.index_seeks += 1);
    Ok(Some(Relation { bindings, rows }))
}

/// Visible bindings of a FROM tree, computed without executing anything
/// (the planner's view of a join's right input).
fn bindings_of(ctx: &ExecCtx<'_>, from: &TableRef) -> Result<Vec<Binding>, CdwError> {
    match from {
        TableRef::Named { name, alias } => Ok(table_bindings(
            ctx.tables.get(&name.dotted())?,
            alias.as_deref(),
        )),
        TableRef::Subquery { query, alias } => {
            let inner = match &query.from {
                Some(f) => bindings_of(ctx, f)?,
                None => Vec::new(),
            };
            let items = expand_projection(query, &inner);
            let cols = projection_columns(&items, &inner)?;
            let q = alias.to_ascii_uppercase();
            Ok(cols
                .into_iter()
                .map(|(n, ty)| Binding {
                    qualifier: Some(q.clone()),
                    name: n.to_ascii_uppercase(),
                    ty,
                })
                .collect())
        }
        TableRef::Join { left, right, .. } => {
            let mut b = bindings_of(ctx, left)?;
            b.extend(bindings_of(ctx, right)?);
            Ok(b)
        }
    }
}

/// Projected result rows plus their output column names and types.
type ProjectedRows = (Vec<Vec<Value>>, Vec<(String, SqlType)>);

/// Project `rows`. A failing projection names its value's position and,
/// when the rows come from one table keyed by the integer column at
/// `row_key`, the failing row's key (read only on that error path).
fn exec_plain(
    sel: &SelectStmt,
    bindings: &[Binding],
    rows: &[Row<'_>],
    row_key: Option<usize>,
) -> Result<ProjectedRows, CdwError> {
    let items = expand_projection(sel, bindings);
    let columns = projection_columns(&items, bindings)?;
    let projected = Resolved::all(items.iter().map(|(e, _)| e), bindings);
    let order = Resolved::all(sel.order_by.iter().map(|o| &o.expr), bindings);
    let aliases = order_aliases(&sel.order_by, &items);

    // ORDER BY keys are computed against the *input* rows (so sorting by
    // non-projected columns works), carried alongside.
    let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rows.len());
    for row in rows {
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in projected.iter().enumerate() {
            out.push(item.eval(row).map_err(|e| {
                let e = e.at(i);
                match row_key.map(|k| &row[k]) {
                    Some(Value::Int(key)) => e.in_row(*key),
                    _ => e,
                }
            })?);
        }
        let mut sort_key = Vec::with_capacity(order.len());
        for (key, alias) in order.iter().zip(&aliases) {
            sort_key.push(match alias {
                Some(pos) => out[*pos].clone(),
                None => key.eval(row)?,
            });
        }
        keyed.push((sort_key, out));
    }
    sort_by_order(&mut keyed, &sel.order_by);
    Ok((keyed.into_iter().map(|(_, r)| r).collect(), columns))
}

/// For each ORDER BY key, the projection position it names: a bare name
/// matching a projection alias sorts by the projected value; any other
/// key (`None`) is evaluated.
fn order_aliases(order_by: &[OrderItem], items: &[(Expr, String)]) -> Vec<Option<usize>> {
    order_by
        .iter()
        .map(|o| match &o.expr {
            Expr::Column(ObjectName(parts)) if parts.len() == 1 => {
                let target = parts[0].to_ascii_uppercase();
                items.iter().position(|(_, alias)| *alias == target)
            }
            _ => None,
        })
        .collect()
}

fn sort_by_order(keyed: &mut [(Vec<Value>, Vec<Value>)], order_by: &[OrderItem]) {
    if order_by.is_empty() {
        return;
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, o) in order_by.iter().enumerate() {
            let ord = cmp_values(&ka[i], &kb[i]);
            let ord = if o.desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// Expand `*` and attach output names.
fn expand_projection(sel: &SelectStmt, bindings: &[Binding]) -> Vec<(Expr, String)> {
    let mut items = Vec::new();
    let mut anon = 0usize;
    for item in &sel.projection {
        match item {
            SelectItem::Wildcard => {
                for b in bindings {
                    let mut name = ObjectName::simple(b.name.clone());
                    if let Some(q) = &b.qualifier {
                        name = ObjectName(vec![q.clone(), b.name.clone()]);
                    }
                    items.push((Expr::Column(name), b.name.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = match alias {
                    Some(a) => a.to_ascii_uppercase(),
                    None => match expr {
                        Expr::Column(n) => n.base().to_ascii_uppercase(),
                        _ => {
                            anon += 1;
                            format!("EXPR_{anon}")
                        }
                    },
                };
                items.push((expr.clone(), name));
            }
        }
    }
    items
}

fn projection_columns(
    items: &[(Expr, String)],
    bindings: &[Binding],
) -> Result<Vec<(String, SqlType)>, CdwError> {
    items
        .iter()
        .map(|(expr, name)| Ok((name.clone(), infer_type(expr, bindings))))
        .collect()
}

/// Best-effort output type inference (used to derive export layouts).
fn infer_type(expr: &Expr, bindings: &[Binding]) -> SqlType {
    match expr {
        Expr::Literal(Literal::Integer(_)) => SqlType::BigInt,
        Expr::Literal(Literal::Decimal(d)) => SqlType::Decimal(18, d.scale()),
        Expr::Literal(Literal::Float(_)) => SqlType::Float,
        Expr::Literal(Literal::Str(_)) | Expr::Literal(Literal::Null) => {
            SqlType::VarChar(4096, Charset::Latin)
        }
        Expr::Literal(Literal::Date(_)) => SqlType::Date,
        Expr::Column(name) => resolve_column(bindings, name)
            .map(|i| bindings[i].ty)
            .unwrap_or(SqlType::VarChar(4096, Charset::Latin)),
        Expr::Cast { ty, .. } => *ty,
        Expr::Function { name, args, .. } => match name.as_str() {
            "COUNT" => SqlType::BigInt,
            "SUM" | "AVG" | "ABS" => args
                .first()
                .map(|a| infer_type(a, bindings))
                .filter(|t| t.is_numeric())
                .unwrap_or(SqlType::Float),
            "MIN" | "MAX" | "COALESCE" | "NULLIF" => args
                .first()
                .map(|a| infer_type(a, bindings))
                .unwrap_or(SqlType::VarChar(4096, Charset::Latin)),
            "LENGTH" | "CHAR_LENGTH" | "CHARACTER_LENGTH" => SqlType::BigInt,
            "TO_DATE" => SqlType::Date,
            _ => SqlType::VarChar(4096, Charset::Latin),
        },
        Expr::Binary { left, op, right } => match op {
            BinaryOp::Concat => SqlType::VarChar(4096, Charset::Latin),
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
                let lt = infer_type(left, bindings);
                let rt = infer_type(right, bindings);
                if lt == SqlType::Float || rt == SqlType::Float {
                    SqlType::Float
                } else if matches!(lt, SqlType::Decimal(_, _)) {
                    lt
                } else if matches!(rt, SqlType::Decimal(_, _)) {
                    rt
                } else if lt == SqlType::Date {
                    lt
                } else {
                    SqlType::BigInt
                }
            }
            _ => SqlType::SmallInt, // boolean-ish
        },
        Expr::Case {
            branches,
            else_expr,
            ..
        } => branches
            .first()
            .map(|(_, t)| infer_type(t, bindings))
            .or_else(|| else_expr.as_ref().map(|e| infer_type(e, bindings)))
            .unwrap_or(SqlType::VarChar(4096, Charset::Latin)),
        _ => SqlType::VarChar(4096, Charset::Latin),
    }
}

// --------------------------------------------------------------- aggregates

const AGG_FUNCS: [&str; 5] = ["COUNT", "SUM", "MIN", "MAX", "AVG"];

fn is_aggregate_fn(name: &str) -> bool {
    AGG_FUNCS.contains(&name)
}

fn expr_has_aggregate(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |n| {
        if let Expr::Function { name, .. } = n {
            if is_aggregate_fn(name) {
                found = true;
            }
        }
    });
    found
}

fn projection_has_aggregates(sel: &SelectStmt) -> bool {
    sel.projection.iter().any(|item| match item {
        SelectItem::Expr { expr, .. } => expr_has_aggregate(expr),
        SelectItem::Wildcard => false,
    }) || sel.having.as_ref().is_some_and(expr_has_aggregate)
        || sel.order_by.iter().any(|o| expr_has_aggregate(&o.expr))
}

/// Aggregate executor: hash grouping + aggregate computation, then
/// post-aggregation projection/HAVING/ORDER BY evaluation where aggregate
/// sub-expressions and GROUP BY expressions resolve to computed values.
fn exec_aggregate(
    sel: &SelectStmt,
    bindings: &[Binding],
    rows: &[Row<'_>],
) -> Result<ProjectedRows, CdwError> {
    // Collect the distinct aggregate calls appearing anywhere.
    let mut agg_calls: Vec<Expr> = Vec::new();
    let mut collect = |e: &Expr| {
        e.walk(&mut |n| {
            if let Expr::Function { name, .. } = n {
                if is_aggregate_fn(name) && !agg_calls.contains(n) {
                    agg_calls.push(n.clone());
                }
            }
        });
    };
    for item in &sel.projection {
        if let SelectItem::Expr { expr, .. } = item {
            collect(expr);
        }
    }
    if let Some(h) = &sel.having {
        collect(h);
    }
    for o in &sel.order_by {
        collect(&o.expr);
    }

    // Group rows: one map from key to group number, hashed once per row.
    // Group `g`'s aggregate states are `states[g * width..][..width]`, in
    // first-seen order.
    let group_by = Resolved::all(&sel.group_by, bindings);
    let calls = Resolved::all(&agg_calls, bindings);
    let width = agg_calls.len();
    let mut groups: HashMap<RowKey, usize> = HashMap::new();
    let mut states: Vec<AggState> = Vec::new();
    for row in rows {
        let mut key_vals = Vec::with_capacity(group_by.len());
        for g in &group_by {
            key_vals.push(g.eval(row)?);
        }
        let next = groups.len();
        let g = *groups.entry(RowKey(key_vals)).or_insert(next);
        if g == next {
            states.extend(agg_calls.iter().map(AggState::new));
        }
        for (state, call) in states[g * width..].iter_mut().zip(&calls) {
            state.update(call.expr, &call.env(row))?;
        }
    }
    // Global aggregate over zero rows still yields one group.
    if groups.is_empty() && sel.group_by.is_empty() {
        groups.insert(RowKey(Vec::new()), 0);
        states.extend(agg_calls.iter().map(AggState::new));
    }
    // The group keys in first-seen order, moved out of the map.
    let mut keys = vec![Vec::new(); groups.len()];
    for (key, g) in groups {
        keys[g] = key.0;
    }

    let items = expand_projection(sel, bindings);
    let columns = projection_columns(&items, bindings)?;
    let aliases = order_aliases(&sel.order_by, &items);

    let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
    let mut agg_values: Vec<Value> = Vec::with_capacity(width);
    for (g, key_vals) in keys.iter().enumerate() {
        agg_values.clear();
        for state in &states[g * width..][..width] {
            agg_values.push(state.finalize()?);
        }
        let agg_env = AggEnv {
            sel,
            agg_calls: &agg_calls,
            agg_values: &agg_values,
            key_vals,
        };
        if let Some(h) = &sel.having {
            if !truthy(&agg_env.eval(h)?) {
                continue;
            }
        }
        let mut out = Vec::with_capacity(items.len());
        for (expr, _) in &items {
            out.push(agg_env.eval(expr)?);
        }
        let mut sort_key = Vec::with_capacity(sel.order_by.len());
        for (o, alias) in sel.order_by.iter().zip(&aliases) {
            sort_key.push(match alias {
                Some(pos) => out[*pos].clone(),
                None => agg_env.eval(&o.expr)?,
            });
        }
        keyed.push((sort_key, out));
    }
    sort_by_order(&mut keyed, &sel.order_by);
    Ok((keyed.into_iter().map(|(_, r)| r).collect(), columns))
}

/// Post-aggregation evaluation environment.
struct AggEnv<'a> {
    sel: &'a SelectStmt,
    agg_calls: &'a [Expr],
    agg_values: &'a [Value],
    key_vals: &'a [Value],
}

impl AggEnv<'_> {
    fn eval(&self, expr: &Expr) -> Result<Value, CdwError> {
        // An aggregate call resolves to its computed value.
        if let Some(pos) = self.agg_calls.iter().position(|c| c == expr) {
            return Ok(self.agg_values[pos].clone());
        }
        // A GROUP BY expression resolves to the group key.
        if let Some(pos) = self.sel.group_by.iter().position(|g| g == expr) {
            return Ok(self.key_vals[pos].clone());
        }
        // Otherwise a binary operator applies to its operands' computed
        // values.
        match expr {
            Expr::Binary { left, op, right } => {
                apply_binary(self.eval(left)?, *op, self.eval(right)?)
            }
            other => {
                // Generic fallback: evaluate with an env that reports the
                // GROUP BY restriction violation for any column reference.
                struct NoColumns;
                impl Env for NoColumns {
                    fn resolve(&self, name: &ObjectName) -> Result<Value, CdwError> {
                        Err(CdwError::Eval(format!(
                            "column {} must appear in GROUP BY or inside an aggregate",
                            name.dotted()
                        )))
                    }
                }
                eval(other, &NoColumns)
            }
        }
    }
}

/// Running state of one aggregate call within one group.
enum AggState {
    CountStar(u64),
    Count {
        distinct: bool,
        seen: HashMap<RowKey, ()>,
        n: u64,
    },
    Sum(Option<Value>),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg {
        sum: f64,
        n: u64,
    },
}

impl AggState {
    fn new(call: &Expr) -> AggState {
        let Expr::Function {
            name,
            args,
            distinct,
        } = call
        else {
            unreachable!("aggregate call is a function")
        };
        match name.as_str() {
            "COUNT" if matches!(args.first(), Some(Expr::Wildcard)) => AggState::CountStar(0),
            "COUNT" => AggState::Count {
                distinct: *distinct,
                seen: HashMap::new(),
                n: 0,
            },
            "SUM" => AggState::Sum(None),
            "MIN" => AggState::Min(None),
            "MAX" => AggState::Max(None),
            "AVG" => AggState::Avg { sum: 0.0, n: 0 },
            other => unreachable!("unknown aggregate {other}"),
        }
    }

    fn update(&mut self, call: &Expr, env: &dyn Env) -> Result<(), CdwError> {
        let Expr::Function { args, .. } = call else {
            unreachable!()
        };
        match self {
            AggState::CountStar(n) => {
                *n += 1;
                Ok(())
            }
            AggState::Count { distinct, seen, n } => {
                let v = eval(&args[0], env)?;
                if v.is_null() {
                    return Ok(());
                }
                if *distinct {
                    if seen.insert(RowKey(vec![v]), ()).is_none() {
                        *n += 1;
                    }
                } else {
                    *n += 1;
                }
                Ok(())
            }
            AggState::Sum(acc) => {
                let v = eval(&args[0], env)?;
                if v.is_null() {
                    return Ok(());
                }
                *acc = Some(match acc.take() {
                    None => v,
                    Some(prev) => apply_binary(prev, BinaryOp::Add, v)?,
                });
                Ok(())
            }
            AggState::Min(_) | AggState::Max(_) => {
                let is_min = matches!(self, AggState::Min(_));
                let v = eval(&args[0], env)?;
                if v.is_null() {
                    return Ok(());
                }
                // Re-borrow after the matches! check.
                let acc = match self {
                    AggState::Min(a) | AggState::Max(a) => a,
                    _ => unreachable!(),
                };
                *acc = Some(match acc.take() {
                    None => v,
                    Some(prev) => {
                        let keep_new = if is_min {
                            cmp_values(&v, &prev) == std::cmp::Ordering::Less
                        } else {
                            cmp_values(&v, &prev) == std::cmp::Ordering::Greater
                        };
                        if keep_new {
                            v
                        } else {
                            prev
                        }
                    }
                });
                Ok(())
            }
            AggState::Avg { sum, n } => {
                let v = eval(&args[0], env)?;
                if v.is_null() {
                    return Ok(());
                }
                let f = v.to_f64()?;
                *sum += f;
                *n += 1;
                Ok(())
            }
        }
    }

    fn finalize(&self) -> Result<Value, CdwError> {
        Ok(match self {
            AggState::CountStar(n) => Value::Int(*n as i64),
            AggState::Count { n, .. } => Value::Int(*n as i64),
            AggState::Sum(acc) => acc.clone().unwrap_or(Value::Null),
            AggState::Min(acc) | AggState::Max(acc) => acc.clone().unwrap_or(Value::Null),
            AggState::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *n as f64)
                }
            }
        })
    }
}
