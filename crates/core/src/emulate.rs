//! Uniqueness emulation (paper §7).
//!
//! Cloud warehouses commonly accept `UNIQUE`/`PRIMARY KEY` declarations
//! without enforcing them. Legacy ETL semantics *depend* on enforcement —
//! duplicate tuples must land in the UV error table. The virtualizer
//! bridges the gap by checking, before applying a staging range, whether
//! the range would violate the target's declared unique key:
//!
//! - **existing-row violations**: a join between the transformed staging
//!   keys and the target's current keys;
//! - **intra-range duplicates**: a GROUP BY over the transformed staging
//!   keys with `HAVING COUNT(*) > 1`.
//!
//! Both are counted first, so a clean range costs two COUNT statements.
//! Only a non-zero count lists the offending `__SEQ`s, which the adaptive
//! walk then confirms one by one: a listed row is a UV row only if it
//! still collides once the rows before it are applied, and only if its
//! values convert — the legacy system evaluates a row's values before it
//! checks the row's key.
//!
//! The probes evaluate the DML's key projections, so a bad key value can
//! abort them too. The caller then runs the DML, whose own abort names the
//! failing row and its first failing value.

use std::collections::HashMap;

use etlv_cdw::error::CdwError;
use etlv_cdw::{Cdw, RowKey};
use etlv_protocol::data::Value;
use etlv_protocol::errcode::Cause;
use etlv_sql::ast::{BinaryOp, Expr, JoinKind, ObjectName, SelectItem, SelectStmt, Stmt, TableRef};
use etlv_sql::transform::map_expr;

use crate::xcompile::{CompiledDml, DmlKind, SEQ_COL};

/// Alias of the staging table in emulation queries.
const STG_ALIAS: &str = "S";
/// Alias of the target table in emulation queries.
const TGT_ALIAS: &str = "T";

/// A planned uniqueness emulation for one load job.
#[derive(Debug, Clone)]
pub struct UniqueEmulation {
    /// Target table.
    pub target: ObjectName,
    /// Unique-key column names on the target.
    pub target_key_cols: Vec<String>,
    /// Transformed key expressions over staging columns, qualified with
    /// the staging alias (for join queries).
    key_exprs: Vec<Expr>,
    /// Staging table name.
    staging: String,
    /// The DML's values, then each value cast to the target column it
    /// fills, in target-column order: the order the CDW evaluates and then
    /// coerces an inserted row in.
    converts: Vec<Expr>,
    /// The value position each cast of `converts` converts.
    cast_values: Vec<usize>,
    /// Number of target columns.
    target_width: usize,
}

/// Plan emulation for a compiled DML. Returns `None` when the target has
/// no unique constraint, the DML is not row-wise, or the CDW already
/// enforces uniqueness natively.
pub fn plan(cdw: &Cdw, compiled: &CompiledDml) -> Result<Option<UniqueEmulation>, CdwError> {
    if compiled.kind != DmlKind::RowWise || cdw.config().native_unique {
        return Ok(None);
    }
    let target_name = compiled.target.dotted();
    let Some(unique_cols) = cdw.table_unique_columns(&target_name)? else {
        return Ok(None);
    };
    let schema = cdw.table_schema(&target_name)?;

    // Position in the insert's projection of the value each target
    // column takes.
    let value_of = |col: usize| match &compiled.insert_columns {
        Some(cols) => cols
            .iter()
            .position(|c| c.eq_ignore_ascii_case(&schema[col].0)),
        None => Some(col).filter(|&c| c < compiled.projection.len()),
    };
    let values: Vec<Expr> = compiled
        .projection
        .iter()
        .map(qualify_staging_columns)
        .collect();
    let mut key_exprs = Vec::with_capacity(unique_cols.len());
    for ucol in &unique_cols {
        let col = schema
            .iter()
            .position(|(name, _)| name.eq_ignore_ascii_case(ucol));
        let Some(expr) = col.and_then(value_of).and_then(|pos| values.get(pos)) else {
            // The insert never touches the key column: every inserted row
            // has a NULL key; uniqueness over NULLs is not enforced.
            return Ok(None);
        };
        key_exprs.push(expr.clone());
    }
    let casts: Vec<(usize, Expr)> = (0..schema.len())
        .filter_map(|col| {
            let pos = value_of(col)?;
            let cast = Expr::Cast {
                expr: Box::new(values.get(pos)?.clone()),
                ty: schema[col].1,
                format: None,
            };
            Some((pos, cast))
        })
        .collect();
    let converts = values
        .into_iter()
        .chain(casts.iter().map(|(_, cast)| cast.clone()))
        .collect();
    Ok(Some(UniqueEmulation {
        target: compiled.target.clone(),
        target_key_cols: unique_cols,
        key_exprs,
        staging: compiled.staging_table.clone(),
        converts,
        cast_values: casts.into_iter().map(|(pos, _)| pos).collect(),
        target_width: schema.len(),
    }))
}

/// Qualify bare column references with the staging alias.
fn qualify_staging_columns(expr: &Expr) -> Expr {
    map_expr(expr, &mut |e| match &e {
        Expr::Column(name) if name.0.len() == 1 => {
            Expr::Column(ObjectName(vec![STG_ALIAS.into(), name.0[0].clone()]))
        }
        _ => e,
    })
}

fn range_filter_qualified(lo: u64, hi: u64) -> Expr {
    let seq = staged_seq();
    Expr::binary(
        Expr::binary(
            seq.clone(),
            BinaryOp::GtEq,
            Expr::Literal(etlv_sql::ast::Literal::Integer(lo as i64)),
        ),
        BinaryOp::And,
        Expr::binary(
            seq,
            BinaryOp::Lt,
            Expr::Literal(etlv_sql::ast::Literal::Integer(hi as i64)),
        ),
    )
}

fn staged_seq() -> Expr {
    Expr::Column(ObjectName(vec![STG_ALIAS.into(), SEQ_COL.into()]))
}

fn item(expr: Expr) -> SelectItem {
    SelectItem::Expr { expr, alias: None }
}

fn target_col(col: &str) -> Expr {
    Expr::Column(ObjectName(vec![TGT_ALIAS.into(), col.into()]))
}

fn count_of(cdw: &Cdw, stmt: &Stmt) -> Result<u64, CdwError> {
    let result = cdw.execute_stmt(stmt)?;
    match result.rows.first().and_then(|r| r.first()) {
        Some(Value::Int(n)) => Ok(*n as u64),
        other => Err(CdwError::Eval(format!(
            "emulation count query returned {other:?}"
        ))),
    }
}

/// The `__SEQ` leading each row of `rows`.
fn seq_of(row: &[Value]) -> Result<u64, CdwError> {
    match row.first() {
        Some(Value::Int(seq)) => Ok(*seq as u64),
        other => Err(CdwError::Eval(format!(
            "emulation listing returned {other:?} for __SEQ"
        ))),
    }
}

impl UniqueEmulation {
    /// The staging rows of `lo..hi` that violate uniqueness, ascending:
    /// rows whose key the target already holds, plus every row repeating
    /// the key of an earlier row of the range. A clean range costs the two
    /// counts alone; a dirty one costs one or two counts and one listing.
    /// A listed row is a UV row only if [`Self::confirm`] says so once the
    /// rows before it are applied: the earlier row it repeats may not
    /// convert.
    pub fn violations_in_range(&self, cdw: &Cdw, lo: u64, hi: u64) -> Result<Vec<u64>, CdwError> {
        let existing = count_of(cdw, &self.existing_conflicts_stmt(lo, hi))?;
        // Singleton ranges cannot self-conflict.
        if hi - lo <= 1 {
            return Ok(if existing > 0 { vec![lo] } else { Vec::new() });
        }
        if existing == 0 && count_of(cdw, &self.intra_range_dups_stmt(lo, hi))? == 0 {
            return Ok(Vec::new());
        }
        // One row per staged row (one per match, should the target hold
        // a key twice): its __SEQ, the matching target key or NULL, and
        // its key.
        let items = [staged_seq(), target_col(&self.target_key_cols[0])];
        let items = items.into_iter().chain(self.key_exprs.iter().cloned());
        let listing = self.join_target(lo, hi, items.map(item).collect(), JoinKind::Left);
        let mut seqs = Vec::new();
        let mut groups: HashMap<RowKey, Vec<u64>> = HashMap::new();
        let mut last = None;
        for mut row in cdw.execute_stmt(&listing)?.rows {
            let seq = seq_of(&row)?;
            if !row[1].is_null() {
                seqs.push(seq);
            }
            if last.replace(seq) != Some(seq) {
                groups
                    .entry(RowKey(row.split_off(2)))
                    .or_default()
                    .push(seq);
            }
        }
        for mut group in groups.into_values() {
            group.sort_unstable();
            seqs.extend(&group[1..]);
        }
        seqs.sort_unstable();
        seqs.dedup();
        Ok(seqs)
    }

    /// `SELECT COUNT(*) FROM stg S JOIN target T ON key(S) = T.key WHERE range`
    ///
    /// The target sits on the *right* of the join with every ON conjunct
    /// probing one of its unique-key columns, so the CDW planner turns
    /// the probe into index lookups against the target's PK index.
    fn existing_conflicts_stmt(&self, lo: u64, hi: u64) -> Stmt {
        let count = Expr::Function {
            name: "COUNT".into(),
            args: vec![Expr::Wildcard],
            distinct: false,
        };
        self.join_target(lo, hi, vec![item(count)], JoinKind::Inner)
    }

    /// `SELECT items FROM stg S <kind> JOIN target T ON key(S) = T.key
    /// WHERE range`
    fn join_target(&self, lo: u64, hi: u64, items: Vec<SelectItem>, kind: JoinKind) -> Stmt {
        let mut on: Option<Expr> = None;
        for (expr, col) in self.key_exprs.iter().zip(&self.target_key_cols) {
            let eq = Expr::binary(expr.clone(), BinaryOp::Eq, target_col(col));
            on = Some(match on {
                Some(prev) => Expr::binary(prev, BinaryOp::And, eq),
                None => eq,
            });
        }
        let mut sel = SelectStmt::new(items);
        sel.from = Some(TableRef::Join {
            left: Box::new(TableRef::Named {
                name: ObjectName::simple(self.staging.clone()),
                alias: Some(STG_ALIAS.into()),
            }),
            right: Box::new(TableRef::Named {
                name: self.target.clone(),
                alias: Some(TGT_ALIAS.into()),
            }),
            kind,
            on: Box::new(on.expect("at least one key column")),
        });
        sel.selection = Some(range_filter_qualified(lo, hi));
        Stmt::Select(sel)
    }

    /// `SELECT COUNT(*) FROM (SELECT key(S) FROM stg S WHERE range GROUP BY key(S) HAVING COUNT(*) > 1) q`
    fn intra_range_dups_stmt(&self, lo: u64, hi: u64) -> Stmt {
        let mut inner = SelectStmt::new(
            self.key_exprs
                .iter()
                .enumerate()
                .map(|(i, e)| SelectItem::Expr {
                    expr: e.clone(),
                    alias: Some(format!("K{i}")),
                })
                .collect(),
        );
        inner.from = Some(TableRef::Named {
            name: ObjectName::simple(self.staging.clone()),
            alias: Some(STG_ALIAS.into()),
        });
        inner.selection = Some(range_filter_qualified(lo, hi));
        inner.group_by = self.key_exprs.clone();
        inner.having = Some(Expr::binary(
            Expr::Function {
                name: "COUNT".into(),
                args: vec![Expr::Wildcard],
                distinct: false,
            },
            BinaryOp::Gt,
            Expr::Literal(etlv_sql::ast::Literal::Integer(1)),
        ));

        let mut outer = SelectStmt::new(vec![SelectItem::Expr {
            expr: Expr::Function {
                name: "COUNT".into(),
                args: vec![Expr::Wildcard],
                distinct: false,
            },
            alias: None,
        }]);
        outer.from = Some(TableRef::Subquery {
            query: Box::new(inner),
            alias: "Q".into(),
        });
        Stmt::Select(outer)
    }

    /// The staged tuple of row `seq` (its layout fields, without `__SEQ`)
    /// if the row collides with the target as it is now and its values
    /// convert; `None` if it does not collide. A colliding row's values are
    /// evaluated and then cast to their target columns' types, in the order
    /// the DML evaluates and then coerces an inserted row, so a conversion
    /// abort names the value the DML's own abort would: the legacy system
    /// evaluates a row's values before it checks its key. A key that fails
    /// to evaluate aborts the join before any value is named; that row is
    /// `None` too, for its DML to name the failing value. NOT NULL is not
    /// checked: a colliding row with a NULL in a NOT NULL column is a UV
    /// row here, an ET row on the legacy system.
    pub fn confirm(&self, cdw: &Cdw, seq: u64) -> Result<Option<Vec<Value>>, CdwError> {
        let mut items: Vec<SelectItem> = self.converts.iter().cloned().map(item).collect();
        items.push(SelectItem::Wildcard);
        let stmt = self.join_target(seq, seq + 1, items, JoinKind::Inner);
        let rows = match cdw.execute_stmt(&stmt) {
            Ok(result) => result.rows,
            Err(CdwError::BulkAbort { position: None, .. }) => return Ok(None),
            Err(mut err) => {
                let values = self.converts.len() - self.cast_values.len();
                if let CdwError::BulkAbort {
                    position: Some(pos),
                    ..
                } = &mut err
                {
                    if let Some(cast) = pos.checked_sub(values) {
                        *pos = self.cast_values[cast];
                    }
                }
                return Err(err);
            }
        };
        // Each row: the converted values, then the wildcard's staging
        // columns (`__SEQ` first) and target columns.
        Ok(rows.into_iter().next().map(|mut row| {
            row.truncate(row.len() - self.target_width);
            row.split_off(self.converts.len() + 1)
        }))
    }

    /// The error the emulation reports, shaped like a native uniqueness
    /// abort so the adaptive handler treats both identically.
    pub fn violation_error(&self) -> CdwError {
        CdwError::abort(
            Cause::Uniqueness,
            format!(
                "emulated uniqueness violation on {} ({})",
                self.target.dotted(),
                self.target_key_cols.join(", ")
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xcompile::{compile_dml, staging_ddl};
    use etlv_protocol::data::LegacyType as T;
    use etlv_protocol::layout::Layout;

    fn setup() -> (Cdw, CompiledDml) {
        let cdw = Cdw::new(); // native_unique = false
        cdw.execute(
            "CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(5), CUST_NAME VARCHAR(50), JOIN_DATE DATE, PRIMARY KEY (CUST_ID))",
        )
        .unwrap();
        let layout = Layout::new("L")
            .field("CUST_ID", T::VarChar(5))
            .field("CUST_NAME", T::VarChar(50))
            .field("JOIN_DATE", T::VarChar(10));
        let compiled = compile_dml(
            "insert into PROD.CUSTOMER values (trim(:CUST_ID), trim(:CUST_NAME), cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'))",
            &layout,
            "STG",
        )
        .unwrap();
        cdw.execute(&staging_ddl("STG", &layout)).unwrap();
        (cdw, compiled)
    }

    fn stage(cdw: &Cdw, rows: &[(u64, &str, &str, &str)]) {
        for (seq, id, name, date) in rows {
            cdw.execute(&format!(
                "INSERT INTO STG VALUES ({seq}, '{id}', '{name}', '{date}')"
            ))
            .unwrap();
        }
    }

    #[test]
    fn plans_only_with_constraint() {
        let (cdw, compiled) = setup();
        let emu = plan(&cdw, &compiled).unwrap();
        assert!(emu.is_some());
        assert_eq!(emu.unwrap().target_key_cols, vec!["CUST_ID".to_string()]);

        // No constraint -> no plan.
        cdw.execute("CREATE TABLE PLAIN (A VARCHAR(5))").unwrap();
        let layout = Layout::new("L").field("A", T::VarChar(5));
        let c2 = compile_dml("insert into PLAIN values (:A)", &layout, "STG").unwrap();
        assert!(plan(&cdw, &c2).unwrap().is_none());
    }

    #[test]
    fn native_enforcement_disables_emulation() {
        let cdw = Cdw::with_config(
            etlv_cdw::CdwConfig {
                native_unique: true,
                ..Default::default()
            },
            None,
        );
        cdw.execute("CREATE TABLE T (A VARCHAR(5), PRIMARY KEY (A))")
            .unwrap();
        let layout = Layout::new("L").field("A", T::VarChar(5));
        let compiled = compile_dml("insert into T values (:A)", &layout, "STG").unwrap();
        assert!(plan(&cdw, &compiled).unwrap().is_none());
    }

    #[test]
    fn detects_existing_conflicts() {
        let (cdw, compiled) = setup();
        let emu = plan(&cdw, &compiled).unwrap().unwrap();
        cdw.execute("INSERT INTO PROD.CUSTOMER VALUES ('123', 'Smith', NULL)")
            .unwrap();
        stage(
            &cdw,
            &[
                (1, "123", "Jones", "2012-01-01"),
                (2, "456", "Ok", "2012-01-01"),
            ],
        );
        assert_eq!(emu.violations_in_range(&cdw, 1, 3).unwrap(), [1]);
        assert_eq!(emu.violations_in_range(&cdw, 2, 3).unwrap(), []);
        assert_eq!(emu.violations_in_range(&cdw, 1, 2).unwrap(), [1]);
    }

    #[test]
    fn detects_intra_range_dups() {
        let (cdw, compiled) = setup();
        let emu = plan(&cdw, &compiled).unwrap().unwrap();
        stage(
            &cdw,
            &[
                (1, "123", "a", "2012-01-01"),
                (2, "456", "b", "2012-01-01"),
                (3, "123", "c", "2012-01-01"),
            ],
        );
        assert_eq!(emu.violations_in_range(&cdw, 1, 4).unwrap(), [3]);
        // Split below the duplicate pair: clean.
        assert_eq!(emu.violations_in_range(&cdw, 1, 3).unwrap(), []);
        assert_eq!(emu.violations_in_range(&cdw, 3, 4).unwrap(), []);
    }

    #[test]
    fn key_transformation_applied() {
        // The key expression is trim(:CUST_ID): staged values with padding
        // still collide.
        let (cdw, compiled) = setup();
        let emu = plan(&cdw, &compiled).unwrap().unwrap();
        stage(
            &cdw,
            &[
                (1, "  99", "a", "2012-01-01"),
                (2, "99  ", "b", "2012-01-01"),
            ],
        );
        assert_eq!(emu.violations_in_range(&cdw, 1, 3).unwrap(), [2]);
    }

    #[test]
    fn violation_error_is_uniqueness_class() {
        let (cdw, compiled) = setup();
        let emu = plan(&cdw, &compiled).unwrap().unwrap();
        assert!(emu.violation_error().is_uniqueness());
    }
}
