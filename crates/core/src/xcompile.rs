//! SQL cross-compilation: legacy dialect → CDW dialect.
//!
//! Three jobs (paper §3/§6):
//!
//! 1. **Pass-through translation** of control-session SQL: parse in the
//!    legacy dialect, render in the CDW dialect (FORMAT casts become
//!    `TO_DATE`/`TO_CHAR`, Unicode charsets become `NVARCHAR`, `SEL`
//!    normalizes, …).
//! 2. **Staging DDL**: the staging table mirrors the job layout with
//!    legacy→CDW type mapping, prefixed by a `__SEQ BIGINT` row-number
//!    column that the adaptive error handler ranges over.
//! 3. **DML rewriting**: the job's per-tuple
//!    `INSERT INTO target VALUES (f(:A), g(:B))` becomes the set-oriented
//!    `INSERT INTO target SELECT f(S.A), g(S.B) FROM staging` — the
//!    "bulk processing nature of the DML statements that Hyper-Q
//!    generates" the paper credits for the application phase's
//!    scalability.

use std::fmt;

use etlv_protocol::layout::Layout;
use etlv_sql::ast::{
    BinaryOp, Expr, Insert, InsertSource, Literal, ObjectName, SelectItem, SelectStmt, Stmt,
    TableRef,
};
use etlv_sql::render::render_stmt;
use etlv_sql::transform::map_placeholders;
use etlv_sql::types::SqlType;
use etlv_sql::{parse_statement, Dialect, ParseError};

/// The staging-table sequence column.
pub const SEQ_COL: &str = "__SEQ";

/// Cross-compilation error.
#[derive(Debug, Clone, PartialEq)]
pub enum XcError {
    /// Legacy SQL failed to parse.
    Parse(ParseError),
    /// A placeholder does not match any layout field.
    UnknownPlaceholder(String),
    /// The statement shape is not supported for load DML.
    Unsupported(String),
}

impl fmt::Display for XcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XcError::Parse(e) => write!(f, "cross-compile parse error: {e}"),
            XcError::UnknownPlaceholder(p) => write!(f, "placeholder :{p} not in layout"),
            XcError::Unsupported(m) => write!(f, "unsupported DML shape: {m}"),
        }
    }
}

impl std::error::Error for XcError {}

impl From<ParseError> for XcError {
    fn from(e: ParseError) -> XcError {
        XcError::Parse(e)
    }
}

/// Translate a control-session SQL statement to CDW text.
pub fn translate_sql(legacy_sql: &str) -> Result<String, XcError> {
    let stmt = parse_statement(legacy_sql, Dialect::Legacy)?;
    if !stmt.placeholders().is_empty() {
        return Err(XcError::Unsupported(
            "placeholders are only valid in load DML".into(),
        ));
    }
    Ok(render_stmt(&stmt, Dialect::Cdw))
}

/// Name of the staging table for a load token.
pub fn staging_table_name(load_token: u64) -> String {
    format!("ETLV_STG_{load_token}")
}

/// Object-store prefix for a load token's staged files.
pub fn staging_prefix(load_token: u64) -> String {
    format!("job{load_token}/")
}

/// CDW DDL creating the staging table for `layout`.
pub fn staging_ddl(table: &str, layout: &Layout) -> String {
    let mut cols = vec![format!("{SEQ_COL} BIGINT")];
    for f in &layout.fields {
        let ty = SqlType::from_legacy(f.ty).legacy_to_cdw();
        cols.push(format!("{} {}", f.name, ty.render(Dialect::Cdw)));
    }
    // Declaring __SEQ as the primary key materializes an ordered index on
    // it in the CDW, turning the adaptive handler's bisection COUNT
    // probes and singleton row fetches into index seeks instead of full
    // staging scans. __SEQ is a generated row number, so the declaration
    // is vacuously satisfiable under native enforcement too.
    cols.push(format!("PRIMARY KEY ({SEQ_COL})"));
    format!("CREATE TABLE {table} ({})", cols.join(", "))
}

/// How the compiled DML applies.
#[derive(Debug, Clone, PartialEq)]
pub enum DmlKind {
    /// A per-tuple INSERT rewritten over the staging table; supports
    /// range-restricted application (adaptive error handling).
    RowWise,
    /// Any other statement; applied once, as-is (already set-oriented in
    /// the source script).
    Passthrough,
}

/// A cross-compiled load DML.
#[derive(Debug, Clone)]
pub struct CompiledDml {
    /// Target table.
    pub target: ObjectName,
    /// Explicit insert column list, if the source DML had one.
    pub insert_columns: Option<Vec<String>>,
    /// CDW projection expressions over staging columns (RowWise only),
    /// in target-column order.
    pub projection: Vec<Expr>,
    /// The original legacy statement (placeholders intact): the
    /// singleton baseline binds it per tuple, and its VALUES items name
    /// the field of a recorded error.
    pub original: Stmt,
    /// Staging table name.
    pub staging_table: String,
    /// Statement kind.
    pub kind: DmlKind,
}

impl CompiledDml {
    /// The rewritten statement restricted to staging rows with
    /// `lo <= __SEQ < hi`. `None` bounds apply to the whole table.
    pub fn range_stmt(&self, lo: Option<u64>, hi: Option<u64>) -> Stmt {
        self.range_stmt_skipping(lo, hi, &[])
    }

    /// [`Self::range_stmt`] without the staging rows `skip`.
    pub fn range_stmt_skipping(&self, lo: Option<u64>, hi: Option<u64>, skip: &[u64]) -> Stmt {
        match self.kind {
            DmlKind::Passthrough => {
                // Translate placeholders were already rejected; render the
                // original as-is (dialect differences resolve at render).
                self.original.clone()
            }
            DmlKind::RowWise => {
                let select = SelectStmt {
                    distinct: false,
                    projection: self
                        .projection
                        .iter()
                        .map(|e| SelectItem::Expr {
                            expr: e.clone(),
                            alias: None,
                        })
                        .collect(),
                    from: Some(TableRef::Named {
                        name: ObjectName::simple(self.staging_table.clone()),
                        alias: None,
                    }),
                    selection: range_filter(lo, hi, skip),
                    group_by: Vec::new(),
                    having: None,
                    order_by: Vec::new(),
                    limit: None,
                };
                Stmt::Insert(Insert {
                    table: self.target.clone(),
                    columns: self.insert_columns.clone(),
                    source: InsertSource::Select(Box::new(select)),
                })
            }
        }
    }

    /// A SELECT over the staging table returning `[__SEQ, fields...]` for
    /// the given range (used by singleton application and error
    /// attribution).
    pub fn staging_scan(&self, lo: Option<u64>, hi: Option<u64>) -> Stmt {
        let mut sel = SelectStmt::new(vec![SelectItem::Wildcard]);
        sel.from = Some(TableRef::Named {
            name: ObjectName::simple(self.staging_table.clone()),
            alias: None,
        });
        sel.selection = range_filter(lo, hi, &[]);
        sel.order_by = vec![etlv_sql::ast::OrderItem {
            expr: Expr::col(SEQ_COL),
            desc: false,
        }];
        Stmt::Select(sel)
    }
}

fn range_filter(lo: Option<u64>, hi: Option<u64>, skip: &[u64]) -> Option<Expr> {
    let seq = |n: u64| Expr::Literal(Literal::Integer(n as i64));
    let bounds = [(lo, BinaryOp::GtEq), (hi, BinaryOp::Lt)];
    let mut conjuncts: Vec<Expr> = bounds
        .into_iter()
        .filter_map(|(n, op)| Some(Expr::binary(Expr::col(SEQ_COL), op, seq(n?))))
        .collect();
    if !skip.is_empty() {
        conjuncts.push(Expr::InList {
            expr: Box::new(Expr::col(SEQ_COL)),
            list: skip.iter().map(|&n| seq(n)).collect(),
            negated: true,
        });
    }
    conjuncts
        .into_iter()
        .reduce(|p, q| Expr::binary(p, BinaryOp::And, q))
}

/// Cross-compile the job's DML against `layout` and `staging_table`.
pub fn compile_dml(
    legacy_sql: &str,
    layout: &Layout,
    staging_table: &str,
) -> Result<CompiledDml, XcError> {
    let original = parse_statement(legacy_sql, Dialect::Legacy)?;
    // Validate placeholders against the layout up front.
    for ph in original.placeholders() {
        if layout.field_index(&ph).is_none() {
            return Err(XcError::UnknownPlaceholder(ph));
        }
    }

    if let Stmt::Insert(ins) = &original {
        if let InsertSource::Values(rows) = &ins.source {
            if rows.len() != 1 {
                return Err(XcError::Unsupported("multi-row VALUES in load DML".into()));
            }
            // :FIELD -> staging column reference.
            let mapped = map_placeholders(&original, |name| {
                Some(Expr::Column(ObjectName::simple(name.to_string())))
            });
            let Stmt::Insert(Insert {
                source: InsertSource::Values(mapped_rows),
                ..
            }) = &mapped
            else {
                unreachable!("shape preserved by map_placeholders")
            };
            return Ok(CompiledDml {
                target: ins.table.clone(),
                insert_columns: ins.columns.clone(),
                projection: mapped_rows[0].clone(),
                original,
                staging_table: staging_table.to_string(),
                kind: DmlKind::RowWise,
            });
        }
    }

    // Everything else: must be placeholder-free, applied once.
    if !original.placeholders().is_empty() {
        return Err(XcError::Unsupported(
            "placeholders outside INSERT ... VALUES".into(),
        ));
    }
    let target = match &original {
        Stmt::Insert(i) => i.table.clone(),
        Stmt::Update(u) => u.table.clone(),
        Stmt::Delete(d) => d.table.clone(),
        other => {
            return Err(XcError::Unsupported(format!(
                "load DML must be INSERT/UPDATE/DELETE, got {other:?}"
            )))
        }
    };
    Ok(CompiledDml {
        target,
        insert_columns: None,
        projection: Vec::new(),
        original,
        staging_table: staging_table.to_string(),
        kind: DmlKind::Passthrough,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlv_protocol::data::LegacyType;

    fn layout() -> Layout {
        Layout::new("CustLayout")
            .field("CUST_ID", LegacyType::VarChar(5))
            .field("CUST_NAME", LegacyType::VarChar(50))
            .field("JOIN_DATE", LegacyType::VarChar(10))
    }

    const EXAMPLE_DML: &str = "insert into PROD.CUSTOMER values (trim(:CUST_ID), trim(:CUST_NAME), cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'))";

    #[test]
    fn rewrites_example_2_1_to_insert_select() {
        let compiled = compile_dml(EXAMPLE_DML, &layout(), "ETLV_STG_1").unwrap();
        assert_eq!(compiled.kind, DmlKind::RowWise);
        let sql = render_stmt(&compiled.range_stmt(None, None), Dialect::Cdw);
        assert_eq!(
            sql,
            "INSERT INTO PROD.CUSTOMER SELECT TRIM(CUST_ID), TRIM(CUST_NAME), TO_DATE(JOIN_DATE, 'YYYY-MM-DD') FROM ETLV_STG_1"
        );
    }

    #[test]
    fn range_restriction() {
        let compiled = compile_dml(EXAMPLE_DML, &layout(), "S").unwrap();
        let sql = render_stmt(&compiled.range_stmt(Some(10), Some(20)), Dialect::Cdw);
        assert!(
            sql.contains("WHERE (__SEQ >= 10) AND (__SEQ < 20)"),
            "{sql}"
        );
        let sql = render_stmt(&compiled.range_stmt(None, Some(5)), Dialect::Cdw);
        assert!(sql.contains("WHERE __SEQ < 5"), "{sql}");
    }

    #[test]
    fn staging_ddl_maps_types_and_adds_seq() {
        let mut l = layout();
        l.fields.push(etlv_protocol::layout::FieldDef::new(
            "U",
            LegacyType::VarCharUnicode(7),
        ));
        l.fields.push(etlv_protocol::layout::FieldDef::new(
            "B",
            LegacyType::ByteInt,
        ));
        let ddl = staging_ddl("ETLV_STG_9", &l);
        assert!(
            ddl.starts_with("CREATE TABLE ETLV_STG_9 (__SEQ BIGINT, "),
            "{ddl}"
        );
        assert!(ddl.contains("U NVARCHAR(7)"), "{ddl}");
        assert!(ddl.contains("B SMALLINT"), "{ddl}");
        // The DDL parses in the CDW dialect.
        assert!(parse_statement(&ddl, Dialect::Cdw).is_ok());
    }

    #[test]
    fn unknown_placeholder_rejected() {
        let err = compile_dml("insert into T values (:NOPE)", &layout(), "S").unwrap_err();
        assert_eq!(err, XcError::UnknownPlaceholder("NOPE".into()));
    }

    #[test]
    fn passthrough_dml() {
        let compiled = compile_dml(
            "update PROD.CUSTOMER set CUST_NAME = upper(CUST_NAME)",
            &layout(),
            "S",
        )
        .unwrap();
        assert_eq!(compiled.kind, DmlKind::Passthrough);
        let sql = render_stmt(&compiled.range_stmt(None, None), Dialect::Cdw);
        assert!(sql.starts_with("UPDATE PROD.CUSTOMER"), "{sql}");
    }

    #[test]
    fn placeholders_outside_insert_values_rejected() {
        let err = compile_dml("update T set A = :CUST_ID", &layout(), "S").unwrap_err();
        assert!(matches!(err, XcError::Unsupported(_)));
    }

    #[test]
    fn select_as_dml_rejected() {
        let err = compile_dml("select 1", &layout(), "S").unwrap_err();
        assert!(matches!(err, XcError::Unsupported(_)));
    }

    #[test]
    fn translate_passthrough_sql() {
        let out = translate_sql(
            "SEL CAST(D AS VARCHAR(10) FORMAT 'MM/DD/YY') FROM T WHERE A IS NOT NULL",
        )
        .unwrap();
        assert!(out.starts_with("SELECT TO_CHAR(D, 'MM/DD/YY')"), "{out}");
        assert!(translate_sql("select :X").is_err());
    }

    #[test]
    fn staging_scan_orders_by_seq() {
        let compiled = compile_dml(EXAMPLE_DML, &layout(), "S").unwrap();
        let sql = render_stmt(&compiled.staging_scan(Some(3), Some(4)), Dialect::Cdw);
        assert_eq!(
            sql,
            "SELECT * FROM S WHERE (__SEQ >= 3) AND (__SEQ < 4) ORDER BY __SEQ"
        );
    }

    #[test]
    fn names_and_prefixes() {
        assert_eq!(staging_table_name(42), "ETLV_STG_42");
        assert_eq!(staging_prefix(42), "job42/");
    }
}
