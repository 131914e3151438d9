//! Per-tuple DML application with legacy error semantics.

use etlv_cdw::error::{BulkAbortKind, CdwError};
use etlv_cdw::Cdw;
use etlv_protocol::data::Value;
use etlv_protocol::errcode::ErrCode;
use etlv_protocol::layout::Layout;
use etlv_sql::ast::{Expr, Insert, InsertSource, Literal, Stmt};
use etlv_sql::transform::bind_placeholders;

/// One recorded load error.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadError {
    /// 1-based input row number.
    pub seq: u64,
    /// Legacy error code.
    pub code: ErrCode,
    /// Offending field name, when attributable.
    pub field: Option<String>,
    /// The input tuple (recorded in the UV table for uniqueness errors).
    pub tuple: Vec<Value>,
}

/// Outcome of applying the DML to the buffered rows.
#[derive(Debug, Default)]
pub struct ApplyOutcome {
    /// Tuples applied successfully.
    pub applied: u64,
    /// Transformation errors (→ ET table).
    pub et_errors: Vec<LoadError>,
    /// Uniqueness violations (→ UV table).
    pub uv_errors: Vec<LoadError>,
    /// Whether the job aborted because `errlimit` was exceeded.
    pub aborted: bool,
}

/// Classify a conversion failure into the legacy error-code table, based on
/// the engine's message.
pub fn classify_conversion(message: &str) -> ErrCode {
    let lower = message.to_ascii_lowercase();
    if lower.contains("date") {
        ErrCode::BAD_DATE
    } else if lower.contains("exceeds") || lower.contains("length") {
        ErrCode::STRING_TOO_LONG
    } else if lower.contains("overflow") || lower.contains("out of range") {
        ErrCode::NUMERIC_OVERFLOW
    } else {
        ErrCode::BAD_VALUE
    }
}

/// Attribute a failed tuple's conversion error to a layout field by
/// evaluating the bound INSERT's value expressions one by one and finding
/// the first that fails; its first placeholder names the field.
pub fn attribute_error(dml: &Stmt, layout: &Layout, row: &[Value]) -> Option<String> {
    let Stmt::Insert(Insert {
        source: InsertSource::Values(rows),
        ..
    }) = dml
    else {
        return None;
    };
    let exprs = rows.first()?;
    for expr in exprs {
        let placeholders = expr.placeholders();
        let bound = bind_one_expr(expr, layout, row);
        if etlv_cdw::eval::eval(&bound, &etlv_cdw::eval::EmptyEnv).is_err() {
            return placeholders.into_iter().next();
        }
    }
    None
}

fn bind_one_expr(expr: &Expr, layout: &Layout, row: &[Value]) -> Expr {
    etlv_sql::transform::map_expr(expr, &mut |e| match &e {
        Expr::Placeholder(name) => match layout.field_index(name) {
            Some(i) => Expr::Literal(Literal::from_value(&row[i])),
            None => e,
        },
        _ => e,
    })
}

/// Apply `dml` to each buffered `(seq, row)` tuple individually — the
/// legacy semantics. Rows whose application fails are recorded and the job
/// continues, unless `errlimit` (>0) is exceeded.
pub fn apply_per_tuple(
    engine: &Cdw,
    dml: &Stmt,
    layout: &Layout,
    rows: &[(u64, Vec<Value>)],
    errlimit: u64,
) -> ApplyOutcome {
    let mut outcome = ApplyOutcome::default();
    for (seq, row) in rows {
        let bound = bind_placeholders(dml, |name| {
            layout
                .field_index(name)
                .map(|i| Literal::from_value(&row[i]))
        });
        match engine.execute_stmt(&bound) {
            Ok(_) => outcome.applied += 1,
            Err(e) => {
                let err = match &e {
                    CdwError::BulkAbort {
                        kind: BulkAbortKind::Uniqueness,
                        ..
                    } => {
                        let le = LoadError {
                            seq: *seq,
                            code: ErrCode::UNIQUENESS,
                            field: None,
                            tuple: row.clone(),
                        };
                        outcome.uv_errors.push(le);
                        continue_or_abort(&mut outcome, errlimit)
                    }
                    CdwError::BulkAbort { message, .. } => {
                        let le = LoadError {
                            seq: *seq,
                            code: classify_conversion(message),
                            field: attribute_error(&bound_original(dml), layout, row),
                            tuple: row.clone(),
                        };
                        outcome.et_errors.push(le);
                        continue_or_abort(&mut outcome, errlimit)
                    }
                    _ => {
                        // Structural errors (missing table/column) are not
                        // per-tuple; record and abort.
                        outcome.et_errors.push(LoadError {
                            seq: *seq,
                            code: ErrCode::SQL_ERROR,
                            field: None,
                            tuple: row.clone(),
                        });
                        outcome.aborted = true;
                        true
                    }
                };
                if err {
                    break;
                }
            }
        }
    }
    outcome
}

fn bound_original(dml: &Stmt) -> Stmt {
    dml.clone()
}

fn continue_or_abort(outcome: &mut ApplyOutcome, errlimit: u64) -> bool {
    if errlimit > 0 && (outcome.et_errors.len() + outcome.uv_errors.len()) as u64 > errlimit {
        outcome.aborted = true;
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlv_cdw::CdwConfig;
    use etlv_protocol::data::LegacyType;
    use etlv_sql::{parse_statement, Dialect};

    fn setup() -> (Cdw, Stmt, Layout) {
        let engine = Cdw::with_config(
            CdwConfig {
                native_unique: true,
                ..Default::default()
            },
            None,
        );
        // Target with a unique CUST_ID (legacy servers enforce natively).
        let create = parse_statement(
            "CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(5), CUST_NAME VARCHAR(50), JOIN_DATE DATE, PRIMARY KEY (CUST_ID))",
            Dialect::Cdw,
        )
        .unwrap();
        engine.execute_stmt(&create).unwrap();
        let dml = parse_statement(
            "insert into PROD.CUSTOMER values (trim(:CUST_ID), trim(:CUST_NAME), cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'))",
            Dialect::Legacy,
        )
        .unwrap();
        let layout = Layout::new("CustLayout")
            .field("CUST_ID", LegacyType::VarChar(5))
            .field("CUST_NAME", LegacyType::VarChar(50))
            .field("JOIN_DATE", LegacyType::VarChar(10));
        (engine, dml, layout)
    }

    fn figure5_rows() -> Vec<(u64, Vec<Value>)> {
        let rows = [
            ("123", "Smith", "2012-01-01"),
            ("456", "Brown", "xxxx"),
            ("789", "Brown", "yyyyy"),
            ("123", "Jones", "2012-12-01"),
            ("157", "Jones", "2012-12-01"),
        ];
        rows.iter()
            .enumerate()
            .map(|(i, (a, b, c))| {
                (
                    i as u64 + 1,
                    vec![
                        Value::Str(a.to_string()),
                        Value::Str(b.to_string()),
                        Value::Str(c.to_string()),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn figure5_semantics() {
        let (engine, dml, layout) = setup();
        let outcome = apply_per_tuple(&engine, &dml, &layout, &figure5_rows(), 0);
        // Rows 2 and 3 have bad dates -> ET with code 2666, field JOIN_DATE.
        assert_eq!(outcome.et_errors.len(), 2);
        assert_eq!(outcome.et_errors[0].seq, 2);
        assert_eq!(outcome.et_errors[0].code, ErrCode::BAD_DATE);
        assert_eq!(outcome.et_errors[0].field.as_deref(), Some("JOIN_DATE"));
        assert_eq!(outcome.et_errors[1].seq, 3);
        // Row 4 duplicates CUST_ID 123 -> UV with code 2794.
        assert_eq!(outcome.uv_errors.len(), 1);
        assert_eq!(outcome.uv_errors[0].seq, 4);
        assert_eq!(outcome.uv_errors[0].code, ErrCode::UNIQUENESS);
        assert_eq!(outcome.uv_errors[0].tuple[1], Value::Str("Jones".into()));
        // Rows 1 and 5 load.
        assert_eq!(outcome.applied, 2);
        assert!(!outcome.aborted);
        assert_eq!(engine.table_len("PROD.CUSTOMER").unwrap(), 2);
    }

    #[test]
    fn errlimit_aborts() {
        let (engine, dml, layout) = setup();
        let outcome = apply_per_tuple(&engine, &dml, &layout, &figure5_rows(), 1);
        // Second error (row 3) exceeds errlimit 1 -> abort before rows 4/5.
        assert!(outcome.aborted);
        assert_eq!(outcome.applied, 1);
        assert_eq!(engine.table_len("PROD.CUSTOMER").unwrap(), 1);
    }

    #[test]
    fn classification_table() {
        assert_eq!(classify_conversion("invalid date: bad"), ErrCode::BAD_DATE);
        assert_eq!(
            classify_conversion("string length 9 exceeds VARCHAR(5)"),
            ErrCode::STRING_TOO_LONG
        );
        assert_eq!(
            classify_conversion("integer overflow"),
            ErrCode::NUMERIC_OVERFLOW
        );
        assert_eq!(classify_conversion("whatever"), ErrCode::BAD_VALUE);
    }

    #[test]
    fn attribute_error_finds_field() {
        let (_, dml, layout) = setup();
        let row = vec![
            Value::Str("1".into()),
            Value::Str("a".into()),
            Value::Str("nope".into()),
        ];
        assert_eq!(
            attribute_error(&dml, &layout, &row).as_deref(),
            Some("JOIN_DATE")
        );
        // A clean row attributes nothing.
        let row = vec![
            Value::Str("1".into()),
            Value::Str("a".into()),
            Value::Str("2012-01-01".into()),
        ];
        assert_eq!(attribute_error(&dml, &layout, &row), None);
    }

    #[test]
    fn structural_error_aborts() {
        let engine = Cdw::new();
        let dml =
            parse_statement("insert into NO_SUCH_TABLE values (:A)", Dialect::Legacy).unwrap();
        let layout = Layout::new("L").field("A", LegacyType::VarChar(5));
        let rows = vec![(1, vec![Value::Str("x".into())])];
        let outcome = apply_per_tuple(&engine, &dml, &layout, &rows, 0);
        assert!(outcome.aborted);
        assert_eq!(outcome.et_errors[0].code, ErrCode::SQL_ERROR);
    }
}
