//! Per-tuple DML application with legacy error semantics.

use etlv_cdw::error::legacy_error;
use etlv_cdw::Cdw;
use etlv_protocol::data::Value;
use etlv_protocol::errcode::{Cause, ErrCode};
use etlv_protocol::layout::Layout;
use etlv_sql::ast::{Literal, Stmt};
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

/// Apply `dml` to each buffered `(seq, row)` tuple individually — the
/// legacy semantics. Rows whose application fails are recorded with the
/// code and field [`legacy_error`] reads off the abort, and the job
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
        let Err(e) = engine.execute_stmt(&bound) else {
            outcome.applied += 1;
            continue;
        };
        let Some((cause, code, field)) = legacy_error(&e, dml) else {
            // Structural errors (missing table/column) are not per-tuple;
            // record and abort.
            outcome.et_errors.push(LoadError {
                seq: *seq,
                code: ErrCode::SQL_ERROR,
                field: None,
                tuple: row.clone(),
            });
            outcome.aborted = true;
            break;
        };
        let err = LoadError {
            seq: *seq,
            code,
            field,
            tuple: row.clone(),
        };
        if cause == Cause::Uniqueness {
            outcome.uv_errors.push(err);
        } else {
            outcome.et_errors.push(err);
        }
        if errlimit > 0 && (outcome.et_errors.len() + outcome.uv_errors.len()) as u64 > errlimit {
            outcome.aborted = true;
            break;
        }
    }
    outcome
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
