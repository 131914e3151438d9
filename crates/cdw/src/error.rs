//! CDW engine errors, and the one mapping from a statement abort to the
//! legacy per-tuple error contract.
//!
//! Note the deliberate shape of [`CdwError::BulkAbort`]: it reports that a
//! set-oriented statement failed, *why* (a typed [`Cause`], as a real
//! warehouse's SQLSTATE) and *which value* of the row failed (as a real
//! warehouse names the column). It names *which input row* failed only
//! when a SELECT's projection fails on a row of one table keyed by a
//! single integer column — the line number a warehouse's rejected-row
//! report gives (Snowflake's `VALIDATE`, Redshift's `STL_LOAD_ERRORS`).
//! A failure while coercing into the target, or a constraint violation,
//! names no row. Recovering tuple-level error attribution from that is
//! the virtualizer's job (paper §7, adaptive error handling).
//! [`legacy_error`] turns an abort of a one-row statement into the
//! `(cause, code, field)` both the legacy server and the virtualizer
//! record.

use std::fmt;

use etlv_protocol::data::{DateParseError, DecimalError, ValueError};
use etlv_protocol::errcode::{Cause, ErrCode};
use etlv_sql::ast::{Insert, InsertSource, Stmt};
use etlv_sql::ParseError;

/// Errors raised by the CDW engine.
#[derive(Debug, Clone, PartialEq)]
pub enum CdwError {
    /// SQL failed to parse.
    Parse(ParseError),
    /// Referenced table does not exist.
    TableNotFound(String),
    /// CREATE TABLE of an existing table (without IF NOT EXISTS).
    TableExists(String),
    /// Referenced column does not exist.
    ColumnNotFound(String),
    /// Ambiguous unqualified column reference.
    AmbiguousColumn(String),
    /// A set-oriented statement aborted on the first failure the engine
    /// hit; no rows were affected.
    BulkAbort {
        /// Why the statement aborted.
        cause: Cause,
        /// Index of the failing value in the per-row value list: an INSERT
        /// VALUES item, a SELECT-list item, or a target column mapped back
        /// through the INSERT's column list. The innermost evaluation loop
        /// that saw the failure names it; `None` when no per-value loop did
        /// (a WHERE or ON clause, a GROUP BY key, an UPDATE, a uniqueness
        /// check, a staged file).
        position: Option<usize>,
        /// Key of the input row whose projection failed, when a SELECT read
        /// it from one table whose primary key is a single integer column
        /// (a staging table's `__SEQ`). The first loop that names a row
        /// wins; `None` for anything but a projection failure (coercion
        /// into the target, NOT NULL, uniqueness, a WHERE or ON clause).
        row: Option<i64>,
        /// Description of the failure, for people (never parsed).
        message: String,
    },
    /// Expression evaluation failed outside a bulk statement context.
    Eval(String),
    /// Statement uses a feature the engine does not implement.
    Unsupported(String),
    /// Object-store failure during COPY.
    Store(String),
    /// A transient infrastructure failure (network blip, warehouse
    /// queue timeout). The statement had no effect; retrying it is safe
    /// and expected. Raised by the engine's fault-injection hook.
    Transient(String),
    /// Column count mismatch in INSERT.
    ColumnCount {
        /// Expected number of columns.
        expected: usize,
        /// Provided number of values.
        actual: usize,
    },
}

impl fmt::Display for CdwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdwError::Parse(e) => write!(f, "SQL parse error: {e}"),
            CdwError::TableNotFound(t) => write!(f, "table not found: {t}"),
            CdwError::TableExists(t) => write!(f, "table already exists: {t}"),
            CdwError::ColumnNotFound(c) => write!(f, "column not found: {c}"),
            CdwError::AmbiguousColumn(c) => write!(f, "ambiguous column: {c}"),
            CdwError::BulkAbort { cause, message, .. } => {
                write!(f, "statement aborted ({cause:?}): {message}")
            }
            CdwError::Eval(m) => write!(f, "evaluation error: {m}"),
            CdwError::Unsupported(m) => write!(f, "unsupported: {m}"),
            CdwError::Store(m) => write!(f, "store error: {m}"),
            CdwError::Transient(m) => write!(f, "transient error: {m}"),
            CdwError::ColumnCount { expected, actual } => {
                write!(f, "expected {expected} columns, got {actual}")
            }
        }
    }
}

impl std::error::Error for CdwError {}

impl From<ParseError> for CdwError {
    fn from(e: ParseError) -> CdwError {
        CdwError::Parse(e)
    }
}

impl From<ValueError> for CdwError {
    fn from(e: ValueError) -> CdwError {
        CdwError::abort(e.cause, e.reason)
    }
}

impl From<DateParseError> for CdwError {
    fn from(e: DateParseError) -> CdwError {
        CdwError::abort(Cause::Date, e.to_string())
    }
}

impl From<DecimalError> for CdwError {
    fn from(e: DecimalError) -> CdwError {
        CdwError::abort(e.cause, e.to_string())
    }
}

impl CdwError {
    /// A statement abort whose failing value and row no loop has named yet.
    pub fn abort(cause: Cause, message: impl Into<String>) -> CdwError {
        CdwError::BulkAbort {
            cause,
            position: None,
            row: None,
            message: message.into(),
        }
    }

    /// Name `position` as the failing value of an abort, unless an inner
    /// evaluation loop already named one (the innermost tag wins).
    pub fn at(mut self, pos: usize) -> CdwError {
        if let CdwError::BulkAbort { position, .. } = &mut self {
            position.get_or_insert(pos);
        }
        self
    }

    /// Name the input row with key `key` as the one that failed, unless a
    /// loop already named one (the first tag wins).
    pub(crate) fn in_row(mut self, key: i64) -> CdwError {
        if let CdwError::BulkAbort { row, .. } = &mut self {
            row.get_or_insert(key);
        }
        self
    }

    /// The key of the input row an abort names, if any.
    pub fn failed_row(&self) -> Option<i64> {
        match self {
            CdwError::BulkAbort { row, .. } => *row,
            _ => None,
        }
    }

    /// Whether this error came from a set-oriented statement abort caused
    /// by a uniqueness violation.
    pub fn is_uniqueness(&self) -> bool {
        matches!(
            self,
            CdwError::BulkAbort {
                cause: Cause::Uniqueness,
                ..
            }
        )
    }

    /// Whether this error is a bulk abort of any kind (the retryable class
    /// for adaptive error handling).
    pub fn is_bulk_abort(&self) -> bool {
        matches!(self, CdwError::BulkAbort { .. })
    }

    /// Whether this is a transient infrastructure failure that left no
    /// state behind — the class a consumer may retry verbatim.
    pub fn is_transient(&self) -> bool {
        matches!(self, CdwError::Transient(_))
    }

    /// Whether retrying the statement unchanged can succeed: transient
    /// failures plus object-store I/O errors (COPY reads everything
    /// before mutating, so a failed COPY left the table untouched).
    pub fn is_retryable(&self) -> bool {
        matches!(self, CdwError::Transient(_) | CdwError::Store(_))
    }
}

/// The legacy error an abort of `dml`'s one-row statement records: its
/// cause, the Figure 5 code for that cause, and the field the failing
/// value came from — the first `:FIELD` placeholder of `dml`'s VALUES item
/// at the abort's position. `None` for anything but a statement abort.
pub fn legacy_error(err: &CdwError, dml: &Stmt) -> Option<(Cause, ErrCode, Option<String>)> {
    let CdwError::BulkAbort {
        cause, position, ..
    } = err
    else {
        return None;
    };
    let field = match dml {
        Stmt::Insert(Insert {
            source: InsertSource::Values(rows),
            ..
        }) => position.and_then(|pos| rows.first()?.get(pos)?.placeholders().into_iter().next()),
        _ => None,
    };
    Some((*cause, cause.code(), field))
}
