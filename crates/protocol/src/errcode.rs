//! The legacy error-code table.
//!
//! These numeric codes appear in error tables and client reports. The values
//! for data/DML errors match the ones used in the paper's Figures 5 and 6:
//! `2666` (invalid date in acquisition), `2794` (uniqueness violation),
//! `3103` (conversion failure during DML application), and `9057`
//! (max-errors limit reached; a row *range* could not be processed).
//! [`Cause`] is the typed class of a statement abort; [`Cause::code`]
//! maps it to the per-tuple code.

use std::fmt;

/// A legacy error code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ErrCode(pub u16);

impl ErrCode {
    /// Invalid value for the field's declared type, detected during data
    /// acquisition (e.g. a non-numeric string in an INTEGER field).
    pub const BAD_VALUE: ErrCode = ErrCode(2665);
    /// Invalid date encountered while converting a field (Figure 5's
    /// `ERRCODE` for the bad `JOIN_DATE` rows).
    pub const BAD_DATE: ErrCode = ErrCode(2666);
    /// Numeric overflow for the target type.
    pub const NUMERIC_OVERFLOW: ErrCode = ErrCode(2616);
    /// String too long for the target column.
    pub const STRING_TOO_LONG: ErrCode = ErrCode(2667);
    /// Wrong number of fields in an input record.
    pub const FIELD_COUNT: ErrCode = ErrCode(2673);
    /// Uniqueness-constraint violation (Figure 5's duplicate `CUST_ID`).
    pub const UNIQUENESS: ErrCode = ErrCode(2794);
    /// Conversion failure during the DML application phase (Figure 6).
    pub const DML_CONVERSION: ErrCode = ErrCode(3103);
    /// Generic DML failure during the application phase.
    pub const DML_FAILURE: ErrCode = ErrCode(3104);
    /// The configured `max_errors` limit was reached; a residual row range
    /// was recorded instead of individual rows (Figure 6's final row).
    pub const MAX_ERRORS: ErrCode = ErrCode(9057);
    /// The configured `max_retries` split limit was reached for a chunk.
    pub const MAX_RETRIES: ErrCode = ErrCode(9058);

    // Protocol/session-level failures (never recorded in error tables).

    /// Authentication failure at logon.
    pub const LOGON_FAILED: ErrCode = ErrCode(8017);
    /// Malformed or out-of-sequence protocol message.
    pub const PROTOCOL: ErrCode = ErrCode(8020);
    /// SQL statement failed to parse or execute.
    pub const SQL_ERROR: ErrCode = ErrCode(3807);
    /// The virtualizer node ran out of memory for in-flight data
    /// (reproduces the paper's Figure 10 one-million-credit crash as a
    /// reportable error).
    pub const OUT_OF_MEMORY: ErrCode = ErrCode(8998);
    /// The server is at capacity (session table full or the concurrent-job
    /// admission limit reached). Retryable: clients back off and resubmit
    /// with the deterministic schedule in [`crate::backoff`].
    pub const SERVER_BUSY: ErrCode = ErrCode(8055);
    /// The server is draining or shutting down and no longer admits new
    /// sessions or jobs. Not retryable against the same node.
    pub const SHUTTING_DOWN: ErrCode = ErrCode(8056);
    /// The session sat idle past the server's configured idle timeout and
    /// was closed (legacy clients refresh with `Keepalive`).
    pub const IDLE_TIMEOUT: ErrCode = ErrCode(8057);
    /// Internal error.
    pub const INTERNAL: ErrCode = ErrCode(8999);

    /// Default human-readable description.
    pub fn describe(self) -> &'static str {
        match self {
            ErrCode::BAD_VALUE => "invalid value for field type",
            ErrCode::BAD_DATE => "invalid date",
            ErrCode::NUMERIC_OVERFLOW => "numeric overflow",
            ErrCode::STRING_TOO_LONG => "string exceeds column length",
            ErrCode::FIELD_COUNT => "wrong number of fields in record",
            ErrCode::UNIQUENESS => "duplicate row violates uniqueness constraint",
            ErrCode::DML_CONVERSION => "conversion failed during DML",
            ErrCode::DML_FAILURE => "DML statement failed",
            ErrCode::MAX_ERRORS => "max number of errors reached",
            ErrCode::MAX_RETRIES => "max number of retries reached",
            ErrCode::LOGON_FAILED => "logon failed",
            ErrCode::PROTOCOL => "protocol violation",
            ErrCode::SQL_ERROR => "SQL error",
            ErrCode::OUT_OF_MEMORY => "out of memory",
            ErrCode::SERVER_BUSY => "server busy, retry later",
            ErrCode::SHUTTING_DOWN => "server is shutting down",
            ErrCode::IDLE_TIMEOUT => "session idle timeout",
            ErrCode::INTERNAL => "internal error",
            _ => "unknown error",
        }
    }

    /// Whether a client should back off and retry the same request
    /// against the same node. Only admission-control rejections qualify;
    /// everything else is either fatal or job-level.
    pub fn is_retryable(self) -> bool {
        self == ErrCode::SERVER_BUSY
    }

    /// Whether this error is recorded in the *uniqueness-violation* (UV)
    /// error table rather than the general transformation (ET) table.
    pub fn is_uniqueness(self) -> bool {
        self == ErrCode::UNIQUENESS
    }
}

impl fmt::Display for ErrCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.0, self.describe())
    }
}

/// Why a set-oriented statement aborted: the typed class a real
/// warehouse reports as a SQLSTATE, named where the failure happens and
/// never parsed back out of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cause {
    /// Text is not a valid date (SQLSTATE 22007).
    Date,
    /// A string or byte value is longer than its target type (22001).
    Length,
    /// A number does not fit its target type (22003).
    Overflow,
    /// Any other value that does not convert to its target type (22018).
    Value,
    /// NULL reached a NOT NULL column (23502).
    Null,
    /// A unique or primary key would be duplicated (23505).
    Uniqueness,
    /// A staged file could not be read during COPY.
    BadFile,
}

impl Cause {
    /// The per-tuple code the legacy EDW records for this cause (Figure
    /// 5's `ERRCODE`).
    pub fn code(self) -> ErrCode {
        match self {
            Cause::Date => ErrCode::BAD_DATE,
            Cause::Length => ErrCode::STRING_TOO_LONG,
            Cause::Overflow => ErrCode::NUMERIC_OVERFLOW,
            Cause::Uniqueness => ErrCode::UNIQUENESS,
            Cause::Value | Cause::Null | Cause::BadFile => ErrCode::BAD_VALUE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_codes() {
        assert_eq!(ErrCode::BAD_DATE.0, 2666);
        assert_eq!(ErrCode::UNIQUENESS.0, 2794);
        assert_eq!(ErrCode::DML_CONVERSION.0, 3103);
        assert_eq!(ErrCode::MAX_ERRORS.0, 9057);
    }

    #[test]
    fn uv_routing() {
        assert!(ErrCode::UNIQUENESS.is_uniqueness());
        assert!(!ErrCode::BAD_DATE.is_uniqueness());
        assert!(!ErrCode::MAX_ERRORS.is_uniqueness());
        assert!(Cause::Uniqueness.code().is_uniqueness());
        assert!(!Cause::Date.code().is_uniqueness());
    }

    #[test]
    fn display_includes_code_and_text() {
        let s = ErrCode::BAD_DATE.to_string();
        assert!(s.contains("2666"));
        assert!(s.contains("invalid date"));
    }
}
