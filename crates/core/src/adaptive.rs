//! Adaptive error handling (paper §7, Figure 6).
//!
//! The CDW aborts a whole set-oriented statement on the first bad tuple
//! without identifying it. To recover legacy tuple-level error reporting,
//! the virtualizer recursively bisects the failing staging range:
//!
//! 1. apply the DML to `[lo, hi)`;
//! 2. on failure of a singleton range, record the tuple in the ET or UV
//!    table (with its row number) and continue — the abort's typed cause
//!    picks the table and its value position names the ET row's field;
//! 3. on failure of a wider range — if `max_errors` individual errors have
//!    already been recorded, record the *range* with code 9057 instead of
//!    splitting further; if the split depth exceeds `max_retries`, record
//!    the range with code 9058; otherwise split in half and recurse.

use std::collections::HashMap;

use etlv_cdw::error::{legacy_error, CdwError};
use etlv_cdw::Cdw;
use etlv_protocol::data::Value;
use etlv_protocol::errcode::{Cause, ErrCode};
use etlv_protocol::layout::Layout;

use crate::emulate::UniqueEmulation;
use crate::fault::{retry_cdw, RetryPolicy};
use crate::obs::JobObs;
use crate::xcompile::CompiledDml;

/// Which input rows an error record covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorRows {
    /// One row.
    Single(u64),
    /// An inclusive row range `(first, last)` that was not split further.
    Range(u64, u64),
}

/// One recorded application error.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedError {
    /// Legacy error code (3103 conversion, 2794 uniqueness, 9057/9058
    /// range records).
    pub code: ErrCode,
    /// Offending field, when attributable.
    pub field: Option<String>,
    /// Human-readable message (the Figure 6 `ErrorMessage` column).
    pub message: String,
    /// Covered rows.
    pub rows: ErrorRows,
    /// The staging tuple (layout fields, without `__SEQ`) for UV records.
    pub uv_tuple: Option<Vec<Value>>,
}

/// Adaptive-application parameters (the paper's user controls).
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveParams {
    /// Maximum individual errors to record before switching to range
    /// records (0 = unlimited).
    pub max_errors: u64,
    /// Maximum split depth before giving up on a range.
    pub max_retries: u32,
    /// Retry policy for transient CDW failures. Only
    /// [`CdwError::is_retryable`] errors are retried; bulk aborts still
    /// flow straight to the adaptive splitter.
    pub retry: RetryPolicy,
    /// Seed for retry backoff jitter.
    pub retry_seed: u64,
}

impl Default for AdaptiveParams {
    fn default() -> Self {
        AdaptiveParams {
            max_errors: 0,
            max_retries: 64,
            retry: RetryPolicy::default(),
            retry_seed: 0,
        }
    }
}

/// Outcome of adaptive application.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveOutcome {
    /// Rows successfully applied.
    pub applied: u64,
    /// Errors recorded, in discovery order.
    pub errors: Vec<RecordedError>,
    /// Number of range splits performed.
    pub splits: u64,
    /// CDW statements issued (DML attempts + emulation checks + row
    /// fetches) — the cost the paper's Figure 11 measures. Transient
    /// retries of the same statement are not counted again.
    pub statements: u64,
    /// Transient CDW failures absorbed by retry during application.
    pub transient_retries: u64,
}

/// Apply `compiled` to staging rows `[lo, hi)` with adaptive error
/// handling. `obs` (when supplied) journals every bisection decision and
/// range failure under the owning job's token. The layout is not read:
/// staged rows and aborts carry their values by position.
#[allow(clippy::too_many_arguments)]
pub fn apply_adaptive(
    cdw: &Cdw,
    compiled: &CompiledDml,
    emulation: Option<&UniqueEmulation>,
    _layout: &Layout,
    lo: u64,
    hi: u64,
    params: AdaptiveParams,
    obs: Option<&JobObs>,
) -> Result<AdaptiveOutcome, CdwError> {
    let mut job = Bisection {
        cdw,
        compiled,
        emulation,
        params,
        obs,
        job_range: (lo, hi),
        staged: None,
        individual_errors: 0,
        outcome: AdaptiveOutcome::default(),
    };
    job.recurse(lo, hi, 0, false)?;
    Ok(job.outcome)
}

/// What one job's bisection shares across its recursion.
struct Bisection<'a> {
    cdw: &'a Cdw,
    compiled: &'a CompiledDml,
    emulation: Option<&'a UniqueEmulation>,
    params: AdaptiveParams,
    obs: Option<&'a JobObs<'a>>,
    /// The job's whole staging range `[lo, hi)`.
    job_range: (u64, u64),
    /// Snapshot of the staging rows keyed by `__SEQ`, fetched at the first
    /// UV record.
    staged: Option<HashMap<u64, Vec<Value>>>,
    /// Individual (non-range) errors recorded so far: `max_errors` is
    /// checked at every failing range, so it is counted, not rescanned.
    individual_errors: u64,
    outcome: AdaptiveOutcome,
}

impl Bisection<'_> {
    /// The staging tuple of row `seq`, for its UV record.
    ///
    /// Fetching the whole staging range once costs one statement instead
    /// of one per UV row — the difference matters at high error rates
    /// (Figure 11).
    fn tuple(&mut self, seq: u64) -> Result<Vec<Value>, CdwError> {
        if self.staged.is_none() {
            self.outcome.statements += 1;
            let (lo, hi) = self.job_range;
            let scan = self.compiled.staging_scan(Some(lo), Some(hi));
            let cdw = self.cdw;
            let result = retry_cdw(
                self.params.retry,
                self.params.retry_seed ^ 0x5ca9,
                &mut self.outcome.transient_retries,
                || cdw.execute_stmt(&scan),
            )?;
            let mut map = HashMap::with_capacity(result.rows.len());
            for row in result.rows {
                if let Some(Value::Int(s)) = row.first() {
                    map.insert(*s as u64, row[1..].to_vec());
                }
            }
            self.staged = Some(map);
        }
        Ok(self
            .staged
            .as_ref()
            .expect("populated above")
            .get(&seq)
            .cloned()
            .unwrap_or_default())
    }

    /// Apply `[lo, hi)`, bisecting on a bulk abort.
    ///
    /// `unique_clean` is probe inheritance: an ancestor range's uniqueness
    /// probe counted zero violations and only its DML aborted (a conversion
    /// error). Then no row of that ancestor collides with the target as it
    /// was, its keys are pairwise distinct, and the target has since gained
    /// only rows of that same ancestor — so every sub-range is unique-clean
    /// and goes straight to its DML. The one assumption: no other writer
    /// inserts into the target mid-job, which probe-then-insert does not
    /// protect against either.
    fn recurse(
        &mut self,
        lo: u64,
        hi: u64,
        depth: u32,
        mut unique_clean: bool,
    ) -> Result<(), CdwError> {
        if lo >= hi {
            return Ok(());
        }
        let err = match self.try_apply_range(lo, hi, &mut unique_clean) {
            Ok(applied) => {
                self.outcome.applied += applied;
                return Ok(());
            }
            Err(err) if err.is_bulk_abort() => err,
            // Structural failures (missing tables, SQL errors) abort the job.
            Err(err) => return Err(err),
        };
        if let Some(obs) = self.obs {
            obs.range_error(lo, hi - 1);
        }
        if hi - lo == 1 {
            let record = record_error(self.compiled, lo, err, || self.tuple(lo))?;
            self.outcome.errors.push(record);
            self.individual_errors += 1;
            return Ok(());
        }
        let limit =
            if self.params.max_errors > 0 && self.individual_errors >= self.params.max_errors {
                Some((ErrCode::MAX_ERRORS, "errors"))
            } else if depth >= self.params.max_retries {
                Some((ErrCode::MAX_RETRIES, "retries"))
            } else {
                None
            };
        if let Some((code, what)) = limit {
            self.outcome.errors.push(RecordedError {
                code,
                field: None,
                message: format!(
                    "Max number of {what} reached during DML on {}, row numbers: ({}, {})",
                    self.compiled.target.dotted(),
                    lo,
                    hi - 1
                ),
                rows: ErrorRows::Range(lo, hi - 1),
                uv_tuple: None,
            });
            return Ok(());
        }
        self.outcome.splits += 1;
        if let Some(obs) = self.obs {
            obs.split(lo, hi - 1);
        }
        let mid = lo + (hi - lo) / 2;
        self.recurse(lo, mid, depth + 1, unique_clean)?;
        self.recurse(mid, hi, depth + 1, unique_clean)
    }

    /// One application attempt: emulated uniqueness pre-check (unless
    /// `unique_clean` is inherited; a check that counts zero sets it),
    /// then the range-restricted DML. A check that aborts on a bad key
    /// value fails a wider range as it is; a single row runs its DML,
    /// which evaluates the same key projections among its values in
    /// order, so its own abort names the row's first failing value, as
    /// the legacy system would. Transient CDW failures are retried
    /// in place — both statements are safe to re-issue (the pre-check is a
    /// read, the DML validates every tuple before mutating) — so
    /// infrastructure blips never masquerade as data errors and trigger a
    /// pointless bisection.
    fn try_apply_range(
        &mut self,
        lo: u64,
        hi: u64,
        unique_clean: &mut bool,
    ) -> Result<u64, CdwError> {
        let cdw = self.cdw;
        let params = self.params;
        let seed = params.retry_seed ^ lo ^ (hi << 20);
        if let (Some(emu), false) = (self.emulation, *unique_clean) {
            self.outcome.statements += 1;
            let check = retry_cdw(
                params.retry,
                seed,
                &mut self.outcome.transient_retries,
                || emu.violations_in_range(cdw, lo, hi),
            );
            match check {
                Ok(0) => *unique_clean = true,
                Ok(_) => return Err(emu.violation_error()),
                Err(e) if !e.is_bulk_abort() || hi - lo > 1 => return Err(e),
                Err(_) => {}
            }
        }
        self.outcome.statements += 1;
        let stmt = self.compiled.range_stmt(Some(lo), Some(hi));
        retry_cdw(
            params.retry,
            seed ^ 1,
            &mut self.outcome.transient_retries,
            || cdw.execute_stmt(&stmt),
        )
        .map(|r| r.affected)
    }
}

/// The record of row `seq`, whose one-row statement aborted with `err` —
/// one rule for both application strategies. A uniqueness abort is a UV
/// record carrying the staging tuple (`uv_tuple` is called only then);
/// any other statement abort is Figure 6's 3103 record, naming the field
/// the failing value came from. Anything but a statement abort is
/// structural and returned as the job's error.
pub(crate) fn record_error(
    compiled: &CompiledDml,
    seq: u64,
    err: CdwError,
    uv_tuple: impl FnOnce() -> Result<Vec<Value>, CdwError>,
) -> Result<RecordedError, CdwError> {
    let Some((cause, _, field)) = legacy_error(&err, &compiled.original) else {
        return Err(err);
    };
    let target = compiled.target.dotted();
    let (code, what, uv_tuple) = match cause {
        Cause::Uniqueness => (
            ErrCode::UNIQUENESS,
            "Duplicate row violates unique constraint",
            Some(uv_tuple()?),
        ),
        Cause::Date => (ErrCode::DML_CONVERSION, "DATE conversion failed", None),
        _ => (ErrCode::DML_CONVERSION, "Conversion failed", None),
    };
    Ok(RecordedError {
        code,
        field,
        message: format!("{what} during DML on {target}, row number: {seq}"),
        rows: ErrorRows::Single(seq),
        uv_tuple,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulate;
    use crate::xcompile::{compile_dml, staging_ddl};
    use etlv_protocol::data::LegacyType as T;

    fn setup() -> (Cdw, CompiledDml, Layout) {
        let cdw = Cdw::new();
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
        (cdw, compiled, layout)
    }

    /// The Figure 5(a) data file.
    fn stage_figure5(cdw: &Cdw) {
        for (seq, id, name, date) in [
            (1, "123", "Smith", "2012-01-01"),
            (2, "456", "Brown", "xxxx"),
            (3, "789", "Brown", "yyyyy"),
            (4, "123", "Jones", "2012-12-01"),
            (5, "157", "Jones", "2012-12-01"),
        ] {
            cdw.execute(&format!(
                "INSERT INTO STG VALUES ({seq}, '{id}', '{name}', '{date}')"
            ))
            .unwrap();
        }
    }

    #[test]
    fn clean_data_applies_in_one_statement() {
        let (cdw, compiled, layout) = setup();
        for seq in 1..=4u64 {
            cdw.execute(&format!(
                "INSERT INTO STG VALUES ({seq}, 'id{seq}', 'n', '2012-01-0{seq}')"
            ))
            .unwrap();
        }
        let emu = emulate::plan(&cdw, &compiled).unwrap();
        let outcome = apply_adaptive(
            &cdw,
            &compiled,
            emu.as_ref(),
            &layout,
            1,
            5,
            AdaptiveParams::default(),
            None,
        )
        .unwrap();
        assert_eq!(outcome.applied, 4);
        assert!(outcome.errors.is_empty());
        assert_eq!(outcome.splits, 0);
        // One emulation check + one insert; the staging cache is never
        // materialized on the clean path.
        assert_eq!(outcome.statements, 2);
    }

    #[test]
    fn transient_faults_are_retried_not_bisected() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        use std::time::Duration;

        let (cdw, compiled, layout) = setup();
        for seq in 1..=4u64 {
            cdw.execute(&format!(
                "INSERT INTO STG VALUES ({seq}, 'id{seq}', 'n', '2012-01-0{seq}')"
            ))
            .unwrap();
        }
        let emu = emulate::plan(&cdw, &compiled).unwrap();
        let remaining = Arc::new(AtomicU32::new(2));
        let hook = {
            let remaining = Arc::clone(&remaining);
            Arc::new(move || {
                remaining
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                    .is_ok()
            })
        };
        cdw.set_transient_fault(Some(hook));
        let params = AdaptiveParams {
            retry: RetryPolicy {
                budget: 4,
                base: Duration::from_micros(10),
                cap: Duration::from_micros(100),
            },
            ..AdaptiveParams::default()
        };
        let outcome =
            apply_adaptive(&cdw, &compiled, emu.as_ref(), &layout, 1, 5, params, None).unwrap();
        // The two injected blips are absorbed in place: same statement
        // count as the clean path, no bisection, no recorded errors.
        assert_eq!(outcome.applied, 4);
        assert!(outcome.errors.is_empty());
        assert_eq!(outcome.splits, 0);
        assert_eq!(outcome.statements, 2);
        assert_eq!(outcome.transient_retries, 2);
    }

    #[test]
    fn transient_faults_beyond_budget_surface() {
        use std::time::Duration;

        let (cdw, compiled, layout) = setup();
        stage_figure5(&cdw);
        cdw.set_transient_fault(Some(std::sync::Arc::new(|| true)));
        let params = AdaptiveParams {
            retry: RetryPolicy {
                budget: 2,
                base: Duration::from_micros(10),
                cap: Duration::from_micros(100),
            },
            ..AdaptiveParams::default()
        };
        let result = apply_adaptive(&cdw, &compiled, None, &layout, 1, 6, params, None);
        assert!(matches!(result, Err(CdwError::Transient(_))));
    }

    #[test]
    fn figure5_unlimited_errors() {
        let (cdw, compiled, layout) = setup();
        stage_figure5(&cdw);
        let emu = emulate::plan(&cdw, &compiled).unwrap();
        let outcome = apply_adaptive(
            &cdw,
            &compiled,
            emu.as_ref(),
            &layout,
            1,
            6,
            AdaptiveParams::default(),
            None,
        )
        .unwrap();
        // Rows 1 and 5 load; 2,3 conversion errors; 4 uniqueness.
        assert_eq!(outcome.applied, 2);
        assert_eq!(outcome.errors.len(), 3);
        let singles: Vec<(u64, ErrCode)> = outcome
            .errors
            .iter()
            .map(|e| match e.rows {
                ErrorRows::Single(s) => (s, e.code),
                ErrorRows::Range(a, _) => (a, e.code),
            })
            .collect();
        assert!(singles.contains(&(2, ErrCode::DML_CONVERSION)));
        assert!(singles.contains(&(3, ErrCode::DML_CONVERSION)));
        assert!(singles.contains(&(4, ErrCode::UNIQUENESS)));
        let uv: Vec<_> = outcome
            .errors
            .iter()
            .filter(|e| e.uv_tuple.is_some())
            .collect();
        assert_eq!(uv.len(), 1);
        assert_eq!(
            uv[0].uv_tuple.as_ref().unwrap()[1],
            Value::Str("Jones".into())
        );
        assert_eq!(cdw.table_len("PROD.CUSTOMER").unwrap(), 2);
    }

    #[test]
    fn figure6_max_errors_2() {
        let (cdw, compiled, layout) = setup();
        stage_figure5(&cdw);
        let emu = emulate::plan(&cdw, &compiled).unwrap();
        let outcome = apply_adaptive(
            &cdw,
            &compiled,
            emu.as_ref(),
            &layout,
            1,
            6,
            AdaptiveParams {
                max_errors: 2,
                ..AdaptiveParams::default()
            },
            None,
        )
        .unwrap();
        // Figure 6: rows 2 and 3 recorded individually as 3103, then the
        // remaining range (4, 5) recorded once as 9057.
        assert_eq!(outcome.errors.len(), 3);
        assert_eq!(outcome.errors[0].code, ErrCode::DML_CONVERSION);
        assert_eq!(outcome.errors[0].rows, ErrorRows::Single(2));
        assert_eq!(outcome.errors[0].field.as_deref(), Some("JOIN_DATE"));
        assert!(
            outcome.errors[0]
                .message
                .contains("DATE conversion failed during DML on PROD.CUSTOMER, row number: 2"),
            "{}",
            outcome.errors[0].message
        );
        assert_eq!(outcome.errors[1].rows, ErrorRows::Single(3));
        assert_eq!(outcome.errors[2].code, ErrCode::MAX_ERRORS);
        assert_eq!(outcome.errors[2].rows, ErrorRows::Range(4, 5));
        assert!(
            outcome.errors[2].message.contains("row numbers: (4, 5)"),
            "{}",
            outcome.errors[2].message
        );
        // Only row 1 applied (rows 4/5 were lumped into the range record).
        assert_eq!(outcome.applied, 1);
    }

    #[test]
    fn max_retries_limits_depth() {
        let (cdw, compiled, layout) = setup();
        stage_figure5(&cdw);
        let emu = emulate::plan(&cdw, &compiled).unwrap();
        let outcome = apply_adaptive(
            &cdw,
            &compiled,
            emu.as_ref(),
            &layout,
            1,
            6,
            AdaptiveParams {
                max_retries: 1,
                ..AdaptiveParams::default()
            },
            None,
        )
        .unwrap();
        // Depth 1 means at most one split: sub-ranges still failing get
        // 9058 range records instead of reaching singletons.
        assert!(outcome
            .errors
            .iter()
            .any(|e| e.code == ErrCode::MAX_RETRIES));
        // Every range record is a depth-limit record (never a 9057
        // max-errors record — the error budget here is unlimited).
        assert!(outcome
            .errors
            .iter()
            .all(|e| matches!(e.rows, ErrorRows::Single(_)) || e.code == ErrCode::MAX_RETRIES));
    }

    #[test]
    fn empty_range_is_noop() {
        let (cdw, compiled, layout) = setup();
        let emu = emulate::plan(&cdw, &compiled).unwrap();
        let outcome = apply_adaptive(
            &cdw,
            &compiled,
            emu.as_ref(),
            &layout,
            5,
            5,
            AdaptiveParams::default(),
            None,
        )
        .unwrap();
        assert_eq!(outcome.applied, 0);
        assert_eq!(outcome.statements, 0);
    }

    #[test]
    fn structural_error_propagates() {
        let (cdw, _, layout) = setup();
        let broken = compile_dml(
            "insert into NO_SUCH_TABLE values (:CUST_ID, :CUST_NAME, :JOIN_DATE)",
            &layout,
            "STG",
        )
        .unwrap();
        stage_figure5(&cdw);
        let result = apply_adaptive(
            &cdw,
            &broken,
            None,
            &layout,
            1,
            6,
            AdaptiveParams::default(),
            None,
        );
        assert!(matches!(result, Err(CdwError::TableNotFound(_))));
    }
}
