//! Adaptive error handling (paper §7, Figure 6).
//!
//! The CDW aborts a whole set-oriented statement on the first bad tuple.
//! To recover legacy tuple-level error reporting, the virtualizer applies
//! the staging range in stretches and cuts each failing one where it
//! fails, recording errors in row order:
//!
//! 1. With uniqueness emulated, the range's probe lists the rows that
//!    collide with the target or repeat an earlier row's key. Each starts
//!    a stretch that leaves it out of its DML, and is confirmed once the
//!    rows before it are applied: it is a UV record if it still collides,
//!    an ET record if its values do not convert (the legacy system
//!    evaluates a row's values before its key), and applied otherwise.
//! 2. An abort that names its failing row `f` cuts the stretch there: the
//!    stretch is retried without `f`, and `f` is recorded from the abort
//!    itself — the typed cause picks the table and the value position
//!    names the ET row's field. A second named row resolves the rows up to
//!    the first of the two before going on.
//! 3. An abort that names no row (a value too long for its target column,
//!    NOT NULL, a native uniqueness violation, a passthrough DML) falls
//!    back to the paper's blind bisection: halve and recurse down to a
//!    single row, which is recorded. Past `max_retries` halvings the
//!    failing range is one 9058 record; a cut at a named row costs no
//!    depth.
//! 4. Once `max_errors` individual errors are recorded, the next error row
//!    and every row after it are one 9057 range record; no row past a
//!    possible error is applied while that error could be the one.
//!
//! So each error row costs one or two statements, not one per bisection
//! level.

use std::collections::HashMap;

use etlv_cdw::error::{legacy_error, CdwError};
use etlv_cdw::Cdw;
use etlv_protocol::data::Value;
use etlv_protocol::errcode::{Cause, ErrCode};

use crate::emulate::UniqueEmulation;
use crate::fault::{retry_cdw, RetryPolicy};
use crate::obs::JobObs;
use crate::xcompile::{CompiledDml, DmlKind};

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
    /// Maximum halving depth before giving up on a range that fails
    /// without naming its row.
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
    /// Errors recorded, in row order.
    pub errors: Vec<RecordedError>,
    /// Cuts performed: a failing range cut at the row its abort named or
    /// at a row its probe listed, or halved.
    pub splits: u64,
    /// CDW statements issued (DML attempts + emulation checks + row
    /// fetches) — the cost the paper's Figure 11 measures. Transient
    /// retries of the same statement are not counted again.
    pub statements: u64,
    /// Transient CDW failures absorbed by retry during application.
    pub transient_retries: u64,
}

/// Apply `compiled` to staging rows `[lo, hi)` with adaptive error
/// handling. `obs` (when supplied) journals every cut and range failure
/// under the owning job's token.
pub fn apply_adaptive(
    cdw: &Cdw,
    compiled: &CompiledDml,
    emulation: Option<&UniqueEmulation>,
    lo: u64,
    hi: u64,
    params: AdaptiveParams,
    obs: Option<&JobObs>,
) -> Result<AdaptiveOutcome, CdwError> {
    let mut walk = Walk {
        cdw,
        compiled,
        emulation,
        params,
        obs,
        job_range: (lo, hi),
        staged: None,
        individual_errors: 0,
        done: false,
        outcome: AdaptiveOutcome::default(),
    };
    walk.range(lo, hi, 0)?;
    Ok(walk.outcome)
}

/// A row a stretch leaves out of its DML attempts, resolved once every
/// row before it is: a row the probe listed (`None`: confirm it) or a row
/// an abort named (`Some`: that abort).
type Pending = (u64, Option<CdwError>);

/// What one job's walk shares across its recursion.
struct Walk<'a> {
    cdw: &'a Cdw,
    compiled: &'a CompiledDml,
    emulation: Option<&'a UniqueEmulation>,
    params: AdaptiveParams,
    obs: Option<&'a JobObs<'a>>,
    /// The job's whole staging range `[lo, hi)`.
    job_range: (u64, u64),
    /// Snapshot of the staging rows keyed by `__SEQ`, fetched at the first
    /// UV record no confirmation carried its tuple to (a native uniqueness
    /// abort).
    staged: Option<HashMap<u64, Vec<Value>>>,
    /// Individual (non-range) errors recorded so far.
    individual_errors: u64,
    /// Set by the 9057 record, which covers the rest of the job.
    done: bool,
    outcome: AdaptiveOutcome,
}

impl Walk<'_> {
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
            for row in result.rows.iter() {
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

    /// Individual errors that may still be recorded before `max_errors`.
    fn room(&self) -> u64 {
        match self.params.max_errors {
            0 => u64::MAX,
            max => max.saturating_sub(self.individual_errors),
        }
    }

    /// Count and journal one cut of the failing range `[lo, hi)`.
    fn cut(&mut self, lo: u64, hi: u64) {
        self.outcome.splits += 1;
        if let Some(obs) = self.obs {
            obs.split(lo, hi - 1);
        }
    }

    /// Record row `seq`, every row before it resolved: by the rule
    /// [`record_error`] shares with singleton application (`uv_tuple`
    /// saves a UV record its fetch), or — past `max_errors` — as the first
    /// row of the 9057 record that ends the job.
    fn record(
        &mut self,
        seq: u64,
        err: CdwError,
        uv_tuple: Option<Vec<Value>>,
    ) -> Result<(), CdwError> {
        if self.done {
            return Ok(());
        }
        if self.room() == 0 && err.is_bulk_abort() {
            self.push_range(ErrCode::MAX_ERRORS, seq, self.job_range.1);
            self.done = true;
            return Ok(());
        }
        let compiled = self.compiled;
        let record = record_error(compiled, seq, err, || match uv_tuple {
            Some(tuple) => Ok(tuple),
            None => self.tuple(seq),
        })?;
        self.outcome.errors.push(record);
        self.individual_errors += 1;
        Ok(())
    }

    /// Record `[lo, hi)` as one range record with `code` (9057 or 9058).
    fn push_range(&mut self, code: ErrCode, lo: u64, hi: u64) {
        let what = if code == ErrCode::MAX_ERRORS {
            "errors"
        } else {
            "retries"
        };
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
    }

    /// Apply `[lo, hi)`, whose rows may collide with the target or with
    /// each other: probe it, then run it as stretches that each leave out
    /// one of the rows the probe lists and confirm it afterwards.
    fn range(&mut self, lo: u64, hi: u64, depth: u32) -> Result<(), CdwError> {
        if lo >= hi || self.done {
            return Ok(());
        }
        let Some(emu) = self.emulation else {
            return self.stretch(lo, hi, depth, Vec::new());
        };
        let cdw = self.cdw;
        self.outcome.statements += 1;
        let listed = retry_cdw(
            self.params.retry,
            self.params.retry_seed ^ lo ^ (hi << 20),
            &mut self.outcome.transient_retries,
            || emu.violations_in_range(cdw, lo, hi),
        );
        let listed = match listed {
            Ok(listed) => listed,
            Err(err) if err.is_bulk_abort() => return self.probe_aborted(lo, hi, depth),
            Err(err) => return Err(err),
        };
        if !listed.is_empty() {
            if let Some(obs) = self.obs {
                obs.range_error(lo, hi - 1);
            }
        }
        // Each listed row is left out of the stretch it starts (the first
        // stretch starts at `lo`), which ends where the next one starts.
        let mut start = lo;
        let ends = listed.iter().skip(1).copied().chain([hi]);
        for (&seq, end) in listed.iter().zip(ends) {
            self.cut(seq, seq + 1);
            self.stretch(start, end, depth, vec![(seq, None)])?;
            start = end;
        }
        self.stretch(start, hi, depth, Vec::new())
    }

    /// `[lo, hi)`'s probe aborted on a key value. The DML evaluates the
    /// same key projections, so it aborts too and names the failing row;
    /// the rows on either side are probed again.
    fn probe_aborted(&mut self, lo: u64, hi: u64, depth: u32) -> Result<(), CdwError> {
        let Some(err) = self.attempt(lo, hi, &[])? else {
            return Ok(());
        };
        match self.named(&err, lo, hi, &[]) {
            Some(row) => {
                self.cut(lo, hi);
                self.range(lo, row, depth)?;
                self.record(row, err, None)?;
                self.range(row + 1, hi, depth)
            }
            None => self.bisect(lo, hi, depth, Vec::new(), err, false),
        }
    }

    /// Apply the stretch `[lo, hi)` of rows that collide with nothing,
    /// except its `pending` rows (ascending), which are resolved in row
    /// order once the rest is applied. A row a `pending` listed row repeats
    /// lies before it, so applying the rows after it first changes nothing
    /// for it; but no row past a possible error is applied while that
    /// error could be the one past `max_errors`.
    fn stretch(
        &mut self,
        lo: u64,
        hi: u64,
        depth: u32,
        mut pending: Vec<Pending>,
    ) -> Result<(), CdwError> {
        loop {
            if lo >= hi || self.done {
                return Ok(());
            }
            let strict = pending.len() as u64 > self.room();
            if !pending.is_empty() && (strict || pending.len() as u64 == hi - lo) {
                let rest = pending.split_off(1);
                let (seq, abort) = pending.pop().expect("one pending row");
                self.stretch(lo, seq, depth, Vec::new())?;
                self.resolve((seq, abort))?;
                return self.stretch(seq + 1, hi, depth, rest);
            }
            let skip: Vec<u64> = pending.iter().map(|(seq, _)| *seq).collect();
            let Some(err) = self.attempt(lo, hi, &skip)? else {
                for row in pending {
                    self.resolve(row)?;
                }
                return Ok(());
            };
            let Some(row) = self.named(&err, lo, hi, &skip) else {
                return self.bisect(lo, hi, depth, pending, err, true);
            };
            self.cut(lo, hi);
            let known = pending.iter().position(|(_, abort)| abort.is_some());
            let at = pending.partition_point(|(seq, _)| *seq < row);
            pending.insert(at, (row, Some(err)));
            let Some(known) = known else {
                // Retry without the failing row.
                continue;
            };
            // Two rows known to fail: resolve the rows up to the first.
            let first = if known < at { known } else { at };
            let after = pending.split_off(first + 1);
            let (seq, abort) = pending.pop().expect("the first failing row");
            self.stretch(lo, seq, depth, pending)?;
            self.resolve((seq, abort))?;
            return self.stretch(seq + 1, hi, depth, after);
        }
    }

    /// Resolve a pending row, every row before it resolved.
    fn resolve(&mut self, (seq, abort): Pending) -> Result<(), CdwError> {
        if let Some(err) = abort {
            return self.record(seq, err, None);
        }
        if self.done {
            return Ok(());
        }
        let emu = self.emulation.expect("only a probe lists rows");
        let cdw = self.cdw;
        self.outcome.statements += 1;
        let confirmed = retry_cdw(
            self.params.retry,
            self.params.retry_seed ^ seq,
            &mut self.outcome.transient_retries,
            || emu.confirm(cdw, seq),
        );
        match confirmed {
            Ok(Some(tuple)) => self.record(seq, emu.violation_error(), Some(tuple)),
            Ok(None) => match self.attempt(seq, seq + 1, &[])? {
                Some(err) => self.record(seq, err, None),
                None => Ok(()),
            },
            Err(err) => self.record(seq, err, None),
        }
    }

    /// `[lo, hi)` (except its `pending` rows) aborted with `err`, which
    /// names no row: record a single row, give up past `max_retries`
    /// halvings, or halve — each half a stretch if `clean`, else probed
    /// again.
    fn bisect(
        &mut self,
        lo: u64,
        hi: u64,
        depth: u32,
        mut pending: Vec<Pending>,
        err: CdwError,
        clean: bool,
    ) -> Result<(), CdwError> {
        if hi - lo == 1 {
            return self.record(lo, err, None);
        }
        if depth >= self.params.max_retries {
            self.push_range(ErrCode::MAX_RETRIES, lo, hi);
            return Ok(());
        }
        self.cut(lo, hi);
        let mid = lo + (hi - lo) / 2;
        let right = pending.split_off(pending.partition_point(|(seq, _)| *seq < mid));
        if clean {
            self.stretch(lo, mid, depth + 1, pending)?;
            self.stretch(mid, hi, depth + 1, right)
        } else {
            self.range(lo, mid, depth + 1)?;
            self.range(mid, hi, depth + 1)
        }
    }

    /// Run the DML over `[lo, hi)` except `skip`. `Ok(None)` when it
    /// applied; `Ok(Some(abort))` when a row aborted it. Transient CDW
    /// failures are retried in place — the statement validates every
    /// tuple before mutating, so it is safe to re-issue — so
    /// infrastructure blips never masquerade as data errors.
    fn attempt(&mut self, lo: u64, hi: u64, skip: &[u64]) -> Result<Option<CdwError>, CdwError> {
        self.outcome.statements += 1;
        // Skipped rows at either end narrow the range instead, so the
        // range seek still consumes the whole filter.
        let (mut from, mut to, mut skip) = (lo, hi, skip);
        while let [first, rest @ ..] = skip {
            if *first != from {
                break;
            }
            (from, skip) = (from + 1, rest);
        }
        while let [rest @ .., last] = skip {
            if *last + 1 != to {
                break;
            }
            (to, skip) = (to - 1, rest);
        }
        let stmt = self
            .compiled
            .range_stmt_skipping(Some(from), Some(to), skip);
        let cdw = self.cdw;
        let seed = self.params.retry_seed ^ lo ^ (hi << 20) ^ 1;
        match retry_cdw(
            self.params.retry,
            seed,
            &mut self.outcome.transient_retries,
            || cdw.execute_stmt(&stmt),
        ) {
            Ok(result) => {
                self.outcome.applied += result.affected;
                Ok(None)
            }
            Err(err) if err.is_bulk_abort() => {
                if let Some(obs) = self.obs {
                    obs.range_error(lo, hi - 1);
                }
                Ok(Some(err))
            }
            // Structural failures (missing tables, SQL errors) abort the job.
            Err(err) => Err(err),
        }
    }

    /// The staging row in `[lo, hi)`, outside `skip`, that `err` names.
    /// Only a row-wise DML reads the staging table alone, so only its
    /// abort's row is a `__SEQ`.
    fn named(&self, err: &CdwError, lo: u64, hi: u64, skip: &[u64]) -> Option<u64> {
        if self.compiled.kind != DmlKind::RowWise {
            return None;
        }
        let row = u64::try_from(err.failed_row()?).ok()?;
        ((lo..hi).contains(&row) && !skip.contains(&row)).then_some(row)
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
    use etlv_protocol::layout::Layout;

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
        let (cdw, compiled, _) = setup();
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

        let (cdw, compiled, _) = setup();
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
        let outcome = apply_adaptive(&cdw, &compiled, emu.as_ref(), 1, 5, params, None).unwrap();
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

        let (cdw, compiled, _) = setup();
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
        let result = apply_adaptive(&cdw, &compiled, None, 1, 6, params, None);
        assert!(matches!(result, Err(CdwError::Transient(_))));
    }

    #[test]
    fn figure5_unlimited_errors() {
        let (cdw, compiled, _) = setup();
        stage_figure5(&cdw);
        let emu = emulate::plan(&cdw, &compiled).unwrap();
        let outcome = apply_adaptive(
            &cdw,
            &compiled,
            emu.as_ref(),
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
        let (cdw, compiled, _) = setup();
        stage_figure5(&cdw);
        let emu = emulate::plan(&cdw, &compiled).unwrap();
        let outcome = apply_adaptive(
            &cdw,
            &compiled,
            emu.as_ref(),
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
        // Names too long for their target column fail the insert's
        // coercion, whose abort names no row: the walk halves.
        let (cdw, _, layout) = setup();
        cdw.execute(
            "CREATE TABLE PROD.NARROW (CUST_ID VARCHAR(5), CUST_NAME VARCHAR(4), JOIN_DATE DATE, PRIMARY KEY (CUST_ID))",
        )
        .unwrap();
        let compiled = compile_dml(
            "insert into PROD.NARROW values (trim(:CUST_ID), trim(:CUST_NAME), cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'))",
            &layout,
            "STG",
        )
        .unwrap();
        for (seq, name) in [
            (1, "Ann"),
            (2, "Smith"),
            (3, "Bob"),
            (4, "Jones"),
            (5, "Eve"),
        ] {
            cdw.execute(&format!(
                "INSERT INTO STG VALUES ({seq}, 'id{seq}', '{name}', '2012-01-01')"
            ))
            .unwrap();
        }
        let emu = emulate::plan(&cdw, &compiled).unwrap();
        let outcome = apply_adaptive(
            &cdw,
            &compiled,
            emu.as_ref(),
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
        let (cdw, compiled, _) = setup();
        let emu = emulate::plan(&cdw, &compiled).unwrap();
        let outcome = apply_adaptive(
            &cdw,
            &compiled,
            emu.as_ref(),
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
        let result = apply_adaptive(&cdw, &broken, None, 1, 6, AdaptiveParams::default(), None);
        assert!(matches!(result, Err(CdwError::TableNotFound(_))));
    }
}
