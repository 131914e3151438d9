//! DML application strategies (paper §7 and the Figure 11 baseline).

use etlv_cdw::error::CdwError;
use etlv_cdw::Cdw;
use etlv_protocol::data::Value;
use etlv_protocol::layout::Layout;
use etlv_sql::ast::Literal;
use etlv_sql::transform::bind_placeholders;

use crate::adaptive::{apply_adaptive, record_error, AdaptiveOutcome, AdaptiveParams};
use crate::emulate::UniqueEmulation;
use crate::fault::retry_cdw;
use crate::obs::JobObs;
use crate::xcompile::CompiledDml;

/// How the application phase executes the job's DML.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyStrategy {
    /// Set-oriented with adaptive error handling (the paper's design).
    BulkAdaptive,
    /// Row-at-a-time singleton inserts with immediate error logging — the
    /// baseline system of Figure 11.
    Singleton,
}

/// Apply the compiled DML to staging rows `[lo, hi)`.
#[allow(clippy::too_many_arguments)]
pub fn apply(
    cdw: &Cdw,
    compiled: &CompiledDml,
    emulation: Option<&UniqueEmulation>,
    layout: &Layout,
    lo: u64,
    hi: u64,
    strategy: ApplyStrategy,
    params: AdaptiveParams,
    obs: Option<&JobObs>,
) -> Result<AdaptiveOutcome, CdwError> {
    match strategy {
        ApplyStrategy::BulkAdaptive => {
            apply_adaptive(cdw, compiled, emulation, lo, hi, params, obs)
        }
        ApplyStrategy::Singleton => {
            apply_singleton(cdw, compiled, emulation, layout, lo, hi, params)
        }
    }
}

/// The Figure 11 baseline: fetch the staging rows once, then apply the
/// original legacy DML one tuple at a time with values bound as literals.
/// Each tuple costs at least one CDW round trip (plus one uniqueness check
/// when emulation is active), which is exactly why the paper's bulk
/// approach wins at low error rates. A tuple whose DML aborts is recorded
/// by the same rule bulk application uses. The check is the confirmation
/// bulk application runs on a listed row: a colliding tuple's values are
/// converted before its key counts. A check that aborts on a bad key value
/// defers to the DML, whose abort names the tuple's first failing value.
fn apply_singleton(
    cdw: &Cdw,
    compiled: &CompiledDml,
    emulation: Option<&UniqueEmulation>,
    layout: &Layout,
    lo: u64,
    hi: u64,
    params: AdaptiveParams,
) -> Result<AdaptiveOutcome, CdwError> {
    let mut outcome = AdaptiveOutcome::default();
    outcome.statements += 1;
    let scan = compiled.staging_scan(Some(lo), Some(hi));
    let rows = retry_cdw(
        params.retry,
        params.retry_seed ^ 0x51,
        &mut outcome.transient_retries,
        || cdw.execute_stmt(&scan),
    )?
    .rows;

    for row in rows {
        let Some(Value::Int(seq)) = row.first() else {
            return Err(CdwError::Eval("staging row without __SEQ".into()));
        };
        let seq = *seq as u64;
        let tuple = row[1..].to_vec();
        // Emulated uniqueness check for this one tuple, then its DML. One
        // statement answers the check: no collision (or a key that fails
        // to evaluate) runs the DML, which names the failing value; a
        // colliding tuple is a UV row, or the positioned record of the
        // value that fails to convert first.
        let mut attempt = || {
            if let Some(emu) = emulation {
                outcome.statements += 1;
                let confirmed = retry_cdw(
                    params.retry,
                    params.retry_seed ^ seq,
                    &mut outcome.transient_retries,
                    || emu.confirm(cdw, seq),
                );
                if confirmed?.is_some() {
                    return Err(emu.violation_error());
                }
            }
            let bound = bind_placeholders(&compiled.original, |name| {
                layout
                    .field_index(name)
                    .filter(|i| *i < tuple.len())
                    .map(|i| Literal::from_value(&tuple[i]))
            });
            outcome.statements += 1;
            retry_cdw(
                params.retry,
                params.retry_seed ^ seq ^ (1 << 32),
                &mut outcome.transient_retries,
                || cdw.execute_stmt(&bound),
            )
        };
        match attempt() {
            Ok(r) => outcome.applied += r.affected,
            Err(e) => {
                let record = record_error(compiled, seq, e, || Ok(tuple))?;
                outcome.errors.push(record);
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{ErrorRows, RecordedError};
    use crate::emulate;
    use crate::xcompile::{compile_dml, staging_ddl};
    use etlv_cdw::CdwConfig;
    use etlv_protocol::data::LegacyType as T;
    use etlv_protocol::errcode::ErrCode;

    type Job = (Cdw, CompiledDml, Layout);

    /// Create `ddl`'s target, compile `dml` and stage `rows` as `__SEQ`
    /// 1, 2, ….
    fn stage(config: &CdwConfig, ddl: &str, layout: Layout, dml: &str, rows: &[&[&str]]) -> Job {
        let cdw = Cdw::with_config(config.clone(), None);
        cdw.execute(ddl).unwrap();
        let compiled = compile_dml(dml, &layout, "STG").unwrap();
        cdw.execute(&staging_ddl("STG", &layout)).unwrap();
        for (seq, row) in (1..).zip(rows) {
            let vals = row.join("', '");
            cdw.execute(&format!("INSERT INTO STG VALUES ({seq}, '{vals}')"))
                .unwrap();
        }
        (cdw, compiled, layout)
    }

    /// The Figure 5(a) data file: rows 2 and 3 carry bad dates, row 4
    /// duplicates row 1's key.
    fn customer(config: &CdwConfig) -> Job {
        stage(
            config,
            "CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(5), CUST_NAME VARCHAR(50), JOIN_DATE DATE, PRIMARY KEY (CUST_ID))",
            Layout::new("L")
                .field("CUST_ID", T::VarChar(5))
                .field("CUST_NAME", T::VarChar(50))
                .field("JOIN_DATE", T::VarChar(10)),
            "insert into PROD.CUSTOMER values (trim(:CUST_ID), trim(:CUST_NAME), cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'))",
            &[
                &["123", "Smith", "2012-01-01"],
                &["456", "Brown", "xxxx"],
                &["789", "Brown", "yyyyy"],
                &["123", "Jones", "2012-12-01"],
                &["157", "Jones", "2012-12-01"],
            ],
        )
    }

    /// Row 2's key fails to convert; row 3's date fails before its key
    /// does; row 4's date fails and its key collides with the row the
    /// target already holds. So the uniqueness check evaluates every key,
    /// and aborts, before the DML does.
    fn bad_keys(config: &CdwConfig) -> Job {
        let job = stage(
            config,
            "CREATE TABLE PROD.K (D DATE, ID INTEGER, PRIMARY KEY (ID))",
            Layout::new("L")
                .field("D", T::VarChar(10))
                .field("ID", T::VarChar(8)),
            "insert into PROD.K values (cast(:D as DATE format 'YYYY-MM-DD'), cast(:ID as INTEGER))",
            &[
                &["2012-01-01", "1"],
                &["2012-01-02", "x1"],
                &["bad", "x2"],
                &["bad", "9"],
            ],
        );
        job.0
            .execute("INSERT INTO PROD.K VALUES (NULL, 9)")
            .unwrap();
        job
    }

    /// Uniqueness emulated with the planner on or off (the check probes
    /// the target's index or nested-loops over it), or native.
    fn configs() -> [CdwConfig; 3] {
        [(false, true), (false, false), (true, true)].map(|(native_unique, planner)| CdwConfig {
            native_unique,
            planner,
            ..Default::default()
        })
    }

    fn run((cdw, compiled, layout): Job, strategy: ApplyStrategy) -> AdaptiveOutcome {
        let emu = emulate::plan(&cdw, &compiled).unwrap();
        let hi = cdw.table_len("STG").unwrap() as u64 + 1;
        apply(
            &cdw,
            &compiled,
            emu.as_ref(),
            &layout,
            1,
            hi,
            strategy,
            AdaptiveParams::default(),
            None,
        )
        .unwrap()
    }

    #[test]
    fn singleton_matches_legacy_semantics() {
        let outcome = run(customer(&CdwConfig::default()), ApplyStrategy::Singleton);
        assert_eq!(outcome.applied, 2);
        assert_eq!(outcome.errors.len(), 3);
        // Errors in row order for singleton.
        assert_eq!(outcome.errors[0].rows, ErrorRows::Single(2));
        assert_eq!(outcome.errors[1].rows, ErrorRows::Single(3));
        assert_eq!(outcome.errors[2].rows, ErrorRows::Single(4));
        assert_eq!(outcome.errors[2].code, ErrCode::UNIQUENESS);
        // Per-row statement cost: scan + 5×(check + insert) minus the
        // skipped insert for the UV row.
        assert!(outcome.statements >= 10, "{}", outcome.statements);
    }

    #[test]
    fn a_check_abort_is_recorded_at_the_first_failing_value() {
        // The uniqueness check evaluates only CAST(:ID AS INTEGER). Its
        // abort is a 3103 row, not a failed job, and names the row's
        // first failing value: ID on row 2, the date D on row 3. Row 4
        // collides, but its date fails first, as the oracle evaluates it.
        for config in configs() {
            for strategy in [ApplyStrategy::BulkAdaptive, ApplyStrategy::Singleton] {
                let outcome = run(bad_keys(&config), strategy);
                assert_eq!(outcome.applied, 1);
                let got: Vec<_> = outcome
                    .errors
                    .iter()
                    .map(|e| (e.code, e.field.as_deref(), e.message.as_str()))
                    .collect();
                let (code, on) = (ErrCode::DML_CONVERSION, "during DML on PROD.K, row number");
                assert_eq!(
                    got,
                    [
                        (
                            code,
                            Some("ID"),
                            format!("Conversion failed {on}: 2").as_str()
                        ),
                        (
                            code,
                            Some("D"),
                            format!("DATE conversion failed {on}: 3").as_str()
                        ),
                        (
                            code,
                            Some("D"),
                            format!("DATE conversion failed {on}: 4").as_str()
                        ),
                    ],
                    "{config:?} {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn strategies_agree_on_outcome() {
        // Adaptive and singleton must load the same rows and record the
        // same errors, field for field (modulo ordering), when max_errors
        // is unlimited — with uniqueness emulated or native.
        let first_row = |e: &RecordedError| match e.rows {
            ErrorRows::Single(s) | ErrorRows::Range(s, _) => s,
        };
        for config in configs() {
            for job in [customer, bad_keys] {
                let adaptive = run(job(&config), ApplyStrategy::BulkAdaptive);
                let singleton = run(job(&config), ApplyStrategy::Singleton);
                assert_eq!(adaptive.applied, singleton.applied);
                let mut a = adaptive.errors;
                let mut s = singleton.errors;
                a.sort_by_key(first_row);
                s.sort_by_key(first_row);
                assert_eq!(a, s, "{config:?}");
            }
        }
    }
}
