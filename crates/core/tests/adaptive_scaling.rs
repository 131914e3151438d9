//! Adaptive apply must cost what its errors cost.
//!
//! Counted, not timed. The walk cuts a failing range at the row the CDW's
//! abort names and at the rows the uniqueness probe lists, so a dirty
//! batch costs a few statements per error row, however long the batch:
//! blind bisection paid one more statement per error for every doubling
//! of the batch (174 / 729 cuts at 500 / 2,000 rows here, against 59 /
//! 240 now). No probe may scan a staging table either — an earlier probe
//! read the whole batch every time, so its wall grew with the square of
//! the batch (0.25 s at 500 rows, 4.7 s at 2,000).

use std::collections::BTreeSet;

use etlv_cdw::plan::PlanStats;
use etlv_cdw::Cdw;
use etlv_core::adaptive::{AdaptiveOutcome, AdaptiveParams, ErrorRows};
use etlv_core::apply::{apply, ApplyStrategy};
use etlv_core::emulate;
use etlv_core::xcompile::{compile_dml, staging_ddl};
use etlv_protocol::data::LegacyType as T;
use etlv_protocol::errcode::ErrCode;
use etlv_protocol::layout::Layout;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WARM_ROWS: u64 = 10_000;

/// A seeded batch of `rows` rows as `(key, date)` per `__SEQ` 1..: among
/// its first `span` rows, `bad` bad dates, `dup` keys repeating an earlier
/// clean row of the batch and `dup` keys colliding with a warm row of the
/// target. Row 1 and every row past `span` stay clean, so batches of one
/// `span` share their dirty rows.
fn dirty_batch(rows: u64, span: u64, bad: u64, dup: u64) -> Vec<(String, &'static str)> {
    let mut rng = StdRng::seed_from_u64(0x00E7_C019 ^ span);
    let mut order: Vec<usize> = (1..span as usize).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let (bad, dup) = (bad as usize, dup as usize);
    let bad_date: BTreeSet<usize> = order[..bad].iter().copied().collect();
    let intra_dup: BTreeSet<usize> = order[bad..bad + dup].iter().copied().collect();
    let collision: BTreeSet<usize> = order[bad + dup..bad + 2 * dup].iter().copied().collect();
    let mut clean_keys: Vec<String> = Vec::new();
    (0..rows as usize)
        .map(|i| {
            let fresh = format!("B{:07}", i + 1);
            if bad_date.contains(&i) {
                (fresh, "2012-13-45")
            } else if intra_dup.contains(&i) {
                let k = rng.gen_range(0..clean_keys.len());
                (clean_keys[k].clone(), "2012-01-01")
            } else if collision.contains(&i) {
                (
                    format!("W{:07}", rng.gen_range(1..=WARM_ROWS)),
                    "2012-01-01",
                )
            } else {
                clean_keys.push(fresh.clone());
                (fresh, "2012-01-01")
            }
        })
        .collect()
}

/// Stage `batch` beside a warm 10k-row unique target on a CDW that does
/// not enforce uniqueness, apply it, and return the outcome with the
/// planner counters the apply alone moved.
fn run(batch: &[(String, &'static str)], strategy: ApplyStrategy) -> (AdaptiveOutcome, PlanStats) {
    let cdw = Cdw::new(); // native_unique = false: uniqueness is emulated
    cdw.execute(
        "CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(8), CUST_NAME VARCHAR(20), JOIN_DATE DATE, PRIMARY KEY (CUST_ID))",
    )
    .unwrap();
    let layout = Layout::new("L")
        .field("CUST_ID", T::VarChar(8))
        .field("CUST_NAME", T::VarChar(20))
        .field("JOIN_DATE", T::VarChar(10));
    let compiled = compile_dml(
        "insert into PROD.CUSTOMER values (trim(:CUST_ID), trim(:CUST_NAME), cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'))",
        &layout,
        "STG",
    )
    .unwrap();
    cdw.execute(&staging_ddl("STG", &layout)).unwrap();
    let insert = |table: &str, rows: Vec<String>| {
        for chunk in rows.chunks(500) {
            cdw.execute(&format!("INSERT INTO {table} VALUES {}", chunk.join(", ")))
                .unwrap();
        }
    };
    insert(
        "PROD.CUSTOMER",
        (1..=WARM_ROWS)
            .map(|i| format!("('W{i:07}', 'warm', NULL)"))
            .collect(),
    );
    insert(
        "STG",
        batch
            .iter()
            .enumerate()
            .map(|(i, (key, date))| format!("({}, '{key}', 'n{i}', '{date}')", i + 1))
            .collect(),
    );
    let emu = emulate::plan(&cdw, &compiled).unwrap();
    assert!(emu.is_some(), "uniqueness emulation is planned");
    let before = cdw.plan_stats();
    let outcome = apply(
        &cdw,
        &compiled,
        emu.as_ref(),
        &layout,
        1,
        batch.len() as u64 + 1,
        strategy,
        AdaptiveParams::default(),
        None,
    )
    .unwrap();
    let after = cdw.plan_stats();
    let moved = PlanStats {
        index_seeks: after.index_seeks - before.index_seeks,
        full_scans: after.full_scans - before.full_scans,
        index_maintains: after.index_maintains - before.index_maintains,
    };
    (outcome, moved)
}

/// The `__SEQ`s recorded under `code`; every record must be a singleton.
fn seqs(outcome: &AdaptiveOutcome, code: ErrCode) -> BTreeSet<u64> {
    outcome
        .errors
        .iter()
        .map(|e| match e.rows {
            ErrorRows::Single(s) => (s, e.code),
            ErrorRows::Range(a, b) => panic!("range record ({a}, {b}) with unlimited errors"),
        })
        .filter(|(_, c)| *c == code)
        .map(|(s, _)| s)
        .collect()
}

#[test]
fn statements_scale_with_the_errors_and_probes_scan_nothing() {
    // (batch rows, cuts): one per bad date, at the row its abort names,
    // and one per row the probe lists (the UV rows plus the first row of
    // each duplicate group).
    for (rows, cuts) in [(500u64, 50u64), (2_000, 200)] {
        let batch = dirty_batch(rows, rows, rows * 6 / 100, rows * 2 / 100);
        let (adaptive, stats) = run(&batch, ApplyStrategy::BulkAdaptive);
        let (singleton, _) = run(&batch, ApplyStrategy::Singleton);

        assert_eq!(adaptive.applied, singleton.applied, "{rows} rows");
        assert_eq!(adaptive.applied, rows - rows * 10 / 100, "{rows} rows");
        for code in [ErrCode::DML_CONVERSION, ErrCode::UNIQUENESS] {
            assert_eq!(
                seqs(&adaptive, code),
                seqs(&singleton, code),
                "{rows} rows, {code:?}"
            );
        }
        assert_eq!(
            seqs(&adaptive, ErrCode::DML_CONVERSION).len() as u64,
            rows * 6 / 100
        );
        assert_eq!(
            seqs(&adaptive, ErrCode::UNIQUENESS).len() as u64,
            rows * 4 / 100
        );

        assert!(
            stats.full_scans <= 4,
            "{rows} rows: {} full scans (one per probe before)",
            stats.full_scans
        );
        assert_eq!(adaptive.splits, cuts, "{rows} rows");
        let error_rows = adaptive.errors.len() as u64;
        assert!(
            adaptive.statements <= 3 * error_rows,
            "{rows} rows: {} statements for {error_rows} error rows",
            adaptive.statements
        );
    }
}

#[test]
fn a_fixed_error_count_costs_the_same_in_any_batch() {
    // The same 30 dirty rows in a 500- and a 2,000-row batch.
    let statements: Vec<u64> = [500, 2_000]
        .map(|rows| {
            let (outcome, _) = run(&dirty_batch(rows, 500, 18, 6), ApplyStrategy::BulkAdaptive);
            assert_eq!(outcome.errors.len(), 30, "{rows} rows");
            assert_eq!(outcome.applied, rows - 30, "{rows} rows");
            outcome.statements
        })
        .into();
    assert!(
        statements[0].abs_diff(statements[1]) <= 2,
        "statements {statements:?}: four times the rows, the same errors"
    );
}
