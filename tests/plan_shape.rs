//! Plan-shape pins: the virtualizer's hot emulation and adaptive-apply
//! statements must execute as index seeks, not scans.
//!
//! Every assertion reads the engine's own access-path counters
//! (`Cdw::plan_stats`) around a statement the test executes, so what is
//! pinned is the plan that ran. Each table access counts once: a seek of
//! a table's key index is one `index_seeks`, a full scan one
//! `full_scans`; an index-lookup join counts one seek for all its
//! probes, and a nested loop scans its right input once.
//!
//! Three access patterns are load-bearing for apply latency:
//! 1. the uniqueness-emulation existing-conflict probe (staging ⋈ target
//!    on the target's unique key) — an index-lookup join against the
//!    target's PK index;
//! 2. the adaptive handler's COUNT over a `__SEQ` range on the staging
//!    table — a seek of the staging PK index;
//! 3. the error-tuple fetch (one `__SEQ`-range read of the job's staging
//!    rows) and the range apply itself — a seek of the staging PK index.
//!
//! In (1) the staging table is the join's *left* input: the `__SEQ` range
//! in the WHERE must reach it as an index seek too, or every probe of a
//! walk reads the whole batch.

use etlv_cdw::Cdw;
use etlv_core::emulate;
use etlv_core::xcompile::{compile_dml, staging_ddl, CompiledDml};
use etlv_protocol::data::LegacyType as T;
use etlv_protocol::layout::Layout;

fn setup() -> (Cdw, CompiledDml) {
    let cdw = Cdw::new(); // native_unique off: emulation is planned
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
    for seq in 0..64 {
        cdw.execute(&format!(
            "INSERT INTO STG VALUES ({seq}, 'i{seq}', 'n{seq}', '2012-01-01')"
        ))
        .unwrap();
    }
    (cdw, compiled)
}

/// `(index seeks, full scans)` the engine counted while `run` ran.
fn accesses<T>(cdw: &Cdw, run: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = cdw.plan_stats();
    let out = run();
    let after = cdw.plan_stats();
    let counted = (
        after.index_seeks - before.index_seeks,
        after.full_scans - before.full_scans,
    );
    (counted, out)
}

#[test]
fn uv_probe_is_an_index_lookup_join_on_the_target_pk() {
    let (cdw, compiled) = setup();
    let emu = emulate::plan(&cdw, &compiled)
        .unwrap()
        .expect("emulation planned");
    // A one-row range runs the existing-key count alone: a seek of the
    // staging range, then one lookup join into the target's PK.
    let (counted, found) = accesses(&cdw, || emu.violations_in_range(&cdw, 8, 9).unwrap());
    assert!(found.is_empty());
    assert_eq!(counted, (2, 0), "existing-key probe (seeks, scans)");

    // A range holding a key the target already has: the count, then
    // the LEFT-join listing, each a staging seek plus a lookup join.
    cdw.execute("INSERT INTO PROD.CUSTOMER VALUES ('i10', 'old', DATE '2011-01-01')")
        .unwrap();
    let (counted, found) = accesses(&cdw, || emu.violations_in_range(&cdw, 8, 12).unwrap());
    assert_eq!(found, vec![10]);
    assert_eq!(counted, (4, 0), "count + listing (seeks, scans)");

    // The one-row confirmation is the same join, collision or not.
    let (counted, hit) = accesses(&cdw, || emu.confirm(&cdw, 10).unwrap());
    assert!(hit.is_some());
    assert_eq!(counted, (2, 0), "confirm of a colliding row (seeks, scans)");
    let (counted, hit) = accesses(&cdw, || emu.confirm(&cdw, 9).unwrap());
    assert!(hit.is_none());
    assert_eq!(counted, (2, 0), "confirm of a clean row (seeks, scans)");
}

#[test]
fn bisection_count_probe_seeks_the_staging_seq_index() {
    let (cdw, _compiled) = setup();
    let (counted, result) = accesses(&cdw, || {
        cdw.execute("SELECT COUNT(*) FROM STG WHERE (__SEQ >= 2) AND (__SEQ < 6)")
            .unwrap()
    });
    assert_eq!(result.rows.len(), 1);
    assert_eq!(counted, (1, 0), "range COUNT (seeks, scans)");
}

#[test]
fn singleton_row_fetch_is_a_point_seek() {
    // The statement `adaptive` issues to fetch error tuples: one read of
    // the job's staging range, made once however many singletons fail.
    let (cdw, compiled) = setup();
    let (counted, fetched) = accesses(&cdw, || {
        cdw.execute_stmt(&compiled.staging_scan(Some(3), Some(4)))
            .unwrap()
    });
    assert_eq!(fetched.rows.len(), 1);
    assert_eq!(counted, (1, 0), "staging tuple fetch (seeks, scans)");

    // The row-wise apply statement itself (INSERT..SELECT over a range)
    // also rides the staging index, and so does the walk's apply of a
    // range with its listed violations cut out: the `__SEQ NOT IN (…)`
    // residual keeps the range seek.
    let (counted, applied) = accesses(&cdw, || {
        cdw.execute_stmt(&compiled.range_stmt(Some(2), Some(4)))
            .unwrap()
    });
    assert_eq!(applied.affected, 2);
    assert_eq!(counted, (1, 0), "range apply (seeks, scans)");
    let (counted, applied) = accesses(&cdw, || {
        cdw.execute_stmt(&compiled.range_stmt_skipping(Some(20), Some(30), &[24, 26]))
            .unwrap()
    });
    assert_eq!(applied.affected, 8);
    assert_eq!(counted, (1, 0), "range apply skipping rows (seeks, scans)");
}

#[test]
fn intra_range_dup_probe_rides_the_staging_index() {
    let (cdw, compiled) = setup();
    let emu = emulate::plan(&cdw, &compiled)
        .unwrap()
        .expect("emulation planned");
    // A clean multi-row range runs both counts: the existing-key join
    // (two seeks) and the in-range duplicate GROUP BY over one seek of
    // the staging range.
    let (counted, found) = accesses(&cdw, || emu.violations_in_range(&cdw, 0, 8).unwrap());
    assert!(found.is_empty());
    assert_eq!(counted, (3, 0), "both counts (seeks, scans)");
}

/// Which WHERE conjuncts reach a join's left input as a seek: left-only
/// sargable ones, and nothing else.
#[test]
fn where_reaches_a_join_left_input_only_when_provably_left_only() {
    let cdw = Cdw::new();
    cdw.execute_script(
        "CREATE TABLE L (K INTEGER, V VARCHAR(10), PRIMARY KEY (K));
         CREATE TABLE R (A INTEGER, V VARCHAR(10), PRIMARY KEY (A));
         INSERT INTO L VALUES (1, 'a'), (2, 'b'), (3, 'c');
         INSERT INTO R VALUES (1, 'x'), (3, 'y');",
    )
    .unwrap();
    // `ON R.A = L.K` probes R's key: a lookup join, one seek. `ON R.V =
    // L.V` does not: a nested loop, one scan of R. The left input adds a
    // seek when the WHERE reaches it, a scan when it does not, and
    // nothing when a NULL comparison empties it.
    for (sql, expected) in [
        // Pushed: qualified, unqualified-but-unambiguous, beside a mixed
        // conjunct, and through a LEFT JOIN or a nested loop.
        ("SELECT * FROM L JOIN R ON R.A = L.K WHERE L.K >= 2", (2, 0)),
        (
            "SELECT * FROM L JOIN R ON R.A = L.K WHERE K >= 2 AND R.A > L.K - 1",
            (2, 0),
        ),
        (
            "SELECT * FROM L LEFT JOIN R ON R.A = L.K WHERE L.K = 2 AND R.A IS NULL",
            (2, 0),
        ),
        ("SELECT * FROM L JOIN R ON R.V = L.V WHERE L.K < 3", (1, 1)),
        (
            "SELECT * FROM L LEFT JOIN R ON R.A = L.K WHERE L.K < NULL",
            (1, 0),
        ),
        // Not pushed: the nullable side, a name both inputs carry, a
        // left-only conjunct no index serves, a disjunction.
        (
            "SELECT * FROM L LEFT JOIN R ON R.A = L.K WHERE R.A IS NULL",
            (1, 1),
        ),
        ("SELECT * FROM L JOIN R ON R.A = L.K WHERE V = 'a'", (1, 1)),
        (
            "SELECT * FROM L JOIN R ON R.A = L.K WHERE L.V LIKE 'a%'",
            (1, 1),
        ),
        (
            "SELECT * FROM L JOIN R ON R.A = L.K WHERE L.K = 1 OR R.A = 3",
            (1, 1),
        ),
    ] {
        // `V = 'a'` is ambiguous: the statement aborts once its inputs
        // are read, and the counters keep what it read.
        let (counted, _) = accesses(&cdw, || {
            let _ = cdw.execute(sql);
        });
        assert_eq!(counted, expected, "{sql}\n  (seeks, scans)");
    }
}
