//! PR 7 plan-shape pins: EXPLAIN must prove the virtualizer's hot
//! emulation queries execute as index seeks, not scans.
//!
//! Three access patterns are load-bearing for apply latency:
//! 1. the uniqueness-emulation existing-conflict probe (staging ⋈ target
//!    on the target's unique key) — must be an index-lookup join against
//!    the target's PK index;
//! 2. the adaptive handler's bisection COUNT over a `__SEQ` range on the
//!    staging table — must seek the staging PK index;
//! 3. the error-tuple fetch (one `__SEQ`-range read of the job's staging
//!    rows) and the range apply itself — must seek the staging PK index.
//!
//! In (1) the staging table is the join's *left* input: the `__SEQ` range
//! in the WHERE must reach it as an index seek too, or every probe of a
//! bisection reads the whole batch.

use etlv_cdw::Cdw;
use etlv_core::emulate;
use etlv_core::xcompile::{compile_dml, staging_ddl};
use etlv_protocol::data::LegacyType as T;
use etlv_protocol::layout::Layout;

fn setup() -> (Cdw, etlv_core::xcompile::CompiledDml) {
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

#[test]
fn uv_probe_is_an_index_lookup_join_on_the_target_pk() {
    let (cdw, compiled) = setup();
    let emu = emulate::plan(&cdw, &compiled)
        .unwrap()
        .expect("emulation planned");
    let plan = cdw
        .explain_stmt(&emu.existing_conflicts_stmt(8, 12))
        .unwrap();
    let text = plan.join("\n");
    assert!(
        text.contains("index_lookup_join")
            && text.contains("PROD.CUSTOMER")
            && text.contains("index=PK"),
        "UV existing-conflict probe must index-probe the target PK:\n{text}"
    );
    assert!(
        !text.contains("nested_loop_join"),
        "no nested loop in the probe:\n{text}"
    );
    let left = plan
        .iter()
        .find(|l| l.contains("table=STG"))
        .unwrap_or_else(|| panic!("no staging access in the plan:\n{text}"));
    assert!(
        left.contains("index_seek") && left.contains("range=true"),
        "the probe's __SEQ range must seek the staging index:\n{text}"
    );
    assert!(!text.contains("full_scan"), "no scan in the probe:\n{text}");

    // The plan that runs is the plan EXPLAIN shows: executing the probe
    // scans nothing.
    let before = cdw.plan_stats();
    assert!(emu.violations_in_range(&cdw, 8, 12).unwrap().is_empty());
    let after = cdw.plan_stats();
    assert_eq!(after.full_scans, before.full_scans, "probe scanned");
    assert!(after.index_seeks > before.index_seeks, "probe did not seek");
}

#[test]
fn bisection_count_probe_seeks_the_staging_seq_index() {
    let (cdw, _compiled) = setup();
    let plan = cdw
        .explain("SELECT COUNT(*) FROM STG WHERE (__SEQ >= 2) AND (__SEQ < 6)")
        .unwrap();
    let text = plan.join("\n");
    assert!(
        text.contains("index_seek") && text.contains("table=STG") && text.contains("index=PK"),
        "bisection COUNT must seek the staging __SEQ index:\n{text}"
    );
    assert!(!text.contains("full_scan"), "no scan in the probe:\n{text}");
}

#[test]
fn singleton_row_fetch_is_a_point_seek() {
    // The statement `adaptive` issues to fetch error tuples: one read of
    // the job's staging range, made once however many singletons fail.
    let (cdw, compiled) = setup();
    let plan = cdw
        .explain_stmt(&compiled.staging_scan(Some(3), Some(4)))
        .unwrap();
    let text = plan.join("\n");
    assert!(
        text.contains("index_seek") && text.contains("table=STG"),
        "staging tuple fetch must seek the staging index:\n{text}"
    );

    // The row-wise apply statement itself (INSERT..SELECT over a range)
    // also rides the staging index.
    let apply = cdw
        .explain_stmt(&compiled.range_stmt(Some(2), Some(4)))
        .unwrap();
    let apply_text = apply.join("\n");
    assert!(
        apply_text.contains("index_seek") && apply_text.contains("table=STG"),
        "range apply must seek the staging index:\n{apply_text}"
    );
}

#[test]
fn intra_range_dup_probe_rides_the_staging_index() {
    let (cdw, compiled) = setup();
    let emu = emulate::plan(&cdw, &compiled)
        .unwrap()
        .expect("emulation planned");
    let plan = cdw.explain_stmt(&emu.intra_range_dups_stmt(0, 8)).unwrap();
    let text = plan.join("\n");
    assert!(
        text.contains("index_seek") && text.contains("table=STG"),
        "intra-range duplicate probe must seek the staging index:\n{text}"
    );
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
    let left_line = |sql: &str| -> String {
        let plan = cdw.explain(sql).unwrap();
        plan.iter()
            .find(|l| l.contains("table=L"))
            .unwrap_or_else(|| panic!("no access to L in:\n{}", plan.join("\n")))
            .trim()
            .to_string()
    };
    for (sql, marker) in [
        // Pushed: qualified, unqualified-but-unambiguous, beside a mixed
        // conjunct, and through a LEFT JOIN or a nested loop.
        (
            "SELECT * FROM L JOIN R ON R.A = L.K WHERE L.K >= 2",
            "index_seek",
        ),
        (
            "SELECT * FROM L JOIN R ON R.A = L.K WHERE K >= 2 AND R.A > L.K - 1",
            "index_seek",
        ),
        (
            "SELECT * FROM L LEFT JOIN R ON R.A = L.K WHERE L.K = 2 AND R.A IS NULL",
            "index_seek",
        ),
        (
            "SELECT * FROM L JOIN R ON R.V = L.V WHERE L.K < 3",
            "index_seek",
        ),
        (
            "SELECT * FROM L LEFT JOIN R ON R.A = L.K WHERE L.K < NULL",
            "const_empty",
        ),
        // Not pushed: the nullable side, a name both inputs carry, a
        // left-only conjunct no index serves, a disjunction.
        (
            "SELECT * FROM L LEFT JOIN R ON R.A = L.K WHERE R.A IS NULL",
            "full_scan",
        ),
        (
            "SELECT * FROM L JOIN R ON R.A = L.K WHERE V = 'a'",
            "full_scan",
        ),
        (
            "SELECT * FROM L JOIN R ON R.A = L.K WHERE L.V LIKE 'a%'",
            "full_scan",
        ),
        (
            "SELECT * FROM L JOIN R ON R.A = L.K WHERE L.K = 1 OR R.A = 3",
            "full_scan",
        ),
    ] {
        let line = left_line(sql);
        assert!(line.starts_with(marker), "{sql}\n  left input: {line}");
    }
}
