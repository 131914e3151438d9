//! Allocation gate for the clean bulk path: the five statements a clean
//! `bulk_narrow`-shaped load and its export run, each held to a bound on
//! heap allocations per row.
//!
//! The statements, over 2,000 staged rows into an empty target:
//!
//! | statement                 | before | bound | measured |
//! |---------------------------|--------|-------|----------|
//! | COPY into staging         | 28.2   | ≤ 12  | 8.1      |
//! | existing-key probe        | 5.07   | ≤ 0.1 | 0.07     |
//! | in-range duplicate probe  | 15.1   | ≤ 6   | 2.05     |
//! | `INSERT … SELECT`         | 38.2   | ≤ 20  | 17.2     |
//! | `SELECT *` of the target  | 8.04   | ≤ 5   | 4.04     |
//!
//! ("before": the same statements when every read cloned the rows it read
//! and an empty index was built row by row.)
//!
//! Reads borrow the stored rows, coercion moves the values it keeps, COPY
//! allocates each field once, and GROUP BY keeps one key per group; a read
//! that clones the stored rows it reads again breaks a bound.
//!
//! A counting global allocator gates on a thread-local flag so the
//! measurement ignores allocator traffic from the test harness's other
//! threads. The whole gate lives in a single `#[test]` so nothing else in
//! this binary runs concurrently with the counted window.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use etlv_cdw::staged::StagedFormat;
use etlv_cdw::{Cdw, CdwConfig};
use etlv_cloudstore::store::ObjectStore;
use etlv_cloudstore::MemStore;
use etlv_sql::{parse_statement, Dialect};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn record(&self) {
        // `try_with` so allocations during thread teardown (after TLS
        // destruction) never panic inside the allocator.
        let counting = COUNTING.try_with(Cell::get).unwrap_or(false);
        if counting {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        self.record();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        self.record();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        self.record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const ROWS: u64 = 2_000;
/// `bulk_narrow`'s payload width: 100-byte input rows less the key, name,
/// date, delimiters and newline.
const PAYLOAD: usize = 67;

/// Allocations per row made by `f` on this thread.
fn allocs_per_row(f: impl FnOnce()) -> f64 {
    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    let after = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(false));
    (after - before) as f64 / ROWS as f64
}

/// One staged file of `ROWS` clean rows: `__SEQ`, then the layout's four
/// text fields, as the gateway's converter writes them.
fn staged_file() -> Vec<u8> {
    let format = StagedFormat::new(b'|');
    let mut out = Vec::new();
    for seq in 1..=ROWS {
        let payload: String = (0..PAYLOAD)
            .map(|i| (b'a' + ((seq as usize * 7 + i) % 26) as u8) as char)
            .collect();
        let fields = [
            seq.to_string(),
            format!("C{seq:07}"),
            format!("name{:07}", seq * 31 % 10_000_000),
            format!("20{:02}-{:02}-{:02}", seq % 25, 1 + seq % 12, 1 + seq % 28),
            payload,
        ];
        format.write_text_row(fields.iter().map(|f| Some(f.as_str())), &mut out);
    }
    out
}

#[test]
fn clean_path_statements_stay_within_their_allocation_bounds() {
    let store = Arc::new(MemStore::new());
    store
        .put("staging", "job1/part-000", staged_file())
        .unwrap();
    let cdw = Cdw::with_config(CdwConfig::default(), Some(store as Arc<dyn ObjectStore>));
    cdw.execute_script(&format!(
        "CREATE TABLE ETLV_STG_1 (__SEQ BIGINT, CUST_ID VARCHAR(8), CUST_NAME VARCHAR(12),
           JOIN_DATE VARCHAR(10), PAYLOAD VARCHAR({PAYLOAD}), PRIMARY KEY (__SEQ));
         CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(8) NOT NULL, CUST_NAME VARCHAR(12),
           JOIN_DATE DATE, PAYLOAD VARCHAR({PAYLOAD}), PRIMARY KEY (CUST_ID));"
    ))
    .unwrap();
    let range = format!("(S.__SEQ >= 1) AND (S.__SEQ < {})", ROWS + 1);
    let stmt = |sql: &str| parse_statement(sql, Dialect::Cdw).unwrap();
    let copy = stmt("COPY INTO ETLV_STG_1 FROM 'store://staging/job1/' DELIMITER '|'");
    let existing = stmt(&format!(
        "SELECT COUNT(*) FROM ETLV_STG_1 S JOIN PROD.CUSTOMER T ON TRIM(S.CUST_ID) = T.CUST_ID
         WHERE {range}"
    ));
    let dups = stmt(&format!(
        "SELECT COUNT(*) FROM (SELECT TRIM(S.CUST_ID) AS K0 FROM ETLV_STG_1 S WHERE {range}
           GROUP BY TRIM(S.CUST_ID) HAVING COUNT(*) > 1) Q"
    ));
    // The DML as the gateway builds it keeps the legacy FORMAT cast, which
    // only the legacy dialect parses.
    let insert = parse_statement(
        &format!(
            "INSERT INTO PROD.CUSTOMER SELECT TRIM(CUST_ID), TRIM(CUST_NAME),
           CAST(JOIN_DATE AS DATE FORMAT 'YYYY-MM-DD'), PAYLOAD
         FROM ETLV_STG_1 WHERE (__SEQ >= 1) AND (__SEQ < {})",
            ROWS + 1
        ),
        Dialect::Legacy,
    )
    .unwrap();
    let export = stmt("SELECT * FROM PROD.CUSTOMER");

    let mut measured = Vec::new();
    let mut run = |name: &str, stmt, bound: f64, expect: u64| {
        let mut result = None;
        let per_row = allocs_per_row(|| result = Some(cdw.execute_stmt(stmt)));
        let result = result.unwrap().unwrap_or_else(|e| panic!("{name}: {e}"));
        let got = if result.rows.len() == 1 {
            result.rows[0][0].to_f64().unwrap() as u64
        } else {
            result.affected
        };
        assert_eq!(got, expect, "{name}: wrong result");
        measured.push((name.to_string(), per_row, bound));
    };
    run("COPY", &copy, 12.0, ROWS);
    run("existing-key probe", &existing, 0.1, 0);
    run("in-range duplicate probe", &dups, 6.0, 0);
    run("INSERT … SELECT", &insert, 20.0, ROWS);
    run("SELECT *", &export, 5.0, ROWS);

    let report: Vec<String> = measured
        .iter()
        .map(|(name, per_row, bound)| format!("{name}: {per_row:.2} (≤ {bound})"))
        .collect();
    println!("allocations per row: {}", report.join(", "));
    for (name, per_row, bound) in &measured {
        assert!(
            per_row <= bound,
            "{name} allocated {per_row:.2} times per row, bound {bound}; all: {report:?}"
        );
    }
}
