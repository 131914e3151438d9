//! Property tests for the virtualizer's core invariants:
//!
//! - the adaptive error handler finds **exactly** the seeded bad rows for
//!   any error pattern, and loads exactly the good ones — record for
//!   record what the legacy oracle and the singleton baseline record;
//! - the credit pool never exceeds capacity and never leaks under
//!   arbitrary acquire/release interleavings.

use std::collections::HashSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use etlv_cdw::{Cdw, CdwConfig};
use etlv_core::adaptive::{apply_adaptive, AdaptiveParams, ErrorRows, RecordedError};
use etlv_core::apply::{apply, ApplyStrategy};
use etlv_core::emulate;
use etlv_core::xcompile::{compile_dml, staging_ddl};
use etlv_legacy_server::apply::apply_per_tuple;
use etlv_protocol::data::{LegacyType as T, Value};
use etlv_protocol::errcode::ErrCode;
use etlv_protocol::layout::Layout;
use etlv_sql::{parse_statement, Dialect};

/// The dirty-batch load: `N` is wider in staging than in the target.
const DML: &str = "insert into TGT values (trim(:ID), cast(:D as DATE format 'YYYY-MM-DD'), :N)";
/// Keys the target holds before the load.
const WARM: [&str; 3] = ["w1", "w2", "w3"];

fn layout() -> Layout {
    Layout::new("L")
        .field("ID", T::VarChar(10))
        .field("D", T::VarChar(10))
        .field("N", T::VarChar(8))
}

/// The unique target, holding the warm keys.
fn target(config: CdwConfig) -> Cdw {
    let cdw = Cdw::with_config(config, None);
    cdw.execute("CREATE TABLE TGT (ID VARCHAR(10), D DATE, N VARCHAR(4), PRIMARY KEY (ID))")
        .unwrap();
    for key in WARM {
        cdw.execute(&format!("INSERT INTO TGT VALUES ('{key}', NULL, 'warm')"))
            .unwrap();
    }
    cdw
}

/// The target's rows in key order.
fn contents(cdw: &Cdw) -> Vec<Vec<Value>> {
    cdw.execute("SELECT ID, D, N FROM TGT ORDER BY ID")
        .unwrap()
        .rows
}

/// The row of an individual record.
fn single(e: &RecordedError) -> u64 {
    match e.rows {
        ErrorRows::Single(s) => s,
        ErrorRows::Range(a, b) => panic!("range ({a}, {b}) with unlimited max_errors"),
    }
}

/// `total` staged `(ID, D, N)` rows, `density`% of them dirty: scattered,
/// or `clustered` in one run. A dirty row has a bad date, a key repeating
/// an earlier row of the batch (bad rows included, padded or not), a warm
/// key, both a bad date and a repeated key, or an `N` too long for the
/// target column — which names no row, so the walk halves.
fn dirty_rows(total: u64, density: u64, clustered: bool, seed: u64) -> Vec<[String; 3]> {
    let mut rng = StdRng::seed_from_u64(seed);
    let total = total as usize;
    let run = total * density as usize / 100;
    let start = rng.gen_range(0..=total - run);
    let mut rows: Vec<[String; 3]> = Vec::with_capacity(total);
    for i in 0..total {
        let dirty = if clustered {
            (start..start + run).contains(&i)
        } else {
            rng.gen_range(0..100u64) < density
        };
        let mut row = [
            format!("id{}", i + 1),
            "2020-01-01".to_string(),
            "ok".to_string(),
        ];
        // An earlier row's key, padded or not (the first row keeps its own).
        let repeated = rows.get(rng.gen_range(0..i.max(1))).map(|earlier| {
            let key = earlier[0].trim();
            if rng.gen_range(0..2) == 0 {
                format!("{key} ")
            } else {
                key.to_string()
            }
        });
        if dirty {
            match rng.gen_range(0..5) {
                0 => row[1] = "garbage".into(),
                1 => row[0] = repeated.unwrap_or(row[0].clone()),
                2 => row[0] = WARM[rng.gen_range(0..WARM.len())].into(),
                3 => {
                    row[0] = repeated.unwrap_or(row[0].clone());
                    row[1] = "2020-13-45".into();
                }
                _ => row[2] = "toolong".into(),
            }
        }
        rows.push(row);
    }
    rows
}

fn setup(total_rows: u64, bad: &HashSet<u64>) -> (Cdw, etlv_core::xcompile::CompiledDml, Layout) {
    let cdw = Cdw::new();
    cdw.execute("CREATE TABLE TGT (ID VARCHAR(10), D DATE, PRIMARY KEY (ID))")
        .unwrap();
    let layout = Layout::new("L")
        .field("ID", T::VarChar(10))
        .field("D", T::VarChar(10));
    let compiled = compile_dml(
        "insert into TGT values (trim(:ID), cast(:D as DATE format 'YYYY-MM-DD'))",
        &layout,
        "STG",
    )
    .unwrap();
    cdw.execute(&staging_ddl("STG", &layout)).unwrap();
    for seq in 1..=total_rows {
        let id = format!("id{seq}");
        let date = if bad.contains(&seq) {
            "garbage".to_string()
        } else {
            "2020-01-01".to_string()
        };
        cdw.execute(&format!("INSERT INTO STG VALUES ({seq}, '{id}', '{date}')"))
            .unwrap();
    }
    (cdw, compiled, layout)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn adaptive_finds_exactly_the_seeded_errors(
        total in 1u64..40,
        bad_bits in any::<u64>(),
    ) {
        let bad: HashSet<u64> = (1..=total).filter(|i| bad_bits & (1 << (i % 64)) != 0).collect();
        let (cdw, compiled, _) = setup(total, &bad);
        let emu = emulate::plan(&cdw, &compiled).unwrap();
        let outcome = apply_adaptive(
            &cdw,
            &compiled,
            emu.as_ref(),
            1,
            total + 1,
            AdaptiveParams::default(),
            None,
        )
        .unwrap();
        let found: HashSet<u64> = outcome
            .errors
            .iter()
            .map(|e| match e.rows {
                ErrorRows::Single(s) => s,
                ErrorRows::Range(a, b) => panic!("unexpected range ({a},{b}) with unlimited max_errors"),
            })
            .collect();
        prop_assert_eq!(&found, &bad);
        prop_assert_eq!(outcome.applied, total - bad.len() as u64);
        prop_assert_eq!(cdw.table_len("TGT").unwrap() as u64, total - bad.len() as u64);
    }

    #[test]
    fn adaptive_with_dups_and_bad_dates(
        total in 1u64..40,
        density in 0u64..=30,
        clustered in any::<bool>(),
        seed in any::<u64>(),
        planner in any::<bool>(),
        max_errors in 1u64..6,
    ) {
        let rows = dirty_rows(total, density, clustered, seed);
        let oracle = |rows: &[[String; 3]]| {
            let cdw = target(CdwConfig { native_unique: true, planner, ..Default::default() });
            let dml = parse_statement(DML, Dialect::Legacy).unwrap();
            let tuples: Vec<(u64, Vec<Value>)> = (1..)
                .zip(rows)
                .map(|(seq, row)| (seq, row.iter().map(|v| Value::Str(v.clone())).collect()))
                .collect();
            let outcome = apply_per_tuple(&cdw, &dml, &layout(), &tuples, 0);
            (cdw, outcome)
        };
        let gateway = |strategy, max_errors| {
            let cdw = target(CdwConfig { planner, ..Default::default() });
            cdw.execute(&staging_ddl("STG", &layout())).unwrap();
            for (seq, [id, d, n]) in (1..).zip(&rows) {
                cdw.execute(&format!("INSERT INTO STG VALUES ({seq}, '{id}', '{d}', '{n}')"))
                    .unwrap();
            }
            let compiled = compile_dml(DML, &layout(), "STG").unwrap();
            let emu = emulate::plan(&cdw, &compiled).unwrap();
            let params = AdaptiveParams { max_errors, ..AdaptiveParams::default() };
            let outcome = apply(&cdw, &compiled, emu.as_ref(), &layout(), 1, total + 1, strategy, params, None)
                .unwrap();
            (cdw, outcome)
        };

        // Unlimited errors: the oracle's target, ET (row, field) and UV
        // (row, tuple), and the singleton baseline's records, exactly.
        let (legacy, expected) = oracle(&rows);
        let (cdw, adaptive) = gateway(ApplyStrategy::BulkAdaptive, 0);
        let et: Vec<(u64, Option<String>)> = adaptive
            .errors
            .iter()
            .filter(|e| e.code != ErrCode::UNIQUENESS)
            .map(|e| (single(e), e.field.clone()))
            .collect();
        let uv: Vec<(u64, Vec<Value>)> = adaptive
            .errors
            .iter()
            .filter(|e| e.code == ErrCode::UNIQUENESS)
            .map(|e| (single(e), e.uv_tuple.clone().unwrap()))
            .collect();
        let oracle_et: Vec<(u64, Option<String>)> =
            expected.et_errors.iter().map(|e| (e.seq, e.field.clone())).collect();
        let oracle_uv: Vec<(u64, Vec<Value>)> =
            expected.uv_errors.iter().map(|e| (e.seq, e.tuple.clone())).collect();
        prop_assert_eq!(&et, &oracle_et, "{:?}", &rows);
        prop_assert_eq!(&uv, &oracle_uv, "{:?}", &rows);
        prop_assert_eq!(adaptive.applied, expected.applied);
        prop_assert_eq!(contents(&cdw), contents(&legacy));
        let (_, singleton) = gateway(ApplyStrategy::Singleton, 0);
        prop_assert_eq!(&singleton.errors, &adaptive.errors);
        prop_assert_eq!(singleton.applied, adaptive.applied);

        // max_errors = k: the first k records, then one 9057 range from
        // the next error row to the end, with only the rows before it
        // applied.
        let (cdw, capped) = gateway(ApplyStrategy::BulkAdaptive, max_errors);
        let k = max_errors as usize;
        match adaptive.errors.get(k) {
            None => prop_assert_eq!(&capped.errors, &adaptive.errors),
            Some(next) => {
                let next = single(next);
                prop_assert_eq!(&capped.errors[..k], &adaptive.errors[..k]);
                prop_assert_eq!(capped.errors.len(), k + 1);
                prop_assert_eq!(capped.errors[k].code, ErrCode::MAX_ERRORS);
                prop_assert_eq!(capped.errors[k].rows, ErrorRows::Range(next, total));
                let (prefix, _) = oracle(&rows[..next as usize - 1]);
                prop_assert_eq!(contents(&cdw), contents(&prefix));
            }
        }
    }

    #[test]
    fn credit_pool_invariants(
        capacity in 1usize..8,
        ops in proptest::collection::vec(any::<bool>(), 1..60),
    ) {
        let mgr = etlv_core::CreditManager::new(capacity);
        let mut held = Vec::new();
        for acquire in ops {
            if acquire {
                if let Some(c) = mgr.try_acquire_for(std::time::Duration::from_millis(1)) {
                    held.push(c);
                }
            } else {
                held.pop();
            }
            prop_assert!(mgr.available() + held.len() == capacity);
            prop_assert!(held.len() <= capacity);
        }
        drop(held);
        prop_assert_eq!(mgr.available(), capacity);
    }

    #[test]
    fn memory_gauge_invariants(
        cap in 1usize..10_000,
        sizes in proptest::collection::vec(1usize..4096, 1..30),
    ) {
        let gauge = etlv_core::MemoryGauge::new(cap);
        let mut held = Vec::new();
        for size in sizes {
            match gauge.reserve(size) {
                Ok(guard) => held.push(guard),
                Err(e) => {
                    prop_assert!(e.in_flight + e.requested > e.cap);
                }
            }
            prop_assert!(gauge.in_flight() <= cap as u64);
        }
        drop(held);
        prop_assert_eq!(gauge.in_flight(), 0);
    }

    #[test]
    fn backoff_monotone_capped_for_any_policy(
        base_us in 1u64..5_000,
        cap_us in 1u64..50_000,
        seed in any::<u64>(),
    ) {
        let policy = etlv_core::RetryPolicy {
            budget: 16,
            base: std::time::Duration::from_micros(base_us),
            cap: std::time::Duration::from_micros(cap_us),
        };
        let schedule: Vec<std::time::Duration> = {
            let mut b = policy.backoff(seed);
            (0..24).map(|_| b.next_delay()).collect()
        };
        let again: Vec<std::time::Duration> = {
            let mut b = policy.backoff(seed);
            (0..24).map(|_| b.next_delay()).collect()
        };
        prop_assert_eq!(&schedule, &again);
        for pair in schedule.windows(2) {
            prop_assert!(pair[1] >= pair[0], "monotone violated: {:?}", &schedule);
        }
        for delay in &schedule {
            prop_assert!(*delay <= policy.cap, "cap violated: {:?}", &schedule);
        }
    }

    #[test]
    fn credit_pool_survives_arbitrary_fault_interleavings(
        capacity in 1usize..6,
        ops in proptest::collection::vec(0u8..3, 1..40),
    ) {
        // Ops: 0 = acquire and hold, 1 = release one held credit, 2 = a
        // worker acquires and then dies mid-chunk (an injected fault).
        // Whatever the interleaving, credits never leak and never
        // double-release: available + held always equals capacity once the
        // faulted workers are reaped, and the pool refills completely.
        let mgr = etlv_core::CreditManager::new(capacity);
        let mut held = Vec::new();
        for op in ops {
            match op {
                0 => {
                    if let Some(c) = mgr.try_acquire_for(std::time::Duration::from_millis(1)) {
                        held.push(c);
                    }
                }
                1 => {
                    held.pop();
                }
                _ => {
                    let mgr2 = mgr.clone();
                    let worker = std::thread::spawn(move || {
                        let _credit = mgr2.try_acquire_for(std::time::Duration::from_millis(5));
                        panic!("injected fault: worker died holding a credit");
                    });
                    prop_assert!(worker.join().is_err());
                }
            }
            prop_assert_eq!(mgr.available() + held.len(), capacity);
            prop_assert!(held.len() <= capacity);
        }
        drop(held);
        prop_assert_eq!(mgr.available(), capacity);
    }
}
