//! Property tests for the virtualizer's core invariants:
//!
//! - the adaptive error handler finds **exactly** the seeded bad rows for
//!   any error pattern, and loads exactly the good ones;
//! - the credit pool never exceeds capacity and never leaks under
//!   arbitrary acquire/release interleavings.

use std::collections::HashSet;

use proptest::prelude::*;

use etlv_cdw::Cdw;
use etlv_core::adaptive::{apply_adaptive, AdaptiveParams, ErrorRows};
use etlv_core::emulate;
use etlv_core::xcompile::{compile_dml, staging_ddl};
use etlv_protocol::data::LegacyType as T;
use etlv_protocol::layout::Layout;

fn setup(
    total_rows: u64,
    bad: &HashSet<u64>,
    dups: &HashSet<u64>,
) -> (Cdw, etlv_core::xcompile::CompiledDml, Layout) {
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
        let id = if dups.contains(&seq) {
            // Duplicate the first non-dup row's key.
            "dup0".to_string()
        } else {
            format!("id{seq}")
        };
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
        let (cdw, compiled, layout) = setup(total, &bad, &HashSet::new());
        let emu = emulate::plan(&cdw, &compiled).unwrap();
        let outcome = apply_adaptive(
            &cdw,
            &compiled,
            emu.as_ref(),
            &layout,
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
        total in 2u64..30,
        bad_bits in any::<u64>(),
        dup_bits in any::<u64>(),
    ) {
        // Row 1 is always the anchor "dup0" row so duplicates have a
        // conflict target; duplicates and bad dates are disjoint sets.
        let bad: HashSet<u64> = (2..=total)
            .filter(|i| bad_bits & (1 << (i % 64)) != 0)
            .collect();
        let dups: HashSet<u64> = (2..=total)
            .filter(|i| !bad.contains(i) && dup_bits & (1 << (i % 61)) != 0)
            .collect();
        // Seed the anchor row as a dup target.
        let (cdw, compiled, layout) = setup(total, &bad, &dups);
        cdw.execute("UPDATE STG SET ID = 'dup0' WHERE __SEQ = 1").unwrap();

        let emu = emulate::plan(&cdw, &compiled).unwrap();
        let outcome = apply_adaptive(
            &cdw,
            &compiled,
            emu.as_ref(),
            &layout,
            1,
            total + 1,
            AdaptiveParams::default(),
            None,
        )
        .unwrap();
        // Every bad-date row is an ET-class single error; every dup row
        // (beyond the first 'dup0' occurrence, which loads) is a UV error.
        let et: HashSet<u64> = outcome
            .errors
            .iter()
            .filter(|e| e.uv_tuple.is_none())
            .map(|e| match e.rows {
                ErrorRows::Single(s) => s,
                _ => panic!("range with unlimited max_errors"),
            })
            .collect();
        let uv: HashSet<u64> = outcome
            .errors
            .iter()
            .filter(|e| e.uv_tuple.is_some())
            .map(|e| match e.rows {
                ErrorRows::Single(s) => s,
                _ => panic!("range with unlimited max_errors"),
            })
            .collect();
        prop_assert_eq!(&et, &bad);
        prop_assert_eq!(&uv, &dups);
        prop_assert_eq!(
            outcome.applied,
            total - bad.len() as u64 - dups.len() as u64
        );
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
