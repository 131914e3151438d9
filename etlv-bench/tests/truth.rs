//! The generators and the ground truth they hand the oracle.

use std::collections::HashSet;

use etlv_bench::gen::{self, line_hash, lines_checksum, seq_hash, tenant_truth, ImportTruth, Job};
use etlv_bench::workloads::{measured_cycles, Workload, ALL, DEFAULT_SECONDS, SMOKE_DIVISOR};

fn imports(plan: &gen::Plan) -> Vec<(&[u8], &ImportTruth)> {
    plan.warm
        .iter()
        .chain(&plan.cycle)
        .filter_map(|job| match job {
            Job::Import(import) => Some((import.data.as_slice(), &import.truth)),
            _ => None,
        })
        .collect()
}

/// Re-derive what a customer-shape input must do from its bytes alone:
/// a date that is not a date goes to ET; a key already applied by this
/// batch, or a `W` key (a row of the warm load), goes to UV.
fn customer_truth(data: &[u8], warm_target: bool) -> (u64, u64, u64, u64) {
    let (mut rows, mut applied, mut et, mut uv) = (0, 0, 0, 0);
    let mut seen = HashSet::new();
    for line in data.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        rows += 1;
        let fields: Vec<&[u8]> = line.split(|&b| b == b'|').collect();
        assert_eq!(fields.len(), 4, "customer rows have four fields");
        if fields[2].starts_with(b"bad") {
            et += 1;
        } else if (warm_target && fields[0].starts_with(b"W")) || !seen.insert(fields[0]) {
            uv += 1;
        } else {
            applied += 1;
        }
    }
    (rows, applied, et, uv)
}

#[test]
fn planned_outcomes_equal_what_the_bytes_say() {
    for workload in [Workload::BulkNarrow, Workload::DirtyFeed] {
        let plan = gen::plan(workload, 7, SMOKE_DIVISOR, 2);
        for job in &plan.cycle {
            if let Job::Import(import) = job {
                let (data, truth) = (&import.data, &import.truth);
                let derived = customer_truth(data, workload == Workload::DirtyFeed);
                assert_eq!(
                    derived,
                    (truth.rows, truth.applied, truth.et, truth.uv),
                    "{}",
                    workload.name()
                );
            }
        }
    }
    let plan = gen::plan(Workload::TenantMix, 7, SMOKE_DIVISOR, 2);
    for (data, truth) in imports(&plan) {
        assert_eq!(tenant_truth(data), *truth);
    }
}

#[test]
fn every_import_accounts_for_every_row() {
    for workload in ALL {
        let plan = gen::plan(workload, 3, SMOKE_DIVISOR, 2);
        assert!(!plan.cycle.is_empty() && plan.cycles >= 10);
        for (data, truth) in imports(&plan) {
            let (lines, _) = lines_checksum(data);
            assert_eq!(lines, truth.rows, "{}", workload.name());
            assert_eq!(
                truth.applied + truth.et + truth.uv,
                truth.rows,
                "{}",
                workload.name()
            );
        }
    }
}

#[test]
fn dirty_batches_carry_exact_error_counts() {
    let plan = gen::plan(Workload::DirtyFeed, 11, 1, 2);
    assert_eq!(plan.cycle.len(), 4, "one batch per warm target");
    for job in &plan.cycle {
        let Job::Import(import) = job else {
            panic!("the dirty_feed cycle holds imports only: it is the bulk-path bypass");
        };
        let truth = &import.truth;
        assert_eq!((truth.rows, truth.et, truth.uv), (500, 30, 20));
    }
    assert!(
        plan.after_cycle
            .iter()
            .all(|job| matches!(job, Job::Export { .. })),
        "the exports run outside the cycle's timers"
    );
}

#[test]
fn same_seed_same_bytes_other_seed_other_bytes() {
    for workload in ALL {
        let a = gen::plan(workload, 5, SMOKE_DIVISOR, 2);
        let b = gen::plan(workload, 5, SMOKE_DIVISOR, 2);
        let c = gen::plan(workload, 6, SMOKE_DIVISOR, 2);
        let bytes = |p: &gen::Plan| -> Vec<Vec<u8>> {
            imports(p).iter().map(|(d, _)| d.to_vec()).collect()
        };
        assert_eq!(bytes(&a), bytes(&b), "{}", workload.name());
        assert_ne!(bytes(&a), bytes(&c), "{}", workload.name());
    }
}

#[test]
fn the_seed_changes_the_bytes_and_never_the_work() {
    // Row counts, error counts and the input row numbers the errors sit at
    // (the SEQNO checksums) are the shape: the same on every seed.
    for workload in ALL {
        let shape = |seed| -> Vec<(u64, u64, u64, u64, u64)> {
            let plan = gen::plan(workload, seed, SMOKE_DIVISOR, 2);
            imports(&plan)
                .iter()
                .map(|(_, t)| (t.rows, t.et, t.uv, t.et_sum, t.uv_sum))
                .collect()
        };
        assert_eq!(shape(5), shape(6), "{}", workload.name());
    }
}

#[test]
fn the_cycle_count_scales_with_seconds_by_a_constant() {
    assert_eq!(measured_cycles(70, DEFAULT_SECONDS), 70);
    assert_eq!(measured_cycles(70, DEFAULT_SECONDS / 2.0), 35);
    assert_eq!(measured_cycles(15, 1.0), 2, "never fewer than two");
}

#[test]
fn tenant_truth_on_a_hand_written_payload() {
    let data = b"K1|2020-01-02|aaa\nK2|not-a-date|bbb\nK1|2021-03-04|ccc\nK3|2022-05-06|ddd\n";
    let truth = tenant_truth(data);
    assert_eq!(
        (truth.rows, truth.applied, truth.et, truth.uv),
        (4, 2, 1, 1)
    );
    assert_eq!((truth.et_sum, truth.uv_sum), (seq_hash(2), seq_hash(3)));
    assert_eq!(
        truth.applied_sum,
        line_hash(b"K1|aaa").wrapping_add(line_hash(b"K3|ddd")),
        "applied rows export as K|P"
    );
}

#[test]
fn export_checksum_ignores_row_order() {
    assert_eq!(
        lines_checksum(b"a|1\nb|2\nc|3\n"),
        lines_checksum(b"c|3\na|1\nb|2\n")
    );
    assert_ne!(
        lines_checksum(b"a|1\nb|2\n").1,
        lines_checksum(b"a|1\nb|3\n").1
    );
    assert_eq!(lines_checksum(b"").0, 0);
}
