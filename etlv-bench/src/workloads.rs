//! The one table of workload sizes. Every count below is a frozen
//! constant: calibrated once on the 2-core reference host and not derived
//! from anything at run time, so two results are comparable whenever
//! their host fingerprints are. `why` is the same sentence
//! `BENCHMARK.json` carries.
//!
//! A workload is one *cycle* repeated: the cycle is fixed work (the same
//! jobs, the same bytes, every target restored to its starting state
//! afterwards, outside the timers), and the measured section is a fixed
//! number of cycles (`cycles`), so every run of a workload — and every
//! block of a run — executes identical work however fast the host or
//! the commit is. `cycles` was calibrated so that the section lasts
//! about `DEFAULT_SECONDS` on the 2-core reference host in an ordinary
//! hour (it takes ~15% less in its quietest hours and ~35% more in its
//! noisiest); `--seconds` scales the count by a constant, never by a
//! clock.

/// Nominal measured seconds per run; equals `run_seconds` in
/// `BENCHMARK.json`. `cycles` below is the count for this length.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Full set-ups timed per run; `setup_s` is their median and the last
/// one is the node the measured section runs on.
pub const SETUP_REPEATS: usize = 3;

/// Blocks of equal cycle count the measured section is cut into for the
/// rate metrics.
pub const BLOCKS: usize = 10;

/// `--smoke` divides every row count and every cycle count by this.
pub const SMOKE_DIVISOR: u64 = 20;

/// Cycles in a measured section of nominally `seconds`: the workload's
/// frozen count scaled by a constant, at least two (a traced run traces
/// every other cycle).
pub fn measured_cycles(cycles: usize, seconds: f64) -> usize {
    ((cycles as f64 * seconds / DEFAULT_SECONDS).round() as usize).max(2)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BulkNarrow,
    BulkWide,
    DirtyFeed,
    TenantMix,
}

pub const ALL: [Workload; 4] = [
    Workload::BulkNarrow,
    Workload::BulkWide,
    Workload::DirtyFeed,
    Workload::TenantMix,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkNarrow => "bulk_narrow",
            Workload::BulkWide => "bulk_wide",
            Workload::DirtyFeed => "dirty_feed",
            Workload::TenantMix => "tenant_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists — one line, repeated in `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::BulkNarrow => "20k clean 100-byte rows in and out per cycle: per-row costs (convert, COPY parse, apply insert, cursor encode) dominate, per-job fixed cost is a few percent",
            Workload::BulkWide => "3k rows x 50 dictionary-word columns, compressed staging over a shaped link: per-byte costs (wire, compress, upload, credit back-pressure) dominate",
            Workload::DirtyFeed => "500-row batches with 6% bad dates and 4% duplicate keys into four warm 10k-row unique targets: adaptive bisection, uniqueness emulation and index seeks do the work; bulk-path bypass",
            Workload::TenantMix => "2 closed-loop clients drain one Zipf-skewed list of small imports, exports and probes over 80 warm tables: per-job costs dominate, and reads run beside the other client's writes",
        }
    }
}

/// `bulk_narrow`: one client; cycle = import into the empty target, then
/// export the table back.
pub struct BulkNarrow {
    pub rows: u64,
    pub row_bytes: usize,
    pub chunk_rows: usize,
    pub warmup_cycles: usize,
    /// Measured cycles per `DEFAULT_SECONDS`.
    pub cycles: usize,
}

pub const BULK_NARROW: BulkNarrow = BulkNarrow {
    rows: 20_000,
    row_bytes: 100,
    chunk_rows: 1_000,
    warmup_cycles: 5,
    cycles: 70,
};

/// `bulk_wide`: one client; same cycle as `bulk_narrow` over few big
/// rows, with compressed staging and a shaped upload link.
pub struct BulkWide {
    pub rows: u64,
    pub cols: usize,
    /// Words joined with spaces in each non-key column.
    pub words_per_col: usize,
    pub dict_words: usize,
    pub chunk_rows: usize,
    pub link_latency_ms: u64,
    pub link_mb_per_s: u64,
    pub warmup_cycles: usize,
    pub cycles: usize,
}

pub const BULK_WIDE: BulkWide = BulkWide {
    rows: 3_000,
    cols: 50,
    words_per_col: 5,
    dict_words: 4_096,
    chunk_rows: 250,
    link_latency_ms: 2,
    link_mb_per_s: 200,
    warmup_cycles: 2,
    cycles: 30,
};

/// `dirty_feed`: one client, one data session; cycle = import one dirty
/// batch into each of the warm targets in turn. No export is part of the
/// cycle: this is the bypass workload for every bulk-path optimisation.
/// After the cycle's timers have stopped each target is exported once, so
/// that `export_p50_ms` — which the driver's contract wants from every
/// workload — has samples; those exports move no other metric here.
pub struct DirtyFeed {
    /// Seed of each batch's shape (which rows are dirty, which keys they
    /// repeat): a constant, like the sizes. The run's `--seed` drives the
    /// bytes.
    pub shape_seed: u64,
    pub targets: usize,
    pub warm_rows: u64,
    pub batch_rows: u64,
    pub row_bytes: usize,
    /// Exact per-batch counts, not probabilities, so every cycle costs
    /// the same on every seed.
    pub bad_date_pct: u64,
    pub intra_dup_pct: u64,
    pub warm_collision_pct: u64,
    pub chunk_rows: usize,
    pub warmup_cycles: usize,
    pub cycles: usize,
}

pub const DIRTY_FEED: DirtyFeed = DirtyFeed {
    shape_seed: 0xD127_FEED,
    targets: 4,
    warm_rows: 10_000,
    batch_rows: 500,
    row_bytes: 100,
    bad_date_pct: 6,
    intra_dup_pct: 2,
    warm_collision_pct: 2,
    chunk_rows: 1_000,
    warmup_cycles: 1,
    cycles: 20,
};

/// `tenant_mix`: the cycle is the first `jobs_per_cycle` jobs of
/// `etlv_workloadgen::synthesize`'s output, drained by two closed-loop
/// clients. Every table starts a cycle holding `base_rows` rows from the
/// warm load.
pub struct TenantMix {
    /// Seed of the job list's shape (tenant, table, kind, row count and
    /// error rows per job): a constant, like the sizes. The run's
    /// `--seed` drives the payload bytes.
    pub shape_seed: u64,
    pub tenants: u16,
    pub tables_per_tenant: u16,
    pub zipf_s: f64,
    pub rows_base: u32,
    pub rows_hot: u32,
    pub row_bytes: u32,
    pub import_pct: u8,
    pub export_pct: u8,
    pub error_ppm: u32,
    /// Clean rows every table holds in its starting state, so that
    /// exports and probes read data rather than empty tables.
    pub base_rows: u32,
    pub jobs_per_cycle: usize,
    pub chunk_rows: usize,
    pub warmup_cycles: usize,
    pub cycles: usize,
}

pub const TENANT_MIX: TenantMix = TenantMix {
    shape_seed: 0x7E4A_4711,
    tenants: 8,
    tables_per_tenant: 10,
    zipf_s: 1.2,
    rows_base: 40,
    rows_hot: 900,
    row_bytes: 96,
    import_pct: 70,
    export_pct: 20,
    error_ppm: 5_000,
    base_rows: 1_000,
    jobs_per_cycle: 40,
    chunk_rows: 200,
    warmup_cycles: 1,
    cycles: 15,
};
