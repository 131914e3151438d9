//! Virtualizer configuration — the tuning parameters the paper's §5/§6
//! expose to customers.

use std::time::Duration;

use etlv_cloudstore::Throttle;

use crate::apply::ApplyStrategy;
use crate::fault::{FaultPlan, RetryPolicy};
use crate::obs::SloPolicy;

/// All virtualizer tuning knobs.
#[derive(Debug, Clone)]
pub struct VirtualizerConfig {
    /// CreditManager pool size (shared per node across jobs, §5). Must be
    /// at least 1.
    pub credits: usize,
    /// Worker threads in the node-wide pool, shared by every concurrent
    /// job; each converts a chunk, then appends it to its job's staging
    /// file (0 is treated as 1).
    pub converter_threads: usize,
    /// Staged-file rotation threshold in bytes (§6: tuned to the CDW's
    /// preferred load size).
    pub file_size_threshold: usize,
    /// Compress finalized staged files before upload (§6: pays off when
    /// the link to the cloud is slow).
    pub compress_staged: bool,
    /// Object-store bucket staged files land in.
    pub staging_bucket: String,
    /// Delimiter of the staged text format.
    pub staging_delimiter: u8,
    /// Link model between the virtualizer node and the cloud store.
    pub upload_throttle: Throttle,
    /// DML application strategy (§7; `Singleton` is the Figure 11
    /// baseline).
    pub apply_strategy: ApplyStrategy,
    /// Adaptive error handling: stop recording individual errors after
    /// this many (0 = unlimited) — the paper's `max_errors`.
    pub max_errors: u64,
    /// Adaptive error handling: maximum chunk-split depth — the paper's
    /// `max_retries`.
    pub max_retries: u32,
    /// In-flight memory cap in bytes (0 = unlimited). When unconverted +
    /// unwritten data exceeds this, the job fails with an out-of-memory
    /// error — the deterministic stand-in for the paper's one-million
    /// credit crash.
    pub memory_cap: usize,
    /// Rows per export chunk handed to client sessions.
    pub export_chunk_rows: u32,
    /// Ignored: export read-ahead, in chunks. The export cursor serves
    /// slices of a result the CDW returns whole, so there is nothing to
    /// read ahead. Kept because `etlv-bench` passes it to
    /// `TdfCursor::open`.
    pub export_prefetch_chunks: usize,
    /// How long EndLoad waits for the acquisition pipeline to drain before
    /// declaring the job wedged.
    pub drain_timeout: Duration,
    /// Simulated per-megabyte conversion cost added to every DataConverter
    /// invocation (default zero). On hosts without enough cores to show
    /// real converter scaling — the paper's testbed had 16 — this models
    /// conversion as overlappable work so the Figure 9 core sweep remains
    /// reproducible; leave at zero for genuine CPU-bound measurement.
    pub simulated_convert_cost_per_mb: Duration,
    /// Per-job retry budget for each transient-failure site (staged-file
    /// upload, COPY trigger, retryable application statements).
    pub retry_budget: u32,
    /// First retry backoff delay.
    pub retry_base_delay: Duration,
    /// Retry backoff ceiling.
    pub retry_max_delay: Duration,
    /// Optional deterministic fault plan. `None` (the default) disables
    /// injection entirely; a plan arms the store, CDW, converter, and
    /// transport hooks with the plan's seed.
    pub fault_plan: Option<FaultPlan>,
    /// How many recent [`JobReport`](crate::report::JobReport)s the node
    /// retains (ring buffer, oldest evicted). Exposed through
    /// `recent_job_reports()` and the stats snapshot. Must be ≥ 1.
    pub report_history: usize,
    /// Capacity of the in-memory span/event journal (ring buffer). Must
    /// be ≥ 1.
    pub journal_capacity: usize,
    /// Optional JSONL sink: every journal event is appended to this file
    /// as one JSON object per line. `None` (the default) keeps the
    /// journal in-memory only.
    pub journal_jsonl: Option<std::path::PathBuf>,
    /// Time-series sampler tick. `Duration::ZERO` (the default) disables
    /// the background sampler entirely; a nonzero tick snapshots the
    /// metrics named in [`SAMPLER_METRICS`] every tick into bounded rings
    /// (the `Series` introspection topic).
    pub sampler_tick: Duration,
    /// Points retained per sampled metric (sliding window). Must be ≥ 2
    /// when the sampler is enabled, so rates can be derived from
    /// consecutive deltas.
    pub sampler_capacity: usize,
    /// Maximum concurrently connected sessions per node. A logon beyond
    /// this limit is refused with retryable `SERVER_BUSY`. Must be ≥ 1.
    pub max_sessions: usize,
    /// Maximum concurrently running jobs (imports + exports) per node.
    /// `BeginLoad`/`BeginExport` beyond this is refused with retryable
    /// `SERVER_BUSY` — the legacy client backs off and retries. Must be
    /// ≥ 1.
    pub max_concurrent_jobs: usize,
    /// Close a session when no frame (including `Keepalive`) arrives for
    /// this long. `Duration::ZERO` (the default) disables idle timeout.
    /// The session's in-flight jobs are aborted and their resources
    /// released, exactly as on disconnect.
    pub session_idle_timeout: Duration,
    /// Per-tenant SLO objectives and burn-rate alerting policy evaluated
    /// by the `Health` endpoint.
    pub slo: SloPolicy,
}

impl Default for VirtualizerConfig {
    fn default() -> Self {
        let cores = host_cores();
        VirtualizerConfig {
            credits: cores * 4,
            converter_threads: cores,
            file_size_threshold: 4 * 1024 * 1024,
            compress_staged: false,
            staging_bucket: "etlv-staging".into(),
            staging_delimiter: b'|',
            upload_throttle: Throttle::unlimited(),
            apply_strategy: ApplyStrategy::BulkAdaptive,
            max_errors: 0,
            max_retries: 64,
            memory_cap: 0,
            export_chunk_rows: 4096,
            export_prefetch_chunks: 4,
            drain_timeout: Duration::from_secs(600),
            simulated_convert_cost_per_mb: Duration::ZERO,
            retry_budget: 4,
            retry_base_delay: Duration::from_millis(2),
            retry_max_delay: Duration::from_millis(200),
            fault_plan: None,
            report_history: 16,
            journal_capacity: 4096,
            journal_jsonl: None,
            sampler_tick: Duration::ZERO,
            sampler_capacity: 512,
            max_sessions: 256,
            max_concurrent_jobs: 64,
            session_idle_timeout: Duration::ZERO,
            slo: SloPolicy::default(),
        }
    }
}

/// CPUs available to this process (4 when the host will not say): what
/// the default pool sizes derive from.
pub(crate) fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Counters and gauges the background sampler tracks: the series the
/// paper's Fig. 8/9 plots are built from (rows/sec, bytes/sec, credit
/// occupancy, adaptive/upload retry rates), plus — one ring per tenant —
/// enough `tenant.*` series to plot each tenant's throughput and error
/// contribution over time.
pub const SAMPLER_METRICS: [&str; 18] = [
    "pipeline.convert_rows",
    "pipeline.convert_bytes",
    "gateway.chunks_received",
    "gateway.chunk_bytes",
    "cloudstore.put_bytes",
    "credit.in_flight",
    "memory.in_flight",
    "pipeline.upload_retries",
    "adaptive.transient_retries",
    "gateway.active_sessions",
    "gateway.active_jobs",
    "pool.busy_workers",
    "lock.wait_us",
    "tenant.chunks",
    "tenant.rows_applied",
    "tenant.errors_et",
    "tenant.errors_uv",
    "tenant.active_jobs",
];

impl VirtualizerConfig {
    /// Validate invariants; returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.credits == 0 {
            return Err("credits must be at least 1".into());
        }
        if self.file_size_threshold == 0 {
            return Err("file_size_threshold must be positive".into());
        }
        if self.export_chunk_rows == 0 {
            return Err("export_chunk_rows must be positive".into());
        }
        if self.retry_base_delay > self.retry_max_delay {
            return Err("retry_base_delay must not exceed retry_max_delay".into());
        }
        if self.max_sessions == 0 {
            return Err("max_sessions must be at least 1".into());
        }
        if self.max_concurrent_jobs == 0 {
            return Err("max_concurrent_jobs must be at least 1".into());
        }
        if self.report_history == 0 {
            return Err("report_history must be at least 1".into());
        }
        if self.journal_capacity == 0 {
            return Err("journal_capacity must be at least 1".into());
        }
        if !self.sampler_tick.is_zero() && self.sampler_capacity < 2 {
            return Err("sampler_capacity must be at least 2 when the sampler is enabled".into());
        }
        if self.slo.fast_window.is_zero() || self.slo.slow_window.is_zero() {
            return Err("slo windows must be nonzero".into());
        }
        if self.slo.fast_window >= self.slo.slow_window {
            return Err("slo.fast_window must be shorter than slo.slow_window".into());
        }
        if self.slo.latency_target.is_zero() {
            return Err("slo.latency_target must be nonzero".into());
        }
        for (name, v) in [
            ("slo.latency_objective", self.slo.latency_objective),
            ("slo.error_rate_objective", self.slo.error_rate_objective),
            (
                "slo.availability_objective",
                self.slo.availability_objective,
            ),
        ] {
            if !(v > 0.0 && v < 1.0) {
                return Err(format!("{name} must be in (0, 1)"));
            }
        }
        for (name, v) in [
            ("slo.fast_burn", self.slo.fast_burn),
            ("slo.slow_burn", self.slo.slow_burn),
            ("slo.overload_ratio", self.slo.overload_ratio),
        ] {
            if v.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(format!("{name} must be positive"));
            }
        }
        Ok(())
    }

    /// The retry policy the config's budget/backoff knobs describe.
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            budget: self.retry_budget,
            base: self.retry_base_delay,
            cap: self.retry_max_delay,
        }
    }

    /// The fault seed retry jitter derives from (0 when injection is off).
    pub fn fault_seed(&self) -> u64 {
        self.fault_plan.as_ref().map(|p| p.seed).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(VirtualizerConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_catches_zeros() {
        let c = VirtualizerConfig {
            credits: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = VirtualizerConfig {
            file_size_threshold: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = VirtualizerConfig {
            retry_base_delay: Duration::from_secs(1),
            retry_max_delay: Duration::from_millis(1),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = VirtualizerConfig {
            report_history: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = VirtualizerConfig {
            max_sessions: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = VirtualizerConfig {
            max_concurrent_jobs: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = VirtualizerConfig {
            journal_capacity: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = VirtualizerConfig {
            sampler_tick: Duration::from_millis(10),
            sampler_capacity: 1,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = VirtualizerConfig {
            sampler_tick: Duration::from_millis(10),
            sampler_capacity: 2,
            ..Default::default()
        };
        assert!(c.validate().is_ok());
        let mut c = VirtualizerConfig::default();
        c.slo.fast_window = c.slo.slow_window;
        assert!(c.validate().is_err());
        let mut c = VirtualizerConfig::default();
        c.slo.latency_objective = 1.0;
        assert!(c.validate().is_err());
        let mut c = VirtualizerConfig::default();
        c.slo.fast_burn = 0.0;
        assert!(c.validate().is_err());
    }
}
