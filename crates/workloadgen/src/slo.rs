//! SLO summarization: fold per-job outcomes into a percentile report.

/// Nearest-rank percentile over a sorted slice (µs). `p` in `(0, 100]`.
pub fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

/// Per-scenario SLO rollup. Latency percentiles cover *completed* jobs
/// and are measured from each job's scheduled arrival to its completion,
/// so queueing behind a burst counts against the SLO exactly as it would
/// against a production deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSummary {
    /// Scenario name.
    pub scenario: String,
    /// Total jobs replayed.
    pub jobs: u64,
    /// Jobs that completed.
    pub completed: u64,
    /// Jobs rejected by admission control after exhausting busy-retry.
    pub rejected: u64,
    /// Jobs that failed for any other reason.
    pub failed: u64,
    /// Median completed-job latency, ms.
    pub p50_ms: f64,
    /// 95th-percentile latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Worst completed-job latency, ms.
    pub max_ms: f64,
    /// Mean completed-job latency, ms.
    pub mean_ms: f64,
    /// `rejected / jobs`.
    pub admission_rejection_rate: f64,
    /// `SERVER_BUSY` rejections absorbed by client backoff (jobs that
    /// eventually got in).
    pub admission_retries: u64,
    /// Server-side cloud-call retries across all jobs.
    pub server_retries: u64,
    /// Rows landed in ET (transformation-error) tables.
    pub errors_et: u64,
    /// Rows landed in UV (uniqueness-violation) tables.
    pub errors_uv: u64,
    /// Rows applied to target tables.
    pub rows_applied: u64,
    /// Rows pulled back out by export jobs.
    pub rows_exported: u64,
    /// Replay wall time, ms.
    pub wall_ms: f64,
}

impl SloSummary {
    /// Render as a JSON object (no serde in this tree — hand-built).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"scenario\":\"{}\",\"jobs\":{},\"completed\":{},\"rejected\":{},\"failed\":{},\
             \"p50_ms\":{:.3},\"p95_ms\":{:.3},\"p99_ms\":{:.3},\"max_ms\":{:.3},\"mean_ms\":{:.3},\
             \"admission_rejection_rate\":{:.4},\"admission_retries\":{},\"server_retries\":{},\
             \"errors_et\":{},\"errors_uv\":{},\"rows_applied\":{},\"rows_exported\":{},\
             \"wall_ms\":{:.1}}}",
            self.scenario,
            self.jobs,
            self.completed,
            self.rejected,
            self.failed,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.max_ms,
            self.mean_ms,
            self.admission_rejection_rate,
            self.admission_retries,
            self.server_retries,
            self.errors_et,
            self.errors_uv,
            self.rows_applied,
            self.rows_exported,
            self.wall_ms,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let us: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&us, 50.0), 50);
        assert_eq!(percentile(&us, 95.0), 95);
        assert_eq!(percentile(&us, 99.0), 99);
        assert_eq!(percentile(&us, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[], 99.0), 0);
    }

    #[test]
    fn json_has_the_slo_fields() {
        let s = SloSummary {
            scenario: "steady".into(),
            jobs: 10,
            completed: 9,
            rejected: 1,
            failed: 0,
            p50_ms: 1.5,
            p95_ms: 4.0,
            p99_ms: 4.5,
            max_ms: 5.0,
            mean_ms: 2.0,
            admission_rejection_rate: 0.1,
            admission_retries: 3,
            server_retries: 0,
            errors_et: 2,
            errors_uv: 1,
            rows_applied: 900,
            rows_exported: 40,
            wall_ms: 123.4,
        };
        let json = s.to_json();
        for key in [
            "\"p50_ms\":",
            "\"p95_ms\":",
            "\"p99_ms\":",
            "\"admission_rejection_rate\":0.1000",
            "\"errors_uv\":1",
        ] {
            assert!(json.contains(key), "{json}");
        }
    }
}
