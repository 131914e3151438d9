//! Job reports and node metrics — the measurement surface for the paper's
//! §9 experiments.

use std::time::Duration;

use etlv_protocol::message::LoadReport;

/// Phase-timed accounting for one completed load job.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobReport {
    /// Records received from the client.
    pub rows_received: u64,
    /// Rows applied to the target table.
    pub rows_applied: u64,
    /// Rows recorded in the ET table.
    pub errors_et: u64,
    /// Rows recorded in the UV table.
    pub errors_uv: u64,
    /// Acquisition phase: first chunk → staging table loaded (includes
    /// conversion, serialization, upload, and COPY).
    pub acquisition: Duration,
    /// Application phase: DML execution including adaptive retries.
    pub application: Duration,
    /// Startup/teardown and everything else.
    pub other: Duration,
    /// Staged files uploaded.
    pub files_staged: u64,
    /// Bytes written to staging files.
    pub bytes_staged: u64,
    /// Upload attempts retried after transient store failures.
    pub upload_retries: u64,
    /// CDW statements retried after transient engine/store failures
    /// (COPY trigger, application DML, error-table writes).
    pub cdw_retries: u64,
    /// Faults the node's fault plan injected between the job's
    /// `BeginLoad` and its report (0 when no plan is configured); jobs
    /// that overlap can count each other's faults.
    pub faults_injected: u64,
    /// The job was aborted mid-flight (client disconnect, idle timeout,
    /// or shutdown) rather than running to completion or a clean failure.
    pub aborted: bool,
}

impl JobReport {
    /// Convert into the wire-level report sent back to the client.
    pub fn to_wire(&self) -> LoadReport {
        LoadReport {
            rows_received: self.rows_received,
            rows_applied: self.rows_applied,
            errors_et: self.errors_et,
            errors_uv: self.errors_uv,
            acquisition_micros: self.acquisition.as_micros() as u64,
            application_micros: self.application.as_micros() as u64,
            other_micros: self.other.as_micros() as u64,
            retries: self.upload_retries + self.cdw_retries,
            faults_injected: self.faults_injected,
            upload_retries: self.upload_retries,
            cdw_retries: self.cdw_retries,
        }
    }

    /// Total job wall time.
    pub fn total(&self) -> Duration {
        self.acquisition + self.application + self.other
    }
}

/// Node-level counters, aggregated across jobs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Load jobs completed.
    pub jobs_completed: u64,
    /// Load jobs failed.
    pub jobs_failed: u64,
    /// Export jobs started (counted when `BeginExport` is accepted).
    pub exports_started: u64,
    /// Jobs aborted mid-flight (disconnect, idle timeout, shutdown).
    pub jobs_aborted: u64,
    /// Total records ingested.
    pub rows_ingested: u64,
    /// Total records served to export sessions.
    pub rows_exported: u64,
    /// Total encoded bytes served to export sessions.
    pub bytes_exported: u64,
    /// Credit-pool stalls (back-pressure engagements).
    pub credit_stalls: u64,
    /// Total time sessions spent blocked on credits.
    pub credit_stall_time: Duration,
    /// Peak in-flight memory observed.
    pub peak_memory: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_conversion() {
        let report = JobReport {
            rows_received: 10,
            rows_applied: 8,
            errors_et: 1,
            errors_uv: 1,
            acquisition: Duration::from_millis(5),
            application: Duration::from_millis(7),
            other: Duration::from_micros(250),
            files_staged: 2,
            bytes_staged: 1024,
            upload_retries: 3,
            cdw_retries: 2,
            faults_injected: 5,
            aborted: false,
        };
        let wire = report.to_wire();
        assert_eq!(wire.rows_received, 10);
        assert_eq!(wire.acquisition_micros, 5000);
        assert_eq!(wire.application_micros, 7000);
        assert_eq!(wire.other_micros, 250);
        assert_eq!(wire.retries, 5, "upload + cdw retries combined");
        assert_eq!(wire.upload_retries, 3);
        assert_eq!(wire.cdw_retries, 2);
        assert_eq!(
            wire.retries,
            wire.upload_retries + wire.cdw_retries,
            "total stays consistent with the split"
        );
        assert_eq!(wire.faults_injected, 5);
        assert_eq!(report.total(), Duration::from_micros(12_250));
    }
}
