//! # etlv-legacy-client
//!
//! The legacy ETL client tool — the utility enterprises scripted their
//! ingestion pipelines around (the FastLoad/FastExport analog of the
//! paper's §2).
//!
//! The client executes compiled [`JobPlan`]s:
//!
//! - **Import**: opens a control session, begins the load (the server
//!   creates the error tables), opens N parallel data sessions, pumps the
//!   input file in chunks with a synchronous ack per chunk, then sends the
//!   job's DML for the application phase and collects the final report.
//! - **Export**: begins the export, then N data sessions pull result
//!   chunks by index and the client reassembles them in order into the
//!   output file.
//!
//! The client knows nothing about what is on the other end of its
//! [`Connect`]or — the reference legacy server and the virtualizer are
//! interchangeable, which is the paper's core claim.

pub mod connect;
pub mod error;
pub mod export;
pub mod import;
pub mod input;
pub mod retry;
pub mod session;

pub use connect::{Connect, FnConnector, TcpConnector};
pub use error::ClientError;
pub use etlv_protocol::backoff::RetryPolicy;
pub use export::ExportResult;
pub use import::{ImportResult, PhaseTimes};
pub use session::Session;

use std::path::Path;
use std::sync::Arc;

use etlv_script::{compile, parse_script, JobPlan};

/// Tuning knobs for client execution.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Records per data chunk.
    pub chunk_rows: usize,
    /// Override the plan's session count.
    pub sessions: Option<u16>,
    /// Per-read reply timeout on every session. `None` (the default)
    /// blocks indefinitely — legacy behavior; setting it turns a severed
    /// or silent link into [`ClientError::Timeout`] instead of a hang.
    pub read_timeout: Option<std::time::Duration>,
    /// Backoff schedule for retryable `SERVER_BUSY` admission rejections
    /// (the node's session or concurrent-job limit). `budget` is the
    /// number of re-attempts after the first try; set it to 0 to surface
    /// the rejection immediately.
    pub busy_retry: RetryPolicy,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            chunk_rows: 1000,
            sessions: None,
            read_timeout: None,
            busy_retry: RetryPolicy {
                budget: 8,
                base: std::time::Duration::from_millis(5),
                cap: std::time::Duration::from_millis(250),
            },
        }
    }
}

/// The legacy ETL client.
pub struct LegacyEtlClient {
    connector: Arc<dyn Connect>,
    options: ClientOptions,
}

/// Result of running a whole script.
#[derive(Debug)]
pub enum ScriptResult {
    /// The script was an import job.
    Import(ImportResult),
    /// The script was an export job; holds the exported bytes.
    Export(ExportResult),
}

impl LegacyEtlClient {
    /// Client over `connector` with default options.
    pub fn new(connector: Arc<dyn Connect>) -> LegacyEtlClient {
        LegacyEtlClient {
            connector,
            options: ClientOptions::default(),
        }
    }

    /// Client with explicit options.
    pub fn with_options(connector: Arc<dyn Connect>, options: ClientOptions) -> LegacyEtlClient {
        LegacyEtlClient { connector, options }
    }

    /// The configured options.
    pub fn options(&self) -> &ClientOptions {
        &self.options
    }

    /// The connector.
    pub fn connector(&self) -> &Arc<dyn Connect> {
        &self.connector
    }

    /// Parse, compile, and run a job script. File paths in the script
    /// resolve relative to `base_dir`.
    pub fn run_script(&self, source: &str, base_dir: &Path) -> Result<ScriptResult, ClientError> {
        let script = parse_script(source).map_err(|e| ClientError::Script(e.to_string()))?;
        let plan = compile(&script).map_err(|e| ClientError::Script(e.to_string()))?;
        match plan {
            JobPlan::Import(job) => {
                let data = std::fs::read(base_dir.join(&job.infile))?;
                Ok(ScriptResult::Import(self.run_import_data(&job, &data)?))
            }
            JobPlan::Export(job) => {
                let result = self.run_export(&job)?;
                std::fs::write(base_dir.join(&job.outfile), &result.data)?;
                Ok(ScriptResult::Export(result))
            }
        }
    }

    /// Run an import job with in-memory input data (the file contents).
    pub fn run_import_data(
        &self,
        job: &etlv_script::ImportJob,
        data: &[u8],
    ) -> Result<ImportResult, ClientError> {
        import::run_import(&self.connector, job, data, &self.options)
    }

    /// Run an export job, returning the exported bytes.
    pub fn run_export(&self, job: &etlv_script::ExportJob) -> Result<ExportResult, ClientError> {
        export::run_export(&self.connector, job, &self.options)
    }
}
