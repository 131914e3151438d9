//! Import-job execution: parallel data sessions with synchronous
//! chunk acknowledgment, then the DML application phase.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use etlv_protocol::message::{BeginLoad, DataChunk, EndLoad, LoadReport, Message, SessionRole};
use etlv_protocol::trace::TraceContext;
use etlv_script::ImportJob;
use parking_lot::Mutex;

use crate::connect::Connect;
use crate::error::ClientError;
use crate::input::split_chunks;
use crate::retry::with_busy_retry_counted;
use crate::session::{unexpected, Session};
use crate::ClientOptions;

/// Client-side wall-clock phase breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Data acquisition (first chunk sent → all chunks acked).
    pub acquisition: Duration,
    /// DML application (EndLoad sent → LoadReport received).
    pub application: Duration,
    /// Everything else (logons, job begin, teardown).
    pub other: Duration,
}

/// Outcome of an import job.
#[derive(Debug, Clone)]
pub struct ImportResult {
    /// The server's final report.
    pub report: LoadReport,
    /// Client-side phase timings.
    pub phases: PhaseTimes,
    /// Records sent.
    pub rows_sent: u64,
    /// Raw bytes sent in data chunks.
    pub bytes_sent: u64,
    /// The client-minted trace id the job's server-side spans carry —
    /// correlate with `Session::trace(job)` or the journal JSONL sink.
    pub trace_id: u64,
    /// `SERVER_BUSY` admission rejections absorbed by backoff across the
    /// job's control and data sessions — how hard this job had to knock
    /// before the node let it in.
    pub admission_retries: u64,
}

/// Run an import job: `data` is the content of the job's input file.
pub fn run_import(
    connector: &Arc<dyn Connect>,
    job: &ImportJob,
    data: &[u8],
    options: &ClientOptions,
) -> Result<ImportResult, ClientError> {
    let started = Instant::now();
    let sessions = options.sessions.unwrap_or(job.sessions).max(1);

    // Mint the job's trace context client-side: every server-side span —
    // gateway, converter, uploader, COPY, apply — carries this trace id,
    // so one id correlates the client's view with the server's span tree.
    // It doubles as the backoff jitter seed, decorrelating concurrent
    // clients' retry schedules when the node answers SERVER_BUSY.
    let trace = TraceContext::mint();

    // Control session: logon + begin the load. Both can bounce off the
    // node's admission limits (sessions, concurrent jobs) — back off and
    // re-attempt under the options' busy-retry policy. Every absorbed
    // rejection is tallied per job for the result.
    let admission_retries = Arc::new(AtomicU64::new(0));
    let mut control = with_busy_retry_counted(
        options.busy_retry,
        trace.trace_id,
        &admission_retries,
        || {
            Session::logon(
                connector.as_ref(),
                &job.logon.user,
                &job.logon.password,
                SessionRole::Control,
                0,
            )
        },
    )?;
    control.set_read_timeout(options.read_timeout);
    let begin = BeginLoad {
        target_table: job.target.clone(),
        error_table_et: job.error_table_et.clone(),
        error_table_uv: job.error_table_uv.clone(),
        layout: job.layout.clone(),
        format: job.format,
        sessions,
        error_limit: job.errlimit,
        trace: Some(trace),
    };
    // A SERVER_BUSY here is non-fatal server-side: the control session
    // stays usable, so the retry re-asks on the same connection.
    let load_token = with_busy_retry_counted(
        options.busy_retry,
        trace.trace_id ^ 1,
        &admission_retries,
        || match control.request(Message::BeginLoad(begin.clone()))? {
            Message::BeginLoadOk { load_token } => Ok(load_token),
            other => Err(unexpected("BeginLoadOk", &other)),
        },
    )?;

    // Chunk the input.
    let chunks = split_chunks(data, job.format, options.chunk_rows)?;
    let rows_sent: u64 = chunks.iter().map(|c| c.record_count as u64).sum();
    let bytes_sent: u64 = chunks.iter().map(|c| c.data.len() as u64).sum();

    // Acquisition: N data sessions drain a shared queue; each chunk is
    // acked before the session takes the next (the synchronous legacy
    // protocol the paper describes in §5).
    let acquisition_started = Instant::now();
    let queue = Arc::new(Mutex::new(chunks.into_iter()));

    let mut workers = Vec::new();
    for worker_id in 0..sessions {
        let queue = Arc::clone(&queue);
        let connector = Arc::clone(connector);
        let user = job.logon.user.clone();
        let password = job.logon.password.clone();
        let read_timeout = options.read_timeout;
        let busy_retry = options.busy_retry;
        let admission_retries = Arc::clone(&admission_retries);
        workers.push(std::thread::spawn(move || -> Result<(), ClientError> {
            let seed = trace.trace_id ^ ((worker_id as u64) << 8);
            let mut session =
                with_busy_retry_counted(busy_retry, seed, &admission_retries, || {
                    Session::logon_traced(
                        connector.as_ref(),
                        &user,
                        &password,
                        SessionRole::Data,
                        load_token,
                        Some(trace),
                    )
                })?;
            session.set_read_timeout(read_timeout);
            let mut chunk_seq = (worker_id as u64) << 32;
            loop {
                // Its own statement, so the lock is released before the
                // request: a guard in the loop condition would be held
                // across the round trip and serialise the sessions.
                let next = queue.lock().next();
                let Some(chunk) = next else { break };
                chunk_seq += 1;
                let reply = session.request(Message::DataChunk(DataChunk {
                    chunk_seq,
                    base_seq: chunk.base_seq,
                    record_count: chunk.record_count,
                    data: chunk.data.into(),
                }))?;
                match reply {
                    Message::Ack { chunk_seq: acked } if acked == chunk_seq => {}
                    Message::Ack { chunk_seq: acked } => {
                        return Err(ClientError::Protocol(format!(
                            "ack for chunk {acked}, expected {chunk_seq}"
                        )))
                    }
                    other => return Err(unexpected("Ack", &other)),
                }
            }
            session.logoff();
            Ok(())
        }));
    }
    for worker in workers {
        worker
            .join()
            .map_err(|_| ClientError::Protocol("data session panicked".into()))??;
    }
    let acquisition = acquisition_started.elapsed();

    // Application phase: send the DML, wait for the report.
    let application_started = Instant::now();
    let report = match control.request(Message::EndLoad(EndLoad {
        dml: job.dml.clone(),
    }))? {
        Message::LoadReport(r) => r,
        other => return Err(unexpected("LoadReport", &other)),
    };
    let application = application_started.elapsed();

    control.logoff();
    let total = started.elapsed();
    Ok(ImportResult {
        report,
        phases: PhaseTimes {
            acquisition,
            application,
            other: total.saturating_sub(acquisition + application),
        },
        rows_sent,
        bytes_sent,
        trace_id: trace.trace_id,
        admission_retries: admission_retries.load(Ordering::Relaxed),
    })
}
