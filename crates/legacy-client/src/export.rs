//! Export-job execution: parallel data sessions pull result chunks by
//! index; the client reassembles them in order.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use etlv_protocol::layout::Layout;
use etlv_protocol::message::{BeginExport, ExportChunk, Message, SessionRole};
use etlv_script::ExportJob;
use parking_lot::Mutex;

use crate::connect::Connect;
use crate::error::ClientError;
use crate::retry::{next_seed, with_busy_retry_counted};
use crate::session::{unexpected, Session};
use crate::ClientOptions;

/// Outcome of an export job.
#[derive(Debug, Clone)]
pub struct ExportResult {
    /// Reassembled output-file bytes (in the job's record format).
    pub data: Vec<u8>,
    /// Records exported.
    pub rows: u64,
    /// Result layout the server derived from the SELECT.
    pub layout: Layout,
    /// Total wall time.
    pub elapsed: std::time::Duration,
    /// `SERVER_BUSY` admission rejections absorbed by backoff across the
    /// job's control and data sessions.
    pub admission_retries: u64,
}

/// Run an export job.
pub fn run_export(
    connector: &Arc<dyn Connect>,
    job: &ExportJob,
    options: &ClientOptions,
) -> Result<ExportResult, ClientError> {
    let started = Instant::now();
    let sessions = options.sessions.unwrap_or(job.sessions).max(1);

    // Admission rejections (session/job limits) come back as retryable
    // SERVER_BUSY — back off under the options' policy. The seed is a
    // per-process counter so concurrent exports don't retry in lockstep.
    let job_seed = next_seed();
    let admission_retries = Arc::new(AtomicU64::new(0));
    let mut control =
        with_busy_retry_counted(options.busy_retry, job_seed, &admission_retries, || {
            Session::logon(
                connector.as_ref(),
                &job.logon.user,
                &job.logon.password,
                SessionRole::Control,
                0,
            )
        })?;
    control.set_read_timeout(options.read_timeout);
    let begin = BeginExport {
        select: job.select.clone(),
        format: job.format,
        sessions,
        chunk_rows: options.chunk_rows as u32,
    };
    // SERVER_BUSY here is non-fatal server-side: the control session stays
    // usable, so the retry re-asks on the same connection.
    let (export_token, layout) =
        with_busy_retry_counted(options.busy_retry, job_seed ^ 1, &admission_retries, || {
            match control.request(Message::BeginExport(begin.clone()))? {
                Message::BeginExportOk(ok) => Ok((ok.export_token, ok.layout)),
                other => Err(unexpected("BeginExportOk", &other)),
            }
        })?;

    // Parallel sessions claim chunk indexes from a shared counter; each
    // chunk lands in the ordered buffer as it arrived, its data still a
    // slice of its frame.
    let next_index = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let received: Arc<Mutex<Vec<ExportChunk>>> = Arc::new(Mutex::new(Vec::new()));

    let mut workers = Vec::new();
    for _ in 0..sessions {
        let connector = Arc::clone(connector);
        let next_index = Arc::clone(&next_index);
        let done = Arc::clone(&done);
        let received = Arc::clone(&received);
        let user = job.logon.user.clone();
        let password = job.logon.password.clone();
        let read_timeout = options.read_timeout;
        let busy_retry = options.busy_retry;
        let seed = next_seed();
        let admission_retries = Arc::clone(&admission_retries);
        workers.push(std::thread::spawn(move || -> Result<(), ClientError> {
            let mut session =
                with_busy_retry_counted(busy_retry, seed, &admission_retries, || {
                    Session::logon(
                        connector.as_ref(),
                        &user,
                        &password,
                        SessionRole::Data,
                        export_token,
                    )
                })?;
            session.set_read_timeout(read_timeout);
            loop {
                if done.load(Ordering::Acquire) {
                    break;
                }
                let index = next_index.fetch_add(1, Ordering::AcqRel);
                let reply = session.request(Message::ExportChunkReq { index })?;
                let chunk = match reply {
                    Message::ExportChunk(c) => c,
                    other => return Err(unexpected("ExportChunk", &other)),
                };
                let last = chunk.last;
                if chunk.record_count > 0 {
                    received.lock().push(chunk);
                }
                if last {
                    done.store(true, Ordering::Release);
                    break;
                }
            }
            session.logoff();
            Ok(())
        }));
    }
    for worker in workers {
        worker
            .join()
            .map_err(|_| ClientError::Protocol("export session panicked".into()))??;
    }
    control.logoff();

    let mut chunks = Arc::try_unwrap(received)
        .map_err(|_| ClientError::Protocol("chunk buffer still shared".into()))?
        .into_inner();
    chunks.sort_by_key(|c| c.index);
    let rows: u64 = chunks.iter().map(|c| u64::from(c.record_count)).sum();
    let mut data = Vec::with_capacity(chunks.iter().map(|c| c.data.len()).sum());
    for chunk in chunks {
        data.extend_from_slice(&chunk.data);
    }
    Ok(ExportResult {
        data,
        rows,
        layout,
        elapsed: started.elapsed(),
        admission_retries: admission_retries.load(Ordering::Relaxed),
    })
}
