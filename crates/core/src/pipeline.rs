//! The acquisition pipeline (paper §5, Figures 2/4), multiplexed over a
//! node-wide worker runtime.
//!
//! Stage 1 — the session handler (PXC) — receives a raw chunk, acquires a
//! **credit**, reserves **memory**, pushes the chunk onto its job's queue,
//! and acks the client immediately. Stage 2 — a runtime worker — runs the
//! paper's **DataConverter** and **FileWriter** back to back: it converts
//! the chunk, returns the credit *just before the write* (exactly as
//! Figure 4 shows), then appends the staged text to the job's staging
//! buffer, rotating at the size threshold and uploading full parts.
//!
//! A job whose loader compresses stages LZ frames
//! ([`compress`](mod@etlv_cloudstore::compress)) instead of text: the
//! worker that stages a chunk frames its job's text once 256 KiB is
//! ready — a chunk that big on its own, or smaller chunks coalesced — and
//! compresses it outside the staging lock. A part is then a
//! concatenation of frames, and rotation and `finish()` only upload
//! (`finish()` frames whatever text is left first).
//!
//! A [`WorkerRuntime`] is created once per node and shared by every
//! concurrent job: `converter_threads` worker threads scan the registered
//! jobs' queues round-robin, so N concurrent jobs still cost a fixed
//! number of OS threads and no job can starve another of workers. A
//! [`Pipeline`] is the lightweight per-job handle onto that runtime:
//! it registers the job at `BeginLoad`, collects its accounting, and
//! deregisters at `finish()` (clean drain) or `abort()` (discard, used by
//! session teardown when a client disconnects mid-load).

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use etlv_cloudstore::{compress, BulkLoader};
use parking_lot::{Condvar, Mutex};

use crate::config::VirtualizerConfig;
use crate::convert::{AcqError, ConvertScratch, DataConverter};
use crate::credit::Credit;
use crate::fault::{FaultInjector, InjectionPoint, RetryPolicy};
use crate::memory::MemGuard;
use crate::obs::{CpuTimer, Obs, SpanIds, TenantObs};

/// A raw chunk travelling from a session handler into the pipeline. The
/// credit and memory reservation ride along.
pub struct RawChunk {
    /// 1-based input row number of the first record.
    pub base_seq: u64,
    /// Raw wire bytes.
    pub data: Bytes,
    /// The back-pressure credit (returned just before the file write).
    pub credit: Credit,
    /// The in-flight memory reservation (released once staged).
    pub memory: MemGuard,
    /// When the session handler enqueued the chunk — runtime workers
    /// derive the `chunk.queue` wait span from this.
    pub enqueued: Instant,
}

/// Staged text of a compressing job that becomes one frame: a frame
/// large enough that the codec's 64 KiB window finds most of the
/// repeats, small enough that a job's workers compress side by side. A
/// smaller file-size threshold frames at the threshold instead.
const FRAME_TEXT: usize = 256 * 1024;

/// Final accounting for a drained pipeline.
#[derive(Debug, Default, Clone)]
pub struct PipelineReport {
    /// Rows converted and staged.
    pub rows_staged: u64,
    /// Bytes written into staging files (pre-compression).
    pub bytes_staged: u64,
    /// Staged files uploaded (object keys, part order).
    pub files: Vec<String>,
    /// Per-record acquisition errors (→ ET table).
    pub acq_errors: Vec<AcqError>,
    /// Fatal pipeline failures (conversion framing, upload).
    pub fatal: Vec<String>,
    /// Upload attempts retried after transient store failures.
    pub upload_retries: u64,
}

/// Per-job state registered with the runtime. The queue is only ever
/// touched under the runtime's state lock (see [`RtShared::state`]);
/// accounting fields are atomics or their own locks.
struct JobRt {
    job: u64,
    ids: SpanIds,
    /// The owning session's tenant metric block: stage latencies land
    /// here.
    tenant: Arc<TenantObs>,
    converter: DataConverter,
    loader: Arc<BulkLoader>,
    prefix: String,
    chunks: Mutex<VecDeque<RawChunk>>,
    /// Chunks accepted via the sink.
    queued: AtomicU64,
    /// Chunks fully processed: staged, failed, or discarded.
    retired: AtomicU64,
    /// No further chunks will be accepted.
    closed: AtomicBool,
    /// Discard instead of staging (session teardown).
    aborted: AtomicBool,
    done_lock: Mutex<()>,
    done: Condvar,
    /// Staged bytes not yet uploaded.
    staging: Mutex<Staging>,
    errors: Mutex<Vec<AcqError>>,
    fatal: Mutex<Vec<String>>,
    rows_staged: AtomicU64,
    bytes_staged: AtomicU64,
    upload_retries: AtomicU64,
    next_part: AtomicU32,
    files: Mutex<Vec<(u32, String)>>,
}

/// A job's staged bytes on their way to the store.
#[derive(Default)]
struct Staging {
    /// Text waiting to be framed (compressing jobs only).
    pending: Vec<u8>,
    /// The part being filled: frames, or text for a plain job.
    part: Vec<u8>,
    /// Staged text the part holds; it rotates at the size threshold.
    part_text: usize,
}

impl JobRt {
    /// Append `bytes` — text, or one whole frame of `text` staged bytes —
    /// to the part; once the part holds `threshold` bytes of text, take it
    /// and its number for upload.
    fn append_to_part(
        &self,
        threshold: usize,
        bytes: &[u8],
        text: usize,
    ) -> Option<(Vec<u8>, u32)> {
        let mut staging = self.staging.lock();
        staging.part.extend_from_slice(bytes);
        staging.part_text += text;
        if staging.part_text < threshold {
            return None;
        }
        staging.part_text = 0;
        let part = self.next_part.fetch_add(1, Ordering::Relaxed);
        let next = Vec::with_capacity(threshold.min(1 << 22));
        Some((std::mem::replace(&mut staging.part, next), part))
    }

    fn drained(&self) -> bool {
        self.retired.load(Ordering::Acquire) >= self.queued.load(Ordering::Acquire)
    }

    /// Mark `n` chunks fully processed — staged, failed or discarded —
    /// and wake the drain waiter.
    fn retire(&self, n: u64) {
        let _guard = self.done_lock.lock();
        self.retired.fetch_add(n, Ordering::Release);
        self.done.notify_all();
    }
}

/// Round-robin job table: workers scan from the saved cursor so every
/// registered job gets chunks staged at the same rate regardless of
/// arrival order.
struct RtState {
    jobs: Vec<Arc<JobRt>>,
    next: usize,
}

struct RtShared {
    /// Guards the job table *and* every per-job queue operation: pushes,
    /// pops, and the closed/aborted transitions all serialize here, which
    /// is what makes the wait/notify protocol race-free. The critical
    /// sections are a queue op plus a notify — conversion and upload work
    /// happen outside it.
    state: Mutex<RtState>,
    /// Workers sleep here; signalled `notify_one` per chunk enqueued, so
    /// a push wakes one worker rather than the whole pool.
    raw_work: Condvar,
    stop: AtomicBool,
    threshold: usize,
    /// Pending text a compressing job frames at: [`FRAME_TEXT`], or the
    /// threshold when that is smaller.
    frame_text: usize,
    sim_cost: Duration,
    retry_policy: RetryPolicy,
    retry_seed: u64,
    injector: Option<Arc<FaultInjector>>,
    obs: Arc<Obs>,
}

impl RtShared {
    /// Pop the next raw chunk, round-robin across jobs; blocks until work
    /// arrives or the runtime stops.
    fn next_chunk(&self) -> Option<(Arc<JobRt>, RawChunk)> {
        let mut state = self.state.lock();
        let mut woken = false;
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return None;
            }
            let n = state.jobs.len();
            for i in 0..n {
                let idx = (state.next + i) % n;
                let popped = state.jobs[idx].chunks.lock().pop_front();
                if let Some(chunk) = popped {
                    if i > 0 {
                        // Job slots scanned past before finding work —
                        // the round-robin fairness cost.
                        self.obs.pool.rr_skips.add(i as u64);
                    }
                    let job = Arc::clone(&state.jobs[idx]);
                    state.next = (idx + 1) % n;
                    return Some((job, chunk));
                }
            }
            if woken {
                // Notified, scanned every slot, found nothing: the wakeup
                // was spurious or another worker won the race.
                self.obs.pool.idle_wakeups.inc();
            }
            self.raw_work.wait(&mut state);
            woken = true;
        }
    }
}

/// The node-wide worker runtime: a fixed set of worker threads, each
/// converting and staging chunks from every registered job's queue.
/// Created once at node assembly and stopped when the node drops.
pub struct WorkerRuntime {
    shared: Arc<RtShared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerRuntime {
    /// Start the worker pool: `converter_threads` workers, sized once
    /// from config.
    pub fn start(
        config: &VirtualizerConfig,
        obs: Arc<Obs>,
        injector: Option<Arc<FaultInjector>>,
    ) -> WorkerRuntime {
        let converters = config.converter_threads.max(1);
        let shared = Arc::new(RtShared {
            state: Mutex::new(RtState {
                jobs: Vec::new(),
                next: 0,
            }),
            raw_work: Condvar::new(),
            stop: AtomicBool::new(false),
            threshold: config.file_size_threshold,
            frame_text: config.file_size_threshold.min(FRAME_TEXT),
            sim_cost: config.simulated_convert_cost_per_mb,
            retry_policy: config.retry_policy(),
            retry_seed: config.fault_seed(),
            injector,
            obs,
        });
        shared.obs.runtime.workers.set(converters as u64);
        let threads = (0..converters)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    shared.obs.runtime.threads_started.inc();
                    let mut scratch = ConvertScratch::new();
                    let mut out = Vec::new();
                    while let Some((job, chunk)) = shared.next_chunk() {
                        shared.obs.pool.busy_workers.add(1);
                        convert_work(&shared, &job, chunk, &mut scratch, &mut out);
                        shared.obs.pool.busy_workers.sub(1);
                    }
                })
            })
            .collect();
        WorkerRuntime {
            shared,
            threads: Mutex::new(threads),
        }
    }

    /// Register a load job with the runtime and return its [`Pipeline`]
    /// handle. `prefix` is the object-key prefix staged files upload
    /// under (e.g. `job42/`); `job` is the load token stamped on every
    /// journal event; `ids` is the job's root span.
    #[allow(clippy::too_many_arguments)]
    pub fn begin_job(
        &self,
        converter: DataConverter,
        loader: Arc<BulkLoader>,
        prefix: String,
        job: u64,
        ids: SpanIds,
        drain_timeout: Duration,
        tenant: Arc<TenantObs>,
    ) -> Pipeline {
        let job_rt = Arc::new(JobRt {
            job,
            ids,
            tenant,
            converter,
            loader,
            prefix,
            chunks: Mutex::new(VecDeque::new()),
            queued: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
            staging: Mutex::new(Staging {
                pending: Vec::new(),
                part: Vec::with_capacity(self.shared.threshold.min(1 << 22)),
                part_text: 0,
            }),
            errors: Mutex::new(Vec::new()),
            fatal: Mutex::new(Vec::new()),
            rows_staged: AtomicU64::new(0),
            bytes_staged: AtomicU64::new(0),
            upload_retries: AtomicU64::new(0),
            next_part: AtomicU32::new(0),
            files: Mutex::new(Vec::new()),
        });
        self.shared.state.lock().jobs.push(Arc::clone(&job_rt));
        Pipeline {
            shared: Arc::clone(&self.shared),
            job: job_rt,
            drain_timeout,
        }
    }

    /// Jobs currently registered.
    pub fn active_jobs(&self) -> usize {
        self.shared.state.lock().jobs.len()
    }

    /// Stop and join every worker thread. Registered jobs' queued chunks
    /// are dropped with their guards (credits/memory release); callers
    /// abort or finish jobs before stopping in normal operation.
    pub fn stop(&self) {
        {
            let _state = self.shared.state.lock();
            self.shared.stop.store(true, Ordering::Relaxed);
            self.shared.raw_work.notify_all();
        }
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerRuntime {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A cloneable sink for pushing one job's chunks into the runtime (one
/// per data session).
#[derive(Clone)]
pub struct ChunkSink {
    shared: Arc<RtShared>,
    job: Arc<JobRt>,
}

impl ChunkSink {
    /// Enqueue a chunk. Returns `false` — dropping the chunk and thereby
    /// releasing its credit and memory guards — if the job is closed,
    /// aborted, or the runtime is stopping.
    pub fn push(&self, chunk: RawChunk) -> bool {
        let state = self.shared.state.lock();
        if self.job.closed.load(Ordering::Relaxed) || self.shared.stop.load(Ordering::Relaxed) {
            return false;
        }
        self.job.queued.fetch_add(1, Ordering::Release);
        let depth = {
            let mut q = self.job.chunks.lock();
            q.push_back(chunk);
            q.len()
        };
        self.shared.raw_work.notify_one();
        drop(state);
        self.shared.obs.runtime.queue_depth.record(depth as u64);
        true
    }
}

/// A running acquisition pipeline for one job: the per-job handle onto
/// the worker runtime.
pub struct Pipeline {
    shared: Arc<RtShared>,
    job: Arc<JobRt>,
    drain_timeout: Duration,
}

impl Pipeline {
    /// A sink for pushing chunks in (one clone per data session).
    pub fn sink(&self) -> ChunkSink {
        ChunkSink {
            shared: Arc::clone(&self.shared),
            job: Arc::clone(&self.job),
        }
    }

    fn close(&self) {
        let _state = self.shared.state.lock();
        self.job.closed.store(true, Ordering::Relaxed);
    }

    /// Mark the job aborted and drop everything still queued, releasing
    /// each chunk's credit/memory before it retires. In-flight chunks
    /// (already popped by a worker) are discarded by the worker when it
    /// observes the flag.
    fn mark_aborted(&self) {
        let queued = {
            let _state = self.shared.state.lock();
            self.job.closed.store(true, Ordering::Relaxed);
            self.job.aborted.store(true, Ordering::Relaxed);
            std::mem::take(&mut *self.job.chunks.lock())
        };
        if queued.is_empty() {
            return;
        }
        let retired = queued.len() as u64;
        drop(queued); // credit + memory release
        self.job.retire(retired);
    }

    /// Wait until every accepted chunk is retired; `false` on timeout.
    fn wait_drained(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.job.done_lock.lock();
        while !self.job.drained() {
            if Instant::now() >= deadline {
                return false;
            }
            self.job.done.wait_until(&mut guard, deadline);
        }
        true
    }

    fn unregister(&self) {
        let mut state = self.shared.state.lock();
        state.jobs.retain(|j| !Arc::ptr_eq(j, &self.job));
    }

    fn report(&self) -> PipelineReport {
        let mut files = std::mem::take(&mut *self.job.files.lock());
        files.sort_by_key(|(part, _)| *part);
        let mut report = PipelineReport {
            rows_staged: self.job.rows_staged.load(Ordering::Relaxed),
            bytes_staged: self.job.bytes_staged.load(Ordering::Relaxed),
            files: files.into_iter().map(|(_, key)| key).collect(),
            acq_errors: std::mem::take(&mut *self.job.errors.lock()),
            fatal: std::mem::take(&mut *self.job.fatal.lock()),
            upload_retries: self.job.upload_retries.load(Ordering::Relaxed),
        };
        report.acq_errors.sort_by_key(|e| e.seq);
        report
    }

    /// Close the input, wait for the job's chunks to drain, frame the
    /// text still pending, upload the final partial staging file, and
    /// assemble the report.
    pub fn finish(self) -> PipelineReport {
        self.close();
        if !self.wait_drained(self.drain_timeout) {
            // Give up on the stragglers: discard whatever is still queued
            // (releasing guards) and record the failure. Workers discard
            // in-flight chunks of an aborted job promptly, so the second
            // wait is short.
            self.mark_aborted();
            self.job
                .fatal
                .lock()
                .push("pipeline drain timed out".into());
            let _ = self.wait_drained(Duration::from_secs(60));
        }
        let Staging {
            pending, mut part, ..
        } = std::mem::take(&mut *self.job.staging.lock());
        if !self.job.aborted.load(Ordering::Relaxed) {
            if !pending.is_empty() {
                part.extend_from_slice(&compress_frame(&self.shared, &self.job, &pending));
            }
            if !part.is_empty() {
                let number = self.job.next_part.fetch_add(1, Ordering::Relaxed);
                upload_staged_part(&self.shared, &self.job, part, number);
            }
        }
        self.unregister();
        self.report()
    }

    /// Abort the job: discard queued and in-flight chunks (credits and
    /// memory release immediately), skip the final upload, and deregister.
    /// Used by session teardown when a client disconnects mid-load.
    pub fn abort(self) -> PipelineReport {
        self.mark_aborted();
        // In-flight chunks are bounded by the worker count; discarding is
        // quick, but never wait forever on a wedged worker.
        let _ = self.wait_drained(Duration::from_secs(60));
        *self.job.staging.lock() = Staging::default();
        self.unregister();
        self.report()
    }
}

/// Convert one chunk on a runtime worker into the worker's reused `out`
/// buffer — the queue-wait span, the (possibly fault-injected)
/// conversion — then stage it.
fn convert_work(
    shared: &RtShared,
    job: &JobRt,
    chunk: RawChunk,
    scratch: &mut ConvertScratch,
    out: &mut Vec<u8>,
) {
    if job.aborted.load(Ordering::Relaxed) {
        discard(job, chunk);
        return;
    }
    let obs = &shared.obs;
    // How long the chunk sat on the job queue before a worker picked it
    // up — the trace's queue_wait stage.
    let queue_wait = chunk.enqueued.elapsed();
    job.tenant.queue_wait_us.record_duration(queue_wait);
    obs.journal.emit_span(
        "chunk.queue",
        job.ids.child(obs.journal.next_span_id()),
        job.job,
        0,
        chunk.base_seq,
        chunk.data.len() as u64,
        queue_wait,
    );
    if !shared.sim_cost.is_zero() {
        let cost = shared
            .sim_cost
            .mul_f64(chunk.data.len() as f64 / 1_000_000.0);
        std::thread::sleep(cost);
    }
    if shared
        .injector
        .as_deref()
        .is_some_and(|i| i.decide(InjectionPoint::Convert))
    {
        let message = format!(
            "injected fault: converter worker failed on chunk at row {}",
            chunk.base_seq
        );
        fail_chunk(shared, job, chunk, message);
        return;
    }
    out.clear();
    // A panicking converter must not wedge the pipeline: contain it and
    // fail the chunk.
    let convert_started = Instant::now();
    let cpu = CpuTimer::start();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        job.converter
            .convert_into(chunk.base_seq, &chunk.data, out, scratch)
    }));
    let elapsed = convert_started.elapsed();
    let result = match outcome {
        Ok(result) => result,
        Err(panic) => {
            let what = crate::gateway::panic_text(&*panic);
            fail_chunk(
                shared,
                job,
                chunk,
                format!("converter worker panicked: {what}"),
            );
            return;
        }
    };
    match result {
        Ok(rows) => {
            if scratch.has_errors() {
                scratch.drain_errors_into(&mut job.errors.lock());
            }
            obs.pipeline.convert_chunks.inc();
            obs.pipeline.convert_rows.add(rows as u64);
            obs.pipeline.convert_bytes.add(out.len() as u64);
            obs.profile
                .convert
                .record(&job.tenant.convert_us, elapsed, cpu.elapsed());
            obs.journal.emit_span(
                "chunk.convert",
                job.ids.child(obs.journal.next_span_id()),
                job.job,
                0,
                chunk.base_seq,
                rows as u64,
                elapsed,
            );
            stage_chunk(shared, job, chunk, out, rows);
        }
        Err(e) => fail_chunk(shared, job, chunk, e.to_string()),
    }
}

/// The paper's FileWriter step, run by the worker that converted the
/// chunk: return the credit just before the write (Figure 4), append the
/// staged text to the part — or, for a compressing job, to the pending
/// text, framing it outside the lock once a frame's worth is ready —
/// release the memory reservation, and at the size threshold rotate the
/// part and upload it outside the lock. The chunk retires last, so
/// `finish()` finds every staged byte pending, in the part, or in the
/// store.
fn stage_chunk(shared: &RtShared, job: &JobRt, chunk: RawChunk, staged: &[u8], rows: u32) {
    if job.aborted.load(Ordering::Relaxed) {
        discard(job, chunk);
        return;
    }
    // Figure 4: the credit returns to the pool just before the data is
    // written out.
    drop(chunk.credit);
    let mut full = None;
    let text = if !job.loader.compresses() {
        full = job.append_to_part(shared.threshold, staged, staged.len());
        None
    } else if staged.len() >= shared.frame_text {
        // A chunk this big is a frame of its own, so what it stages does
        // not depend on how the workers interleave.
        Some(Cow::Borrowed(staged))
    } else {
        let mut staging = job.staging.lock();
        staging.pending.extend_from_slice(staged);
        (staging.pending.len() >= shared.frame_text)
            .then(|| Cow::Owned(std::mem::take(&mut staging.pending)))
    };
    // The staged text is in the job's staging buffer, or is the frame
    // about to be compressed into it, so the in-flight reservation
    // releases.
    drop(chunk.memory);
    if let Some(text) = text {
        let frame = compress_frame(shared, job, &text);
        full = job.append_to_part(shared.threshold, &frame, text.len());
    }
    job.rows_staged.fetch_add(rows as u64, Ordering::Relaxed);
    job.bytes_staged
        .fetch_add(staged.len() as u64, Ordering::Relaxed);
    if let Some((data, part)) = full {
        shared.obs.pipeline.files_rotated.inc();
        shared.obs.journal.emit_span(
            "file.rotate",
            job.ids.child(shared.obs.journal.next_span_id()),
            job.job,
            0,
            part as u64,
            data.len() as u64,
            Duration::ZERO,
        );
        // An abort that landed meanwhile discards the part; it waits for
        // this chunk to retire before it clears the rest.
        if !job.aborted.load(Ordering::Relaxed) {
            upload_staged_part(shared, job, data, part);
        }
    }
    job.retire(1);
}

/// Compress `text` into one LZ frame. Its time is charged to the upload
/// stage's clocks: it is the part of putting the bytes that a
/// compressing job does first.
fn compress_frame(shared: &RtShared, job: &JobRt, text: &[u8]) -> Vec<u8> {
    let started = Instant::now();
    let cpu = CpuTimer::start();
    let frame = compress::compress(text);
    let elapsed = started.elapsed();
    shared
        .obs
        .profile
        .upload
        .record(&job.tenant.upload_us, elapsed, cpu.elapsed());
    frame
}

/// Retire a chunk that will not be staged. Its guards — not the happy
/// path — own its credit and memory reservation, and they release
/// *before* the chunk retires: `finish()`/`abort()` return as soon as the
/// last chunk retires, and their callers count credits.
fn discard(job: &JobRt, chunk: RawChunk) {
    drop(chunk);
    job.retire(1);
}

/// Fail one chunk with a job-fatal `message`, then [`discard`] it.
fn fail_chunk(shared: &RtShared, job: &JobRt, chunk: RawChunk, message: String) {
    shared.obs.pipeline.convert_errors.inc();
    job.fatal.lock().push(message);
    discard(job, chunk);
}

/// Upload one finalized staging part. Each part gets `retry_budget`
/// additional attempts with capped, seeded backoff: a torn or failed put
/// is simply re-put (object stores overwrite whole objects, so a retry
/// erases a partial write). When the budget runs dry the failure is
/// recorded and the job fails cleanly at EndLoad — never a hang.
fn upload_staged_part(shared: &RtShared, job: &JobRt, file: Vec<u8>, part: u32) {
    let obs = &shared.obs;
    let key = format!("{}part-{part:05}", job.prefix);
    let mut retries = 0u64;
    let upload_started = Instant::now();
    let cpu = CpuTimer::start();
    let attempt = shared.retry_policy.retry(
        shared.retry_seed ^ (part as u64 + 1),
        |_| true,
        || retries += 1,
        || job.loader.upload_part_from(&key, &file),
    );
    let elapsed = upload_started.elapsed();
    obs.profile
        .upload
        .record(&job.tenant.upload_us, elapsed, cpu.elapsed());
    if retries > 0 {
        obs.pipeline.upload_retries.add(retries);
        obs.journal.emit_span(
            "upload.retry",
            job.ids.child(obs.journal.next_span_id()),
            job.job,
            0,
            part as u64 + 1,
            retries,
            Duration::ZERO,
        );
        job.upload_retries.fetch_add(retries, Ordering::Relaxed);
    }
    match attempt {
        Ok(_) => {
            obs.pipeline.upload_parts.inc();
            obs.pipeline.upload_bytes.add(file.len() as u64);
            obs.journal.emit_span(
                "file.upload",
                job.ids.child(obs.journal.next_span_id()),
                job.job,
                0,
                part as u64 + 1,
                file.len() as u64,
                elapsed,
            );
            job.files.lock().push((part, key));
        }
        Err(e) => job.fatal.lock().push(format!("upload {key}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::credit::CreditManager;
    use crate::memory::MemoryGauge;
    use etlv_cloudstore::{LoaderConfig, MemStore, ObjectStore};
    use etlv_protocol::data::LegacyType as T;
    use etlv_protocol::layout::Layout;
    use etlv_protocol::message::RecordFormat;

    const WIRE_VT: RecordFormat = RecordFormat::Vartext {
        delimiter: b'|',
        quote: b'"',
    };

    fn layout() -> Layout {
        Layout::new("L")
            .field("A", T::VarChar(10))
            .field("B", T::VarChar(10))
    }

    fn test_tenant() -> Arc<TenantObs> {
        Obs::default().registry.tenant("t")
    }

    fn loader_for(config: &VirtualizerConfig, store: Arc<MemStore>) -> Arc<BulkLoader> {
        Arc::new(BulkLoader::new(
            store as Arc<dyn ObjectStore>,
            LoaderConfig {
                bucket: config.staging_bucket.clone(),
                compress: config.compress_staged,
                throttle: config.upload_throttle,
            },
        ))
    }

    /// Start a runtime sized from `config` and register one job on it.
    /// The runtime is returned alongside: dropping it stops the workers.
    fn start_job(
        config: &VirtualizerConfig,
        loader: Arc<BulkLoader>,
        injector: Option<Arc<FaultInjector>>,
    ) -> (WorkerRuntime, Pipeline) {
        let runtime = WorkerRuntime::start(config, Arc::new(Obs::default()), injector);
        let pipeline = runtime.begin_job(
            DataConverter::new(layout(), WIRE_VT, config.staging_delimiter),
            loader,
            "j/".into(),
            1,
            SpanIds::default(),
            config.drain_timeout,
            test_tenant(),
        );
        (runtime, pipeline)
    }

    fn run_pipeline(
        config: &VirtualizerConfig,
        nchunks: u64,
        rows_per_chunk: u64,
    ) -> (PipelineReport, Arc<MemStore>) {
        let store = Arc::new(MemStore::new());
        let (runtime, pipeline) = start_job(config, loader_for(config, Arc::clone(&store)), None);
        let credits = CreditManager::new(config.credits);
        let memory = MemoryGauge::new(config.memory_cap);
        let sink = pipeline.sink();
        for c in 0..nchunks {
            let mut data = Vec::new();
            for r in 0..rows_per_chunk {
                data.extend_from_slice(format!("a{c}|b{r}\n").as_bytes());
            }
            let credit = credits.acquire();
            let mem = memory.reserve(data.len()).unwrap();
            assert!(sink.push(RawChunk {
                base_seq: c * rows_per_chunk + 1,
                data: data.into(),
                credit,
                memory: mem,
                enqueued: Instant::now(),
            }));
        }
        let report = pipeline.finish();
        assert_eq!(credits.available(), config.credits, "credits all returned");
        assert_eq!(memory.in_flight(), 0, "memory all released");
        // Joining first makes the count exact: a worker the scheduler has
        // not run yet still counts itself before it sees the stop flag.
        runtime.stop();
        let series = &runtime.shared.obs.runtime;
        assert_eq!(
            series.workers.value(),
            config.converter_threads.max(1) as u64
        );
        assert_eq!(
            series.threads_started.value(),
            series.workers.value(),
            "worker threads spawned once for the runtime, not per chunk"
        );
        (report, store)
    }

    #[test]
    fn stages_all_rows_small_files() {
        let config = VirtualizerConfig {
            file_size_threshold: 64, // force many rotations
            ..Default::default()
        };
        let (report, store) = run_pipeline(&config, 10, 20);
        assert!(report.fatal.is_empty(), "{:?}", report.fatal);
        assert_eq!(report.rows_staged, 200);
        assert!(
            report.files.len() > 1,
            "expected rotation, got {}",
            report.files.len()
        );
        assert_eq!(
            store.object_count(&config.staging_bucket),
            report.files.len()
        );
        // Every staged row is present exactly once across all parts.
        let mut total_lines = 0;
        for key in &report.files {
            let data = store.get(&config.staging_bucket, key).unwrap();
            total_lines += etlv_protocol::vartext::records(&data).count();
        }
        assert_eq!(total_lines, 200);
    }

    #[test]
    fn one_converter_per_credit_stages_everything() {
        // The paper's process-per-chunk sizing (Figure 10): as many
        // converters as credits, so every in-flight chunk can convert at
        // once.
        let config = VirtualizerConfig {
            converter_threads: 8,
            credits: 8,
            ..Default::default()
        };
        let (report, _) = run_pipeline(&config, 20, 5);
        assert!(report.fatal.is_empty());
        assert_eq!(report.rows_staged, 100);
        // The pool is persistent: `run_pipeline` reads 8 workers started
        // for 20 chunks off the registry, not 20 threads.
    }

    #[test]
    fn workers_spawned_once_per_runtime_not_per_chunk() {
        let config = VirtualizerConfig {
            converter_threads: 3,
            ..Default::default()
        };
        // `run_pipeline` reads 3 workers started off the registry.
        let (report, _) = run_pipeline(&config, 50, 4);
        assert_eq!(report.rows_staged, 200);
    }

    #[test]
    fn compressed_staging() {
        let config = VirtualizerConfig {
            compress_staged: true,
            ..Default::default()
        };
        let (report, store) = run_pipeline(&config, 4, 50);
        assert_eq!(report.rows_staged, 200);
        let key = &report.files[0];
        let raw = store.get(&config.staging_bucket, key).unwrap();
        assert!(etlv_cloudstore::compress::is_compressed(&raw));
    }

    /// `rows` wire records of dictionary text, `K|C1|C2` with five words
    /// per column drawn (skewed) from a 4096-word dictionary, numbered
    /// from `first`.
    fn dictionary_rows(seed: u64, first: u64, rows: u64) -> Vec<u8> {
        let mut rng = etlv_protocol::rng::SeededRng::new(seed);
        let dict: Vec<String> = (0..4096)
            .map(|rank| {
                (0..3 + rank % 8)
                    .map(|_| (b'a' + rng.gen_range(0, 26) as u8) as char)
                    .collect()
            })
            .collect();
        let mut rng = etlv_protocol::rng::SeededRng::new(seed ^ first);
        let mut out = Vec::new();
        for row in first..first + rows {
            out.extend_from_slice(format!("R{row:08}").as_bytes());
            for col in 0..2 * 5 {
                out.push(if col % 5 == 0 { b'|' } else { b' ' });
                let u = rng.next_f64();
                out.extend_from_slice(dict[(u * u * u * dict.len() as f64) as usize].as_bytes());
            }
            out.push(b'\n');
        }
        out
    }

    fn dictionary_layout() -> Layout {
        Layout::new("D")
            .field("K", T::VarChar(9))
            .field("C1", T::VarChar(60))
            .field("C2", T::VarChar(60))
    }

    /// Stage `chunks` (base row, wire bytes) through one compressing job
    /// on `threads` workers; the report and every staged object.
    fn run_compressed(threads: usize, chunks: &[(u64, Vec<u8>)]) -> (PipelineReport, Vec<Vec<u8>>) {
        let config = VirtualizerConfig {
            compress_staged: true,
            converter_threads: threads,
            ..Default::default()
        };
        let store = Arc::new(MemStore::new());
        let runtime = WorkerRuntime::start(&config, Arc::new(Obs::default()), None);
        let pipeline = runtime.begin_job(
            DataConverter::new(dictionary_layout(), WIRE_VT, b'|'),
            loader_for(&config, Arc::clone(&store)),
            "j/".into(),
            1,
            SpanIds::default(),
            config.drain_timeout,
            test_tenant(),
        );
        let credits = CreditManager::new(config.credits);
        let memory = MemoryGauge::new(0);
        let sink = pipeline.sink();
        for (base_seq, data) in chunks {
            assert!(sink.push(RawChunk {
                base_seq: *base_seq,
                data: Bytes::copy_from_slice(data),
                credit: credits.acquire(),
                memory: memory.reserve(data.len()).unwrap(),
                enqueued: Instant::now(),
            }));
        }
        let report = pipeline.finish();
        assert!(report.fatal.is_empty(), "{:?}", report.fatal);
        assert_eq!(
            (credits.available(), memory.in_flight()),
            (config.credits, 0)
        );
        let parts = report
            .files
            .iter()
            .map(|key| store.get(&config.staging_bucket, key).unwrap())
            .collect();
        (report, parts)
    }

    /// The raw length of each frame of a staged part, read off the frame
    /// headers (`magic | u64 raw_len | u64 body_len | body`).
    fn frame_lengths(part: &[u8]) -> Vec<u64> {
        let mut lengths = Vec::new();
        let mut at = 0;
        while at < part.len() {
            assert_eq!(&part[at..at + 4], etlv_cloudstore::compress::MAGIC);
            let field = |i: usize| u64::from_le_bytes(part[i..i + 8].try_into().unwrap());
            lengths.push(field(at + 4));
            at += 20 + field(at + 12) as usize;
        }
        lengths
    }

    #[test]
    fn small_chunks_coalesce_into_256_kib_frames() {
        // 40 chunks of 200 rows, about 17 KB of staged text each, staged
        // in order by one worker. The frames restart the codec's window
        // every 256 KiB, yet stage no more than the previous LZS2 codec
        // did compressing the whole part as one block (0.594 on this
        // text); this one reads 0.569.
        let chunks: Vec<(u64, Vec<u8>)> = (0..40)
            .map(|c| (c * 200 + 1, dictionary_rows(5, c * 200 + 1, 200)))
            .collect();
        let (report, parts) = run_compressed(1, &chunks);
        assert_eq!(report.rows_staged, 8_000);
        assert_eq!(parts.len(), 1);
        let frames = frame_lengths(&parts[0]);
        let (tail, full) = frames.split_last().unwrap();
        assert!(full.len() >= 2, "{frames:?}");
        for &len in full {
            assert!(
                (FRAME_TEXT as u64..FRAME_TEXT as u64 + 25_000).contains(&len),
                "{frames:?}"
            );
        }
        assert!(*tail > 0);
        assert_eq!(frames.iter().sum::<u64>(), report.bytes_staged);
        let text = etlv_cloudstore::decompress(&parts[0]).unwrap();
        assert_eq!(etlv_protocol::vartext::records(&text).count(), 8_000);
        let ratio = parts[0].len() as f64 / report.bytes_staged as f64;
        assert!(
            ratio <= 0.57,
            "{} -> {} ({ratio:.4})",
            report.bytes_staged,
            parts[0].len()
        );
    }

    #[test]
    fn big_chunks_stage_the_same_bytes_whatever_the_interleaving() {
        // Six chunks of 3,000 rows, each well over 256 KiB of staged text:
        // each is a frame of its own, so the staged total cannot depend on
        // which worker stages which chunk first.
        let chunks: Vec<(u64, Vec<u8>)> = (0..6)
            .map(|c| (c * 3_000 + 1, dictionary_rows(9, c * 3_000 + 1, 3_000)))
            .collect();
        let reversed: Vec<(u64, Vec<u8>)> = chunks.iter().rev().cloned().collect();
        let staged = |(report, parts): (PipelineReport, Vec<Vec<u8>>)| {
            assert_eq!(report.rows_staged, 18_000);
            let mut frames: Vec<u64> = parts.iter().flat_map(|p| frame_lengths(p)).collect();
            frames.sort_unstable();
            assert_eq!(frames.len(), 6, "{frames:?}");
            (parts.iter().map(Vec::len).sum::<usize>(), frames)
        };
        let first = staged(run_compressed(3, &chunks));
        let second = staged(run_compressed(3, &reversed));
        assert_eq!(first, second);
    }

    #[test]
    fn acquisition_errors_collected_sorted() {
        let config = VirtualizerConfig::default();
        let store = Arc::new(MemStore::new());
        let (_runtime, pipeline) = start_job(&config, loader_for(&config, store), None);
        let credits = CreditManager::new(4);
        let memory = MemoryGauge::new(0);
        let sink = pipeline.sink();
        // Chunk 2 has a bad record (field count).
        for (base, data) in [
            (1u64, &b"a|b\n"[..]),
            (2, b"only_one_field\n"),
            (3, b"c|d\n"),
        ] {
            assert!(sink.push(RawChunk {
                base_seq: base,
                data: Bytes::copy_from_slice(data),
                credit: credits.acquire(),
                memory: memory.reserve(data.len()).unwrap(),
                enqueued: Instant::now(),
            }));
        }
        let report = pipeline.finish();
        assert_eq!(report.rows_staged, 2);
        assert_eq!(report.acq_errors.len(), 1);
        assert_eq!(report.acq_errors[0].seq, 2);
    }

    #[test]
    fn uploader_retries_flaky_store_then_succeeds() {
        use crate::fault::{FaultPlan, FaultSpec};
        use etlv_cloudstore::ChaosStore;

        let mut plan = FaultPlan::seeded(11);
        plan.store_put = FaultSpec::FirstN(2);
        let config = VirtualizerConfig {
            file_size_threshold: 64,
            retry_base_delay: std::time::Duration::from_micros(50),
            retry_max_delay: std::time::Duration::from_micros(500),
            fault_plan: Some(plan),
            ..Default::default()
        };
        let injector = Arc::new(FaultInjector::new(config.fault_plan.clone().unwrap()));

        let mem = Arc::new(MemStore::new());
        let chaos: Arc<dyn ObjectStore> = Arc::new(ChaosStore::new(
            Arc::clone(&mem) as Arc<dyn ObjectStore>,
            injector.store_hook(),
        ));
        let loader = Arc::new(BulkLoader::new(
            chaos,
            LoaderConfig::new(config.staging_bucket.clone()),
        ));
        let (_runtime, pipeline) = start_job(&config, loader, Some(Arc::clone(&injector)));
        let credits = CreditManager::new(config.credits);
        let memory = MemoryGauge::new(0);
        let sink = pipeline.sink();
        for c in 0..6u64 {
            let data: Vec<u8> = format!("a{c}|b{c}\n").repeat(10).into_bytes();
            let credit = credits.acquire();
            let mem_guard = memory.reserve(data.len()).unwrap();
            assert!(sink.push(RawChunk {
                base_seq: c * 10 + 1,
                data: data.into(),
                credit,
                memory: mem_guard,
                enqueued: Instant::now(),
            }));
        }
        let report = pipeline.finish();
        assert!(report.fatal.is_empty(), "{:?}", report.fatal);
        assert_eq!(report.upload_retries, 2, "both injected failures retried");
        assert_eq!(report.rows_staged, 60);
        assert_eq!(
            mem.object_count(&config.staging_bucket),
            report.files.len(),
            "every part landed despite the flaky store"
        );
        assert_eq!(credits.available(), config.credits);
        assert_eq!(memory.in_flight(), 0);
    }

    #[test]
    fn injected_converter_failure_fails_cleanly() {
        use crate::fault::{FaultPlan, FaultSpec};

        let mut config = VirtualizerConfig::default();
        let mut plan = FaultPlan::seeded(3);
        plan.convert = FaultSpec::AtOps(vec![1]);
        config.fault_plan = Some(plan);
        let injector = Arc::new(FaultInjector::new(config.fault_plan.clone().unwrap()));

        let store = Arc::new(MemStore::new());
        let loader = loader_for(&config, store);
        // One pool worker so chunk order = op order.
        config.converter_threads = 1;
        let (_runtime, pipeline) = start_job(&config, loader, Some(injector));
        let credits = CreditManager::new(4);
        let memory = MemoryGauge::new(0);
        let sink = pipeline.sink();
        for base in [1u64, 2, 3] {
            assert!(sink.push(RawChunk {
                base_seq: base,
                data: Bytes::copy_from_slice(b"a|b\n"),
                credit: credits.acquire(),
                memory: memory.reserve(4).unwrap(),
                enqueued: Instant::now(),
            }));
        }
        let report = pipeline.finish();
        assert_eq!(report.fatal.len(), 1, "{:?}", report.fatal);
        assert!(
            report.fatal[0].contains("injected fault"),
            "{:?}",
            report.fatal
        );
        assert_eq!(report.rows_staged, 2, "other chunks still staged");
        // The dropped chunk's credit and memory came back via the guards.
        assert_eq!(credits.available(), 4);
        assert_eq!(memory.in_flight(), 0);
    }

    /// The job's only — hence last-retired — chunk fails: `finish()`
    /// returns on that retirement, so the chunk's guards must already be
    /// released when it does. Looped, because the losing interleaving is
    /// a few instructions wide.
    #[test]
    fn last_chunk_failure_releases_guards_before_finish_returns() {
        use crate::fault::{FaultPlan, FaultSpec};

        const JOBS: u64 = 2_000;
        let config = VirtualizerConfig {
            converter_threads: 1,
            ..Default::default()
        };
        let mut plan = FaultPlan::seeded(3);
        plan.convert = FaultSpec::AtOps((0..JOBS).collect());
        let injector = Arc::new(FaultInjector::new(plan));
        let runtime = WorkerRuntime::start(&config, Arc::new(Obs::default()), Some(injector));
        let loader = loader_for(&config, Arc::new(MemStore::new()));
        let credits = CreditManager::new(1);
        let memory = MemoryGauge::new(0);
        for j in 0..JOBS {
            let pipeline = runtime.begin_job(
                DataConverter::new(layout(), WIRE_VT, config.staging_delimiter),
                Arc::clone(&loader),
                format!("j{j}/"),
                j + 1,
                SpanIds::default(),
                config.drain_timeout,
                test_tenant(),
            );
            assert!(pipeline.sink().push(RawChunk {
                base_seq: 1,
                data: Bytes::copy_from_slice(b"a|b\n"),
                credit: credits.acquire(),
                memory: memory.reserve(4).unwrap(),
                enqueued: Instant::now(),
            }));
            let report = pipeline.finish();
            assert_eq!(
                (credits.available(), memory.in_flight()),
                (1, 0),
                "job {j}: guards still alive after finish()"
            );
            assert_eq!(report.fatal.len(), 1, "{:?}", report.fatal);
        }
        runtime.stop();
    }

    /// Abort lands while the job's only chunk is mid-conversion: the
    /// worker discards that chunk once it has converted it, and `abort()`
    /// returns on its retirement — so the chunk's guards must already be
    /// released when it does. Looped, because the losing interleaving is a
    /// few instructions wide.
    #[test]
    fn abort_mid_conversion_releases_guards_before_abort_returns() {
        const JOBS: u64 = 3_000;
        let config = VirtualizerConfig {
            converter_threads: 1,
            // A 4-byte chunk asks for a 20 µs conversion; timer slack
            // stretches the sleep to tens of µs.
            simulated_convert_cost_per_mb: Duration::from_secs(5),
            ..Default::default()
        };
        let obs = Arc::new(Obs::default());
        let runtime = WorkerRuntime::start(&config, Arc::clone(&obs), None);
        let loader = loader_for(&config, Arc::new(MemStore::new()));
        let credits = CreditManager::new(1);
        let memory = MemoryGauge::new(0);
        for j in 0..JOBS {
            while obs.pool.busy_workers.value() != 0 {
                std::thread::yield_now();
            }
            let spans = obs.journal.emitted();
            let pipeline = runtime.begin_job(
                DataConverter::new(layout(), WIRE_VT, config.staging_delimiter),
                Arc::clone(&loader),
                format!("j{j}/"),
                j + 1,
                SpanIds::default(),
                config.drain_timeout,
                test_tenant(),
            );
            assert!(pipeline.sink().push(RawChunk {
                base_seq: 1,
                data: Bytes::copy_from_slice(b"a|b\n"),
                credit: credits.acquire(),
                memory: memory.reserve(4).unwrap(),
                enqueued: Instant::now(),
            }));
            // The worker is busy with the chunk once its `chunk.queue`
            // span, emitted just before the conversion, is out
            // (`busy_workers` alone can rise and fall between two looks).
            while obs.journal.emitted() == spans {
                std::thread::yield_now();
            }
            pipeline.abort();
            assert_eq!(
                (credits.available(), memory.in_flight()),
                (1, 0),
                "job {j}: guards still alive after abort()"
            );
        }
        runtime.stop();
    }

    #[test]
    fn back_pressure_blocks_when_out_of_credits() {
        // 1 credit: the second acquire blocks until the pipeline returns
        // the first — proving credits flow through to the staging step.
        let config = VirtualizerConfig {
            credits: 1,
            ..Default::default()
        };
        let (report, _) = run_pipeline(&config, 8, 2);
        assert_eq!(report.rows_staged, 16);
    }

    #[test]
    fn shared_runtime_multiplexes_jobs_with_fixed_threads() {
        // One runtime, 6 jobs: every job's rows land, the files stay
        // per-job (no cross-talk), and the thread count is the configured
        // pool size, not jobs × pool size.
        let config = VirtualizerConfig {
            converter_threads: 2,
            file_size_threshold: 128,
            ..Default::default()
        };
        let store = Arc::new(MemStore::new());
        let runtime = WorkerRuntime::start(&config, Arc::new(Obs::default()), None);
        let credits = CreditManager::new(config.credits);
        let memory = MemoryGauge::new(0);

        let mut pipelines = Vec::new();
        for j in 0..6u64 {
            let loader = loader_for(&config, Arc::clone(&store));
            let converter = DataConverter::new(layout(), WIRE_VT, b'|');
            pipelines.push(runtime.begin_job(
                converter,
                loader,
                format!("job{j}/"),
                j + 1,
                SpanIds::default(),
                config.drain_timeout,
                test_tenant(),
            ));
        }
        assert_eq!(runtime.active_jobs(), 6);
        for (j, pipeline) in pipelines.iter().enumerate() {
            let sink = pipeline.sink();
            for c in 0..10u64 {
                let data: Vec<u8> = format!("j{j}c{c}|x\n").repeat(5).into_bytes();
                assert!(sink.push(RawChunk {
                    base_seq: c * 5 + 1,
                    data: data.into(),
                    credit: credits.acquire(),
                    memory: memory.reserve(1).unwrap(),
                    enqueued: Instant::now(),
                }));
            }
        }
        for (j, pipeline) in pipelines.into_iter().enumerate() {
            let report = pipeline.finish();
            assert!(report.fatal.is_empty(), "job {j}: {:?}", report.fatal);
            assert_eq!(report.rows_staged, 50, "job {j}");
            for key in &report.files {
                assert!(
                    key.starts_with(&format!("job{j}/")),
                    "job {j} file {key} crossed into another job's prefix"
                );
            }
        }
        assert_eq!(runtime.active_jobs(), 0, "jobs deregister at finish");
        runtime.stop();
        let series = &runtime.shared.obs.runtime;
        assert_eq!(series.workers.value(), 2);
        assert_eq!(
            series.threads_started.value(),
            2,
            "worker threads spawned once for the runtime, not per job"
        );
        assert_eq!(credits.available(), config.credits);
        assert_eq!(memory.in_flight(), 0);
    }

    #[test]
    fn abort_discards_and_releases_everything() {
        let config = VirtualizerConfig {
            converter_threads: 2,
            // Make conversion slow enough that chunks are still queued
            // and in flight when the abort lands.
            simulated_convert_cost_per_mb: Duration::from_millis(2000),
            compress_staged: true,
            ..Default::default()
        };
        let store = Arc::new(MemStore::new());
        let loader = loader_for(&config, Arc::clone(&store));
        let (_runtime, pipeline) = start_job(&config, loader, None);
        let job = Arc::clone(&pipeline.job);
        let credits = CreditManager::new(16);
        let memory = MemoryGauge::new(0);
        let sink = pipeline.sink();
        for base in 0..8u64 {
            let data: Vec<u8> = b"a|b\n".repeat(500); // 2 KB → 4 ms simulated
            assert!(sink.push(RawChunk {
                base_seq: base * 500 + 1,
                data: data.into(),
                credit: credits.acquire(),
                memory: memory.reserve(2000).unwrap(),
                enqueued: Instant::now(),
            }));
        }
        // Abort with text pending, not yet framed.
        while job.rows_staged.load(Ordering::Relaxed) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!job.staging.lock().pending.is_empty());
        let report = pipeline.abort();
        assert_eq!(credits.available(), 16, "credits released by abort");
        assert_eq!(memory.in_flight(), 0, "memory released by abort");
        assert_eq!(store.object_count(&config.staging_bucket), 0, "no uploads");
        assert!(report.files.is_empty());
        let staging = job.staging.lock();
        assert!(
            staging.pending.is_empty() && staging.part.is_empty(),
            "staging residue"
        );
        drop(staging);
        // Late pushes after abort are rejected and their guards released.
        assert!(!sink.push(RawChunk {
            base_seq: 1,
            data: Bytes::copy_from_slice(b"a|b\n"),
            credit: credits.acquire(),
            memory: memory.reserve(4).unwrap(),
            enqueued: Instant::now(),
        }));
        assert_eq!(credits.available(), 16);
        assert_eq!(memory.in_flight(), 0);
    }
}
