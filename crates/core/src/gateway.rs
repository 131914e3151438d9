//! The virtualizer node: job orchestration (the paper's
//! Alpha/Coalescer/PXC/Beta roles, §3).
//!
//! From the outside this is a legacy EDW server — same frames, same
//! message flow, same error tables. Inside, every request is
//! cross-compiled and executed on the CDW through the acquisition
//! pipeline, COPY bulk loading, and the adaptive application phase.
//!
//! The per-connection message loop lives in [`crate::session`]; the TCP
//! accept loop and server lifecycle ([`crate::server::ServerHandle`]) in
//! [`crate::server`]. This module owns the node state and the request
//! handlers they dispatch into.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use etlv_cdw::{Cdw, CdwConfig};
use etlv_cloudstore::{
    BulkLoader, ChaosStore, LoaderConfig, MemStore, ObjectStore, ObservedStore, StoreOp,
};
use etlv_protocol::data::Value;
use etlv_protocol::errcode::ErrCode;
use etlv_protocol::layout::Layout;
use etlv_protocol::message::{
    BeginExportOk, BeginLoad, ChunkFrame, Format, IntrospectReply, Message, RecordFormat,
    SqlResult, Topic, WireError,
};
use etlv_protocol::record::RecordError;
use etlv_protocol::trace::TraceContext;
use etlv_sql::ast::{Expr, Insert, InsertSource, Literal, ObjectName, Stmt};
use etlv_sql::types::SqlType;
use etlv_sql::Dialect;
use parking_lot::{Condvar, Mutex};

use crate::adaptive::{AdaptiveParams, ErrorRows, RecordedError};
use crate::apply::apply;
use crate::config::VirtualizerConfig;
use crate::convert::DataConverter;
use crate::credit::CreditManager;
use crate::cursor::{ChunkWindow, TdfCursor};
use crate::emulate;
use crate::fault::{retry_cdw, FaultCounts, FaultInjector};
use crate::memory::{MemGuard, MemoryGauge};
use crate::obs::{
    stats_json, stats_prometheus, Counter, CpuTimer, HealthReport, JobObs, Obs, OverloadInput,
    SloEngine, SpanIds, TenantObs,
};
use crate::pipeline::{ChunkSink, Pipeline, PipelineReport, RawChunk, WorkerRuntime};
use crate::report::{JobReport, NodeMetrics};
use crate::session::{Reply, SessionRegistry};
use crate::trace::JobTrace;
use crate::xcompile;

/// Rows per export chunk when the client leaves the size to the server
/// (`BeginExport::chunk_rows` 0).
const EXPORT_CHUNK_ROWS: u32 = 4096;

/// The most chunks an export encodes ahead of the last one served: one
/// per data session (`BeginExport::sessions`), up to this many, since
/// the session count is the client's to choose.
const MAX_CHUNKS_AHEAD: u16 = 4;

/// What a load's `DataChunk`s share; one may outlive the job.
pub(crate) struct ImportJobState {
    /// Accumulated gateway-side ack turnaround (credit acquire + memory
    /// reserve + enqueue per chunk), µs — emitted as one aggregate
    /// `ack.wait` span at job end so the hot path stays journal-free.
    ack_wait_micros: AtomicU64,
    sink: ChunkSink,
    rows_received: AtomicU64,
    oom: Mutex<Option<String>>,
    /// The owning session's tenant metric block — every job-scoped count
    /// and latency lands here; the node's job totals are sums over these.
    tenant: Arc<TenantObs>,
}

/// A load job as its owner holds it.
pub(crate) struct ImportJob {
    chunks: Arc<ImportJobState>,
    spec: BeginLoad,
    /// CDW statements retried while creating the job's tables — folded
    /// into the report's `cdw_retries` at job end.
    setup_retries: u64,
    /// The job's root span identity: trace id from the client's
    /// `TraceContext` (or minted on entry), root span parenting every
    /// stage span the job emits.
    ids: SpanIds,
    started: Instant,
    /// Faults the node had injected when `BeginLoad` arrived; the report
    /// carries the difference.
    faults_at_begin: u64,
}

/// An export job: the cursor its chunks are cut from and the window of
/// chunks encoded ahead of their requests.
pub(crate) struct ExportJobState {
    cursor: TdfCursor,
    format: RecordFormat,
    layout: Layout,
    /// The tenant whose session opened the export: chunks held ahead are
    /// charged to its `memory_held`.
    tenant: Arc<TenantObs>,
    /// Its own handle, so an encoder ahead holds the window without the
    /// cursor (see [`EncodeAhead`]).
    window: Arc<ChunkWindow<AheadChunk>>,
}

/// A chunk encoded ahead of its request, and the memory it is charged.
pub(crate) struct AheadChunk {
    chunk: ChunkFrame,
    _held: MemGuard,
}

impl ExportJobState {
    /// Encode chunk `index` of the result straight into its frame.
    fn encode(&self, index: u64) -> Result<ChunkFrame, RecordError> {
        let chunk = self.cursor.chunk(index);
        ChunkFrame::encode(index, chunk.last, &self.layout, self.format, chunk.rows)
    }
}

impl Drop for ExportJobState {
    /// The job is gone: what its window holds goes too, and nothing lands
    /// there any more.
    fn drop(&mut self) {
        self.window.close();
    }
}

/// The work a served export request leaves its dispatch thread, after
/// the reply is posted: encode chunks ahead until the window is full.
/// It holds the job weakly, and holds the cursor only while it encodes:
/// a request that waits for its chunk is woken after the encoder let go
/// of the cursor, so an export the client finished holds no row version
/// through a straggling encoder.
pub(crate) struct EncodeAhead {
    job: Weak<ExportJobState>,
    window: Arc<ChunkWindow<AheadChunk>>,
}

impl EncodeAhead {
    pub(crate) fn run(self, v: &Virtualizer) {
        while let Some(claim) = self.window.claim() {
            let Some(job) = self.job.upgrade() else {
                return;
            };
            // An encode error lands nothing: the request encodes the chunk
            // itself and answers the error. Work ahead takes only spare
            // memory, so a chunk that would take the gauge past half its
            // cap is left for its request, and so are the ones after it.
            let ahead = job.encode(claim.index()).ok().and_then(|chunk| {
                let held = v.node.memory.reserve_spare(chunk.footprint())?;
                Some(AheadChunk {
                    chunk,
                    _held: held.charge(&job.tenant),
                })
            });
            drop(job);
            let landed = ahead.is_some();
            claim.fill(ahead);
            if !landed {
                return;
            }
        }
    }
}

pub(crate) enum Job {
    Import(Box<ImportJob>),
    Export(Arc<ExportJobState>),
}

/// How a job ended — what [`JobOwner::end_job`] books.
enum JobOutcome {
    Completed(JobReport),
    Failed(ErrCode),
    Aborted,
}

/// What a load holds on the node, the warehouse and the store, recorded
/// as setup creates it: the pipeline (until `EndLoad` finishes it), the
/// staged objects' prefix, and the staging table, ET and UV in that
/// order.
#[derive(Default)]
pub(crate) struct Residue {
    pipeline: Option<Pipeline>,
    prefix: Option<String>,
    tables: Vec<String>,
}

impl Residue {
    /// Release what is still held, in one order: abort the pipeline,
    /// delete the staged objects, then, if the job holds tables, retry
    /// the staging tables earlier teardowns gave up on and drop its own —
    /// ET and UV stay when `keep_error_tables`. The DROPs retry like every
    /// other statement; returns the retries of the job's own. It runs in
    /// `Drop`, so it never panics.
    fn release(&mut self, node: &Node, keep_error_tables: bool) -> u64 {
        if let Some(pipeline) = self.pipeline.take() {
            pipeline.abort();
        }
        let bucket = &node.config.staging_bucket;
        if let Some(prefix) = self.prefix.take() {
            for key in node.store.list(bucket, &prefix).unwrap_or_default() {
                let _ = node.store.delete(bucket, &key);
            }
        }
        let mut tables = std::mem::take(&mut self.tables).into_iter();
        let Some(staging) = tables.next() else {
            return 0;
        };
        node.drop_orphans();
        let mut retries = 0;
        if !node.drop_table(&staging, &mut retries) {
            node.orphan([staging]);
        }
        // ET and UV carry the names the client gave them, which a later
        // job may create again: one whose DROP fails is left as it is,
        // not kept for a retry that would drop that job's tables.
        if !keep_error_tables {
            for table in tables {
                node.drop_table(&table, &mut retries);
            }
        }
        retries
    }
}

pub(crate) struct Node {
    pub(crate) config: VirtualizerConfig,
    pub(crate) cdw: Cdw,
    pub(crate) store: Arc<dyn ObjectStore>,
    pub(crate) injector: Option<Arc<FaultInjector>>,
    pub(crate) credits: CreditManager,
    pub(crate) memory: MemoryGauge,
    pub(crate) obs: Arc<Obs>,
    pub(crate) jobs: Mutex<HashMap<u64, (Job, Residue)>>,
    /// Jobs admitted but still in setup, not yet in `jobs`; they count
    /// against `max_concurrent_jobs` too. Raised only under the `jobs`
    /// lock, so admission's check-and-claim is one step.
    admitting: AtomicUsize,
    pub(crate) next_token: AtomicU64,
    pub(crate) next_session: AtomicU32,
    /// The most recent completed or aborted load job's report.
    pub(crate) last_report: Mutex<Option<JobReport>>,
    /// The node-wide worker runtime every load job registers with.
    pub(crate) runtime: WorkerRuntime,
    /// Per-tenant SLO burn-rate engine behind the `Health` endpoint.
    pub(crate) slo: SloEngine,
    /// Active-session table (logon admission + per-session owned jobs).
    pub(crate) registry: SessionRegistry,
    /// Set by `ServerHandle::drain`: refuse new logons and new jobs,
    /// finish what's in flight.
    pub(crate) draining: AtomicBool,
    /// Notified (under the `jobs` mutex) on every job removal, so
    /// drain can block instead of sleep-polling `active_jobs()`.
    pub(crate) jobs_drained: Condvar,
    /// Staging tables whose teardown `DROP` used up its retry budget:
    /// retried at every later release and at drain, counted in
    /// `gateway.orphaned_tables`. Only staging tables, which are named
    /// by their job's token, so no later job creates one again.
    orphans: Mutex<Vec<String>>,
}

impl Node {
    /// Drop `table`, the DROP retried under the node's policy and its
    /// retries added to `retries`; false when it failed past the budget.
    fn drop_table(&self, table: &str, retries: &mut u64) -> bool {
        let (policy, seed) = (self.config.retry_policy(), self.config.fault_seed());
        let drop = format!("DROP TABLE IF EXISTS {table}");
        retry_cdw(policy, seed, retries, || self.cdw.execute(&drop)).is_ok()
    }

    /// Retry the orphans' DROPs; the ones that fail again stay orphans.
    /// Issues no statement while there are none.
    pub(crate) fn drop_orphans(&self) {
        let orphans = std::mem::take(&mut *self.orphans.lock());
        if orphans.is_empty() {
            return;
        }
        let mut retries = 0;
        let left: Vec<String> = orphans
            .into_iter()
            .filter(|table| !self.drop_table(table, &mut retries))
            .collect();
        self.orphan(left);
    }

    /// Keep `tables` as orphans, and count them in `gateway.orphaned_tables`.
    fn orphan(&self, tables: impl IntoIterator<Item = String>) {
        let mut held = self.orphans.lock();
        held.extend(tables);
        self.obs.gateway.orphaned_tables.set(held.len() as u64);
    }
}

/// A job's one owner outside the job table: from [`Virtualizer::admit`]
/// through setup, and from [`Virtualizer::take_job`] to the job's end.
/// [`settle`](JobOwner::settle) ends the job; dropped unsettled (a setup
/// error, a panic, a session gone), the owner aborts it. It borrows the
/// node, so the job table holds no handle to the node that holds it.
pub(crate) struct JobOwner<'a> {
    node: &'a Node,
    token: u64,
    /// Holds an admission slot (from admission until the table entry).
    admitting: bool,
    /// `None` in setup, or when no job had the token.
    job: Option<Job>,
    residue: Residue,
}

impl JobOwner<'_> {
    fn enter(mut self, token: u64, job: Job) {
        let node = self.node;
        let mut jobs = node.jobs.lock();
        jobs.insert(token, (job, std::mem::take(&mut self.residue)));
        node.obs.gateway.active_jobs.set(jobs.len() as u64);
        // The slot moves to the table under the lock: no admission sees
        // it counted twice or not at all.
        drop(self);
    }

    /// Let go of a job its session left: it is aborted — unless `clean`
    /// and an export, whose normal end a logoff is (it has no end-of-job
    /// message).
    pub(crate) fn abandon(mut self, clean: bool) {
        if clean && matches!(self.job, Some(Job::Export(_))) {
            self.job = None;
        }
    }

    /// Release what the job holds, keeping ET and UV for the client, and
    /// book how it ended.
    fn settle(mut self, outcome: JobOutcome) {
        self.residue.release(self.node, true);
        self.end_job(outcome);
    }

    /// The one place a job's outcome is booked, once each: the tenant's
    /// counter and `active_jobs`, a completed job's tenant totals, the
    /// terminal journal span, and the last job report.
    fn end_job(&mut self, outcome: JobOutcome) {
        let (node, token) = (self.node, self.token);
        let Some(job) = self.job.take() else { return };
        let Job::Import(job) = job else {
            // An abandoned export counts on the node only: exports never
            // entered a tenant's `jobs_started`, so booking their aborts
            // there would bend the SLO availability ratio.
            node.obs.export.aborted.inc();
            node.obs.journal.emit_span(
                "job.abort",
                SpanIds::default(),
                token,
                0,
                0,
                0,
                Duration::ZERO,
            );
            return;
        };
        let t = &job.chunks.tenant;
        t.active_jobs.sub(1);
        let elapsed = job.started.elapsed();
        let (kind, value, wall, report) = match outcome {
            JobOutcome::Completed(report) => {
                node.obs.gateway.rows_ingested.add(report.rows_received);
                let total = report.total();
                t.jobs_completed.inc();
                t.rows_applied.add(report.rows_applied);
                t.errors_et.add(report.errors_et);
                t.errors_uv.add(report.errors_uv);
                t.retries.add(report.upload_retries + report.cdw_retries);
                t.job_us.record_duration(total);
                // A job slower than the tenant's latency target is an SLO
                // "bad event" for the latency objective.
                if total > node.config.slo.latency_target {
                    t.slow_jobs.inc();
                }
                ("job.end", report.rows_received, total, Some(report))
            }
            JobOutcome::Failed(code) => {
                t.jobs_failed.inc();
                ("job.fail", code.0 as u64, elapsed, None)
            }
            JobOutcome::Aborted => {
                t.jobs_aborted.inc();
                let rows_received = job.chunks.rows_received.load(Ordering::Relaxed);
                let report = JobReport {
                    rows_received,
                    acquisition: elapsed,
                    aborted: true,
                    ..JobReport::default()
                };
                ("job.abort", rows_received, elapsed, Some(report))
            }
        };
        node.obs
            .journal
            .emit_span(kind, job.ids, token, 0, 0, value, wall);
        if let Some(report) = report {
            *node.last_report.lock() = Some(report);
        }
    }
}

impl Drop for JobOwner<'_> {
    fn drop(&mut self) {
        self.residue.release(self.node, false);
        self.end_job(JobOutcome::Aborted);
        if self.admitting {
            self.node.admitting.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// A virtualizer node.
///
/// Cheaply cloneable; one [`CreditManager`] and one [`MemoryGauge`] are
/// shared across all sessions and jobs of the node, exactly as §5
/// prescribes.
#[derive(Clone)]
pub struct Virtualizer {
    pub(crate) node: Arc<Node>,
}

impl Virtualizer {
    /// Create a node with its own in-memory object store and CDW.
    ///
    /// When [`VirtualizerConfig::fault_plan`] is set, the store is wrapped
    /// in a [`ChaosStore`] *before* the CDW is constructed over it, so
    /// injected store faults hit both the uploader's puts and COPY's gets.
    pub fn new(config: VirtualizerConfig) -> Virtualizer {
        let (obs, injector) = build_obs(&config);
        // Decorated *before* the CDW is constructed over it, so both the
        // uploader's puts and COPY's gets land in the registry.
        let store = decorate(Arc::new(MemStore::new()), &injector, &obs);
        let cdw = Cdw::with_config(CdwConfig::default(), Some(Arc::clone(&store)));
        Virtualizer::assemble(config, cdw, store, injector, obs)
    }

    /// Create a node over an existing CDW and object store. The CDW must
    /// have been constructed with the same store attached (COPY reads
    /// staged files from it). With a fault plan configured, only the
    /// uploader-facing store handle is chaos-wrapped here — the CDW keeps
    /// reading through the handle the caller built it with.
    pub fn with_backends(
        config: VirtualizerConfig,
        cdw: Cdw,
        store: Arc<dyn ObjectStore>,
    ) -> Virtualizer {
        let (obs, injector) = build_obs(&config);
        let store = decorate(store, &injector, &obs);
        Virtualizer::assemble(config, cdw, store, injector, obs)
    }

    fn assemble(
        config: VirtualizerConfig,
        cdw: Cdw,
        store: Arc<dyn ObjectStore>,
        injector: Option<Arc<FaultInjector>>,
        obs: Arc<Obs>,
    ) -> Virtualizer {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid virtualizer config: {e}"));
        if let Some(injector) = &injector {
            cdw.set_transient_fault(Some(injector.cdw_hook()));
        }
        let cdw_obs = obs.cdw.clone();
        cdw.set_exec_observer(Some(Arc::new(move |elapsed, ok, stats| {
            cdw_obs.statements.inc();
            if !ok {
                cdw_obs.errors.inc();
            }
            cdw_obs.exec_us.record_duration(elapsed);
            cdw_obs.plan_index_seek.add(stats.index_seeks);
            cdw_obs.plan_full_scan.add(stats.full_scans);
            cdw_obs.index_maintain.add(stats.index_maintains);
        })));
        let credits = CreditManager::with_obs(config.credits, obs.credit.clone());
        let memory = MemoryGauge::with_obs(config.memory_cap, obs.memory.clone());
        let slo = SloEngine::new(config.slo.clone());
        let runtime = WorkerRuntime::start(&config, Arc::clone(&obs), injector.clone());
        let registry = SessionRegistry::new(config.max_sessions);
        Virtualizer {
            node: Arc::new(Node {
                credits,
                memory,
                config,
                cdw,
                store,
                injector,
                obs,
                jobs: Mutex::new(HashMap::new()),
                admitting: AtomicUsize::new(0),
                next_token: AtomicU64::new(1),
                next_session: AtomicU32::new(1),
                last_report: Mutex::new(None),
                runtime,
                slo,
                registry,
                draining: AtomicBool::new(false),
                jobs_drained: Condvar::new(),
                orphans: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The node's fault injector, when a fault plan is configured. Chaos
    /// tests read injected-fault counts through this.
    pub fn fault_counts(&self) -> Option<FaultCounts> {
        self.node.injector.as_ref().map(|i| i.counts())
    }

    /// The configured fault injector (for wiring client-side transport
    /// chaos to the same plan).
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.node.injector.clone()
    }

    /// The CDW this node virtualizes onto (test/bench assertions).
    pub fn cdw(&self) -> &Cdw {
        &self.node.cdw
    }

    /// The node's credit manager.
    pub fn credits(&self) -> &CreditManager {
        &self.node.credits
    }

    /// The node's memory gauge.
    pub fn memory(&self) -> &MemoryGauge {
        &self.node.memory
    }

    /// The active configuration.
    pub fn config(&self) -> &VirtualizerConfig {
        &self.node.config
    }

    /// Node-level totals: a view read off the registry handles, the
    /// credit pool and the memory gauge — nothing is counted twice. The
    /// job totals are sums over the tenants (plus aborted exports, which
    /// no tenant books).
    pub fn metrics(&self) -> NodeMetrics {
        let node = &self.node;
        let export = &node.obs.export;
        let tenants = node.obs.registry.tenant_handles();
        let sum = |count: fn(&TenantObs) -> &Counter| -> u64 {
            tenants.iter().map(|t| count(t).value()).sum()
        };
        NodeMetrics {
            jobs_completed: sum(|t| &t.jobs_completed),
            jobs_failed: sum(|t| &t.jobs_failed),
            exports_started: export.jobs.value(),
            jobs_aborted: sum(|t| &t.jobs_aborted) + export.aborted.value(),
            rows_ingested: node.obs.gateway.rows_ingested.value(),
            rows_exported: export.rows.value(),
            bytes_exported: export.bytes.value(),
            credit_stalls: node.credits.stalls(),
            credit_stall_time: node.credits.stall_time(),
            peak_memory: node.memory.peak(),
        }
    }

    /// The most recent completed or aborted load job's report (benches
    /// read phase timings here).
    pub fn last_job_report(&self) -> Option<JobReport> {
        self.node.last_report.lock().clone()
    }

    /// The node's observability hub (registry + journal + handles).
    pub fn obs(&self) -> &Obs {
        &self.node.obs
    }

    /// Evaluate per-tenant SLO burn rates and node overload right now.
    /// Feeds the engine a fresh observation first — its only feed — so
    /// health answers are always current.
    pub fn health(&self) -> HealthReport {
        let node = &self.node;
        node.slo.observe(&node.obs);
        node.slo.evaluate(&OverloadInput {
            active_jobs: node.jobs.lock().len() as u64,
            max_jobs: node.config.max_concurrent_jobs as u64,
            active_sessions: node.registry.active() as u64,
            max_sessions: node.config.max_sessions as u64,
            credit_in_flight: node.credits.in_flight() as u64,
            credit_capacity: node.config.credits as u64,
            memory_in_flight: node.memory.in_flight(),
            memory_cap: node.config.memory_cap as u64,
        })
    }

    /// Assemble the causal trace of one job from the journal's retained
    /// events. `None` when the journal no longer holds the job's
    /// `job.begin` (ring evicted it, or job unknown).
    pub fn trace(&self, job: u64) -> Option<JobTrace> {
        JobTrace::assemble(&self.node.obs.journal.events_for_job(job))
    }

    /// Render one monitoring document — what an `Introspect` wire request
    /// returns, and the only place a (topic, format) pair is mapped to a
    /// renderer. [`Format`] states which topics have a text rendering.
    pub fn introspect(&self, topic: Topic, format: Format) -> IntrospectReply {
        let format = match topic {
            Topic::Trace { .. } => Format::Json,
            Topic::Stats | Topic::Health => format,
        };
        let body = match (topic, format) {
            (Topic::Stats, _) => {
                let snap = self.node.obs.snapshot();
                let journal = &self.node.obs.journal;
                Some(match format {
                    Format::Json => stats_json(
                        &snap,
                        journal.emitted(),
                        journal.retained(),
                        journal.dropped(),
                    ),
                    Format::Text => stats_prometheus(&snap, journal.emitted(), journal.dropped()),
                })
            }
            (Topic::Health, Format::Json) => Some(self.health().to_json()),
            (Topic::Health, Format::Text) => Some(self.health().to_prometheus()),
            (Topic::Trace { job }, _) => self.trace(job).map(|t| t.to_json()),
        };
        IntrospectReply {
            topic,
            format,
            found: body.is_some(),
            body: body.unwrap_or_default(),
        }
    }

    /// Jobs currently registered (imports + exports).
    pub fn active_jobs(&self) -> usize {
        self.node.jobs.lock().len()
    }

    /// Sessions currently registered.
    pub fn active_sessions(&self) -> usize {
        self.node.registry.active()
    }

    /// Refuse new logons and new jobs from here on; in-flight jobs run to
    /// completion. [`crate::server::ServerHandle::drain`] calls this and
    /// then blocks in [`wait_jobs_drained`](Virtualizer::wait_jobs_drained).
    pub fn begin_drain(&self) {
        self.node.draining.store(true, Ordering::Relaxed);
    }

    /// Block until the job table is empty or `deadline` passes. Woken
    /// by the condvar every job removal notifies — no sleep-polling.
    /// Returns `true` when the table emptied in time.
    pub fn wait_jobs_drained(&self, deadline: Instant) -> bool {
        let mut jobs = self.node.jobs.lock();
        let drained = &self.node.jobs_drained;
        while !jobs.is_empty() {
            if drained.wait_until(&mut jobs, deadline).timed_out() {
                return jobs.is_empty();
            }
        }
        true
    }

    /// Whether `begin_drain` has been called.
    pub fn draining(&self) -> bool {
        self.node.draining.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------- SQL

    /// Control-session SQL: cross-compile legacy text, execute on the CDW,
    /// convert results back to the legacy representation.
    pub(crate) fn handle_sql(&self, text: &str) -> Message {
        let translated = match xcompile::translate_sql(text) {
            Ok(t) => t,
            Err(e) => return error_msg(ErrCode::SQL_ERROR, e.to_string(), false),
        };
        match self.node.cdw.execute(&translated) {
            Ok(result) => Message::SqlResult(SqlResult {
                activity_count: result.affected,
                columns: result
                    .columns
                    .iter()
                    .map(|(n, ty)| (n.clone(), ty.to_legacy()))
                    .collect(),
                rows: result.into_rows(),
            }),
            Err(e) => error_msg(ErrCode::SQL_ERROR, e.to_string(), false),
        }
    }

    // ------------------------------------------------------------ import

    pub(crate) fn handle_begin_load(&self, spec: BeginLoad, tenant: Arc<TenantObs>) -> Message {
        let node = &self.node;
        let faults_at_begin = self.fault_counts().map_or(0, |c| c.total());
        let mut owner = match self.admit(&tenant) {
            Ok(owner) => owner,
            Err((code, message)) => return error_msg(code, message, false),
        };
        let token = node.next_token.fetch_add(1, Ordering::Relaxed);

        // Causal identity: adopt the client's trace context; a trace-free
        // legacy client gets one minted here, so every job is traceable.
        let ctx = spec.trace.unwrap_or_else(TraceContext::mint);
        let ids = SpanIds {
            trace: ctx.trace_id,
            span: node.obs.journal.next_span_id(),
            parent: ctx.parent_span,
        };

        // Staging + error tables on the CDW.
        let setup_retries = match self.create_job_tables(&spec, token, &mut owner.residue) {
            Ok(retries) => retries,
            Err(e) => return error_msg(ErrCode::SQL_ERROR, e, true),
        };

        // Spin up the acquisition pipeline.
        let converter = DataConverter::new(
            spec.layout.clone(),
            spec.format,
            node.config.staging_delimiter,
        );
        let loader = Arc::new(BulkLoader::new(
            Arc::clone(&node.store),
            LoaderConfig {
                bucket: node.config.staging_bucket.clone(),
                compress: node.config.compress_staged,
                throttle: node.config.upload_throttle,
            },
        ));
        owner.residue.prefix = Some(xcompile::staging_prefix(token));
        let pipeline = node.runtime.begin_job(
            converter,
            loader,
            xcompile::staging_prefix(token),
            token,
            ids,
            node.config.drain_timeout,
            Arc::clone(&tenant),
        );
        let sink = pipeline.sink();
        owner.residue.pipeline = Some(pipeline);
        tenant.jobs_started.inc();
        tenant.active_jobs.add(1);
        // The job clock starts before `job.begin` is stamped, so the trace
        // window `[job.begin, job.begin + wall]` reaches past every span
        // the job emits before `job.end`.
        let started = Instant::now();
        node.obs.journal.emit_span(
            "job.begin",
            ids,
            token,
            0,
            0,
            spec.sessions as u64,
            Duration::ZERO,
        );

        owner.enter(
            token,
            Job::Import(Box::new(ImportJob {
                chunks: Arc::new(ImportJobState {
                    ack_wait_micros: AtomicU64::new(0),
                    sink,
                    rows_received: AtomicU64::new(0),
                    oom: Mutex::new(None),
                    tenant,
                }),
                spec,
                setup_retries,
                ids,
                started,
                faults_at_begin,
            })),
        );
        Message::BeginLoadOk { load_token: token }
    }

    /// Job admission, the one check both `BeginLoad` and `BeginExport`
    /// pass: refuse while draining, and answer a node already running
    /// `max_concurrent_jobs` with retryable `SERVER_BUSY` (the legacy
    /// client backs off and re-issues). The owner holds the job's slot
    /// through setup — concurrent requests cannot all pass the check —
    /// until it enters the table or is dropped.
    fn admit(&self, tenant: &TenantObs) -> Result<JobOwner<'_>, (ErrCode, String)> {
        let node = &self.node;
        if node.draining.load(Ordering::Relaxed) {
            return Err((ErrCode::SHUTTING_DOWN, "server is draining".into()));
        }
        let jobs = node.jobs.lock();
        if jobs.len() + node.admitting.load(Ordering::Relaxed) >= node.config.max_concurrent_jobs {
            drop(jobs);
            tenant.admission_rejections.inc();
            let limit = node.config.max_concurrent_jobs;
            return Err((
                ErrCode::SERVER_BUSY,
                format!("job limit reached ({limit} active), retry later"),
            ));
        }
        node.admitting.fetch_add(1, Ordering::Relaxed);
        Ok(JobOwner {
            node,
            token: 0,
            admitting: true,
            job: None,
            residue: Residue::default(),
        })
    }

    /// Take a job out of the table: no request finds it any more, and
    /// the owner alone holds it.
    pub(crate) fn take_job(&self, token: u64) -> JobOwner<'_> {
        let node = &self.node;
        let mut jobs = node.jobs.lock();
        let (job, residue) = jobs.remove(&token).unzip();
        node.obs.gateway.active_jobs.set(jobs.len() as u64);
        node.jobs_drained.notify_all();
        JobOwner {
            node,
            token,
            admitting: false,
            job,
            residue: residue.unwrap_or_default(),
        }
    }

    /// Create the job's staging + error tables, recording each in
    /// `residue` once it exists; returns how many setup statements had to
    /// be retried after transient faults.
    fn create_job_tables(
        &self,
        spec: &BeginLoad,
        token: u64,
        residue: &mut Residue,
    ) -> Result<u64, String> {
        // Job setup DDL retries transient blips like any other statement —
        // with an armed cdw_exec fault spec these are the first statements
        // the plan can hit.
        let policy = self.node.config.retry_policy();
        let seed = self.node.config.fault_seed();
        let mut retries = 0u64;
        let mut run = |sql: &str| -> Result<(), String> {
            retry_cdw(policy, seed, &mut retries, || self.node.cdw.execute(sql))
                .map(|_| ())
                .map_err(|e| format!("{sql}: {e}"))
        };
        let staging_table = xcompile::staging_table_name(token);
        run(&format!("DROP TABLE IF EXISTS {staging_table}"))?;
        run(&xcompile::staging_ddl(&staging_table, &spec.layout))?;
        residue.tables.push(staging_table);
        run(&format!("DROP TABLE IF EXISTS {}", spec.error_table_et))?;
        run(&format!(
            "CREATE TABLE {} (SEQNO BIGINT, ERRCODE INTEGER, ERRFIELD VARCHAR(128), ERRMESSAGE VARCHAR(512))",
            spec.error_table_et
        ))?;
        residue.tables.push(spec.error_table_et.clone());
        run(&format!("DROP TABLE IF EXISTS {}", spec.error_table_uv))?;
        let mut uv_cols: Vec<String> = spec
            .layout
            .fields
            .iter()
            .map(|f| {
                format!(
                    "{} {}",
                    f.name,
                    SqlType::from_legacy(f.ty)
                        .legacy_to_cdw()
                        .render(Dialect::Cdw)
                )
            })
            .collect();
        uv_cols.push("SEQNO BIGINT".into());
        uv_cols.push("ERRCODE INTEGER".into());
        run(&format!(
            "CREATE TABLE {} ({})",
            spec.error_table_uv,
            uv_cols.join(", ")
        ))?;
        residue.tables.push(spec.error_table_uv.clone());
        Ok(retries)
    }

    /// The PXC data path: acquire a credit (back-pressure), reserve
    /// memory, push the raw chunk to the converters, ack immediately. No
    /// parsing happens on this thread beyond the header fields — the
    /// paper's "lazy parsing of data messages".
    pub(crate) fn handle_data_chunk(
        &self,
        token: u64,
        chunk: etlv_protocol::message::DataChunk,
    ) -> Message {
        // Hot-path instrumentation is counters + one histogram — all
        // pre-registered sharded handles, no journal event per chunk.
        let handle_started = Instant::now();
        let chunk_bytes = chunk.data.len() as u64;
        let job = match self.node.jobs.lock().get(&token) {
            Some((Job::Import(j), _)) => Arc::clone(&j.chunks),
            _ => return no_job("import", token),
        };
        if let Some(oom) = job.oom.lock().clone() {
            return error_msg(ErrCode::OUT_OF_MEMORY, oom, true);
        }
        // The guards charge the tenant's held-resource gauges and release
        // them when they drop, on whichever path that happens.
        let tenant = &job.tenant;
        let credit = self.node.credits.acquire().charge(tenant);
        let memory = match self.node.memory.reserve(chunk.data.len()) {
            Ok(m) => m.charge(tenant),
            Err(e) => {
                *job.oom.lock() = Some(e.to_string());
                return error_msg(ErrCode::OUT_OF_MEMORY, e.to_string(), true);
            }
        };
        let chunk_seq = chunk.chunk_seq;
        job.rows_received
            .fetch_add(chunk.record_count as u64, Ordering::Relaxed);
        // A chunk that lost the race to `EndLoad` finds the pipeline shut.
        if !job.sink.push(RawChunk {
            base_seq: chunk.base_seq,
            data: chunk.data,
            credit,
            memory,
            enqueued: handle_started,
        }) {
            return error_msg(ErrCode::INTERNAL, "acquisition pipeline closed", true);
        }
        tenant.chunks.inc();
        tenant.chunk_bytes.add(chunk_bytes);
        let handle_elapsed = handle_started.elapsed();
        self.node
            .obs
            .gateway
            .chunk_handle_us
            .record_duration(handle_elapsed);
        // One relaxed add per chunk — the only tracing cost on this path;
        // the aggregate becomes the job's `ack.wait` span at job end.
        job.ack_wait_micros
            .fetch_add(handle_elapsed.as_micros() as u64, Ordering::Relaxed);
        Message::Ack { chunk_seq }
    }

    pub(crate) fn handle_end_load(&self, token: u64, dml: &str) -> Message {
        // A return before `settle`, or a panic, aborts the job.
        let mut owner = self.take_job(token);
        let JobOwner {
            job: Some(Job::Import(job)),
            residue,
            ..
        } = &mut owner
        else {
            return no_job("import", token);
        };
        match self.finish_load(token, job, residue, dml) {
            Ok(report) => {
                let wire = report.to_wire();
                owner.settle(JobOutcome::Completed(report));
                Message::LoadReport(wire)
            }
            Err((code, message)) => {
                owner.settle(JobOutcome::Failed(code));
                // A failed load is a clean job failure, not a session
                // failure: the client gets the error reply and the control
                // session stays usable for diagnostics or another attempt.
                error_msg(code, message, false)
            }
        }
    }

    fn finish_load(
        &self,
        token: u64,
        job: &ImportJob,
        residue: &mut Residue,
        dml: &str,
    ) -> Result<JobReport, (ErrCode, String)> {
        let node = &self.node;
        let staging_table = xcompile::staging_table_name(token);

        // Drain the pipeline: all chunks converted, staged, uploaded.
        let pipeline = residue
            .pipeline
            .take()
            .ok_or((ErrCode::PROTOCOL, "load already ended".to_string()))?;
        let pipe_report: PipelineReport = pipeline.finish();
        if let Some(oom) = job.chunks.oom.lock().clone() {
            return Err((ErrCode::OUT_OF_MEMORY, oom));
        }
        if !pipe_report.fatal.is_empty() {
            return Err((ErrCode::INTERNAL, pipe_report.fatal.join("; ")));
        }

        // In-cloud COPY into the staging table completes acquisition. COPY
        // validates every staged file before mutating the staging table,
        // so re-issuing it after a transient engine or store-read failure
        // cannot duplicate rows.
        let retry_policy = node.config.retry_policy();
        let retry_seed = node.config.fault_seed();
        let mut cdw_retries = job.setup_retries;
        if !pipe_report.files.is_empty() {
            let copy = format!(
                "COPY INTO {} FROM 'store://{}/{}' DELIMITER '{}'{}",
                staging_table,
                node.config.staging_bucket,
                xcompile::staging_prefix(token),
                node.config.staging_delimiter as char,
                if node.config.compress_staged {
                    " COMPRESSED"
                } else {
                    ""
                }
            );
            let copy_started = Instant::now();
            let copy_cpu = CpuTimer::start();
            retry_cdw(retry_policy, retry_seed ^ 0xC0, &mut cdw_retries, || {
                node.cdw.execute(&copy)
            })
            .map_err(|e| (ErrCode::INTERNAL, format!("COPY failed: {e}")))?;
            let copy_elapsed = copy_started.elapsed();
            node.obs.profile.copy.record(
                &node.obs.adaptive.copy_us,
                copy_elapsed,
                copy_cpu.elapsed(),
            );
            node.obs.journal.emit_span(
                "copy",
                job.ids.child(node.obs.journal.next_span_id()),
                token,
                0,
                0,
                pipe_report.files.len() as u64,
                copy_elapsed,
            );
        }
        let acquisition = job.started.elapsed();

        // Application phase: cross-compile, plan emulation, apply.
        let application_started = Instant::now();
        let apply_cpu = CpuTimer::start();
        let compiled = xcompile::compile_dml(dml, &job.spec.layout, &staging_table)
            .map_err(|e| (ErrCode::SQL_ERROR, e.to_string()))?;
        let emulation =
            emulate::plan(&node.cdw, &compiled).map_err(|e| (ErrCode::SQL_ERROR, e.to_string()))?;
        let rows_received = job.chunks.rows_received.load(Ordering::Relaxed);
        let params = AdaptiveParams {
            max_errors: effective_max_errors(node.config.max_errors, job.spec.error_limit),
            max_retries: node.config.max_retries,
            retry: retry_policy,
            retry_seed,
        };
        let apply_ids = job.ids.child(node.obs.journal.next_span_id());
        let job_obs = JobObs {
            obs: &node.obs,
            job: token,
            ids: apply_ids,
        };
        let outcome = apply(
            &node.cdw,
            &compiled,
            emulation.as_ref(),
            &job.spec.layout,
            1,
            rows_received + 1,
            node.config.apply_strategy,
            params,
            Some(&job_obs),
        )
        .map_err(|e| (ErrCode::SQL_ERROR, format!("application failed: {e}")))?;
        cdw_retries += outcome.transient_retries;
        let application = application_started.elapsed();
        node.obs.profile.apply.record(
            &job.chunks.tenant.apply_us,
            application,
            apply_cpu.elapsed(),
        );
        node.obs.adaptive.statements.add(outcome.statements);
        node.obs
            .adaptive
            .transient_retries
            .add(outcome.transient_retries);
        node.obs.journal.emit_span(
            "apply",
            apply_ids,
            token,
            0,
            0,
            outcome.applied,
            application,
        );
        let ack_wait = Duration::from_micros(job.chunks.ack_wait_micros.load(Ordering::Relaxed));
        if !ack_wait.is_zero() {
            node.obs.journal.emit_span(
                "ack.wait",
                job.ids.child(node.obs.journal.next_span_id()),
                token,
                0,
                0,
                0,
                ack_wait,
            );
        }

        // Error tables: acquisition errors + application errors.
        self.write_error_tables(job, &pipe_report, &outcome.errors, &mut cdw_retries)
            .map_err(|e| (ErrCode::INTERNAL, e))?;
        // Teardown inside the job's clock (ET and UV stay).
        cdw_retries += residue.release(node, true);

        let errors_uv = outcome
            .errors
            .iter()
            .filter(|e| e.code == ErrCode::UNIQUENESS)
            .count() as u64;
        let errors_et =
            pipe_report.acq_errors.len() as u64 + outcome.errors.len() as u64 - errors_uv;
        Ok(JobReport {
            rows_received,
            rows_applied: outcome.applied,
            errors_et,
            errors_uv,
            acquisition,
            application,
            files_staged: pipe_report.files.len() as u64,
            bytes_staged: pipe_report.bytes_staged,
            upload_retries: pipe_report.upload_retries,
            cdw_retries,
            faults_injected: self.fault_counts().map_or(0, |c| c.total()) - job.faults_at_begin,
            aborted: false,
            // Taken last: the three phases partition the job's one clock,
            // so whatever the phase stopwatches did not cover (span
            // emission, metric recording, teardown) is `other` and
            // `total()` is the wall time since the job began.
            other: job
                .started
                .elapsed()
                .saturating_sub(acquisition + application),
        })
    }

    fn write_error_tables(
        &self,
        job: &ImportJob,
        pipe_report: &PipelineReport,
        app_errors: &[RecordedError],
        retries: &mut u64,
    ) -> Result<(), String> {
        let mut et_rows: Vec<Vec<Value>> = Vec::new();
        for e in &pipe_report.acq_errors {
            et_rows.push(vec![
                Value::Int(e.seq as i64),
                Value::Int(e.code.0 as i64),
                Value::Null,
                Value::Str(e.message.clone()),
            ]);
        }
        let mut uv_rows: Vec<Vec<Value>> = Vec::new();
        for e in app_errors {
            if e.code == ErrCode::UNIQUENESS {
                let seq = match e.rows {
                    ErrorRows::Single(s) => s,
                    ErrorRows::Range(a, _) => a,
                };
                let mut row: Vec<Value> = e.uv_tuple.clone().unwrap_or_default();
                // Pad if the tuple was unavailable.
                while row.len() < job.spec.layout.arity() {
                    row.push(Value::Null);
                }
                row.push(Value::Int(seq as i64));
                row.push(Value::Int(e.code.0 as i64));
                uv_rows.push(row);
            } else {
                let seqno = match e.rows {
                    ErrorRows::Single(s) => Value::Int(s as i64),
                    ErrorRows::Range(_, _) => Value::Null,
                };
                et_rows.push(vec![
                    seqno,
                    Value::Int(e.code.0 as i64),
                    match &e.field {
                        Some(f) => Value::Str(f.clone()),
                        None => Value::Null,
                    },
                    Value::Str(e.message.clone()),
                ]);
            }
        }
        if !et_rows.is_empty() {
            self.insert_rows(&job.spec.error_table_et, et_rows, retries)?;
        }
        if !uv_rows.is_empty() {
            self.insert_rows(&job.spec.error_table_uv, uv_rows, retries)?;
        }
        Ok(())
    }

    /// Write error rows as one set-oriented `INSERT … VALUES` statement of
    /// literals: the warehouse validates the whole batch before it
    /// appends any row.
    fn insert_rows(
        &self,
        table: &str,
        rows: Vec<Vec<Value>>,
        retries: &mut u64,
    ) -> Result<(), String> {
        let values = rows
            .into_iter()
            .map(|row| {
                row.iter()
                    .map(|v| Expr::Literal(Literal::from_value(v)))
                    .collect()
            })
            .collect();
        let stmt = Stmt::Insert(Insert {
            table: ObjectName::simple(table),
            columns: None,
            source: InsertSource::Values(values),
        });
        retry_cdw(
            self.node.config.retry_policy(),
            self.node.config.fault_seed() ^ 0xE7,
            retries,
            || self.node.cdw.execute_stmt(&stmt),
        )
        .map(|_| ())
        .map_err(|e| format!("writing error table {table}: {e}"))
    }

    // ------------------------------------------------------------ export

    pub(crate) fn handle_begin_export(
        &self,
        spec: etlv_protocol::message::BeginExport,
        tenant: Arc<TenantObs>,
    ) -> Message {
        let node = &self.node;
        let owner = match self.admit(&tenant) {
            Ok(owner) => owner,
            Err((code, message)) => return error_msg(code, message, false),
        };
        let translated = match xcompile::translate_sql(&spec.select) {
            Ok(t) => t,
            Err(e) => return error_msg(ErrCode::SQL_ERROR, e.to_string(), true),
        };
        let chunk_rows = if spec.chunk_rows == 0 {
            EXPORT_CHUNK_ROWS
        } else {
            spec.chunk_rows
        };
        // The export's SELECT retries transient blips like any other
        // statement: a warehouse fault fails before it runs.
        let mut retries = 0u64;
        let opened = retry_cdw(
            node.config.retry_policy(),
            node.config.fault_seed() ^ 0xE5,
            &mut retries,
            || {
                TdfCursor::open(
                    &node.cdw,
                    &translated,
                    chunk_rows,
                    node.config.export_prefetch_chunks,
                )
            },
        );
        tenant.retries.add(retries);
        let cursor = match opened {
            Ok(c) => c,
            Err(e) => return error_msg(ErrCode::SQL_ERROR, e.to_string(), true),
        };
        let layout = Layout {
            name: "EXPORT".into(),
            fields: cursor
                .columns()
                .iter()
                .map(|(n, ty)| etlv_protocol::layout::FieldDef::new(n.clone(), *ty))
                .collect(),
        };
        let token = node.next_token.fetch_add(1, Ordering::Relaxed);
        let depth = spec.sessions.clamp(1, MAX_CHUNKS_AHEAD);
        let window = ChunkWindow::new(u64::from(depth), cursor.total_chunks());
        owner.enter(
            token,
            Job::Export(Arc::new(ExportJobState {
                cursor,
                format: spec.format,
                layout: layout.clone(),
                tenant,
                window: Arc::new(window),
            })),
        );
        node.obs.export.jobs.inc();
        Message::BeginExportOk(BeginExportOk {
            export_token: token,
            layout,
        })
    }

    /// Serve one export chunk: the cursor's slice of the result in the
    /// legacy wire format (the PXC's result conversion, §4), taken from
    /// the chunks encoded ahead or encoded here, and framed whole for the
    /// requesting session. The work left to do after the reply is posted
    /// is to encode ahead.
    pub(crate) fn handle_export_req(
        &self,
        token: u64,
        index: u64,
        session_id: u32,
        seq: u32,
    ) -> (Reply, Option<EncodeAhead>) {
        let job = match self.node.jobs.lock().get(&token) {
            Some((Job::Export(j), _)) => Arc::clone(j),
            _ => return (no_job("export", token).into(), None),
        };
        let chunk = match job.window.take(index) {
            Some(ahead) => ahead.chunk,
            None => match job.encode(index) {
                Ok(chunk) => chunk,
                Err(e) => {
                    return (
                        error_msg(ErrCode::INTERNAL, e.to_string(), true).into(),
                        None,
                    )
                }
            },
        };
        let export = &self.node.obs.export;
        export.chunks.inc();
        export.rows.add(u64::from(chunk.record_count()));
        export.bytes.add(chunk.data_len() as u64);
        let ahead = EncodeAhead {
            job: Arc::downgrade(&job),
            window: Arc::clone(&job.window),
        };
        (Reply::Framed(chunk.seal(session_id, seq)), Some(ahead))
    }
}

/// The node's observability hub and, when a fault plan is configured,
/// its fault injector.
fn build_obs(config: &VirtualizerConfig) -> (Arc<Obs>, Option<Arc<FaultInjector>>) {
    let obs = Arc::new(Obs::new(config.journal_capacity, None));
    let injector = config
        .fault_plan
        .clone()
        .map(|plan| Arc::new(FaultInjector::with_obs(plan, obs.fault.clone())));
    (obs, injector)
}

/// Wrap `store` in the chaos layer (with a fault plan) and, outside it,
/// the observed decorator, so injected faults are observed failures.
fn decorate(
    store: Arc<dyn ObjectStore>,
    injector: &Option<Arc<FaultInjector>>,
    obs: &Obs,
) -> Arc<dyn ObjectStore> {
    let store = match injector {
        Some(injector) => Arc::new(ChaosStore::new(store, injector.store_hook())),
        None => store,
    };
    Arc::new(ObservedStore::new(store, store_observer(obs)))
}

/// The callback an [`ObservedStore`] feeds: op counts, byte totals, error
/// counts, and wall-time histograms per store operation.
fn store_observer(obs: &Obs) -> etlv_cloudstore::StoreObserver {
    let store = obs.store.clone();
    Arc::new(move |op, bytes, elapsed, ok| match op {
        StoreOp::Put => {
            store.put_ops.inc();
            if ok {
                store.put_bytes.add(bytes);
            } else {
                store.put_errors.inc();
            }
            store.put_us.record_duration(elapsed);
        }
        StoreOp::Get => {
            store.get_ops.inc();
            if ok {
                store.get_bytes.add(bytes);
            } else {
                store.get_errors.inc();
            }
            store.get_us.record_duration(elapsed);
        }
    })
}

pub(crate) fn error_msg(code: ErrCode, message: impl Into<String>, fatal: bool) -> Message {
    Message::Error(WireError {
        code: code.0,
        message: message.into(),
        fatal,
    })
}

/// The fatal reply to a request that names no job of its kind.
fn no_job(kind: &str, token: u64) -> Message {
    let message = format!("no {kind} job for token {token}");
    error_msg(ErrCode::PROTOCOL, message, true)
}

/// The message a caught panic carried, if it was a string.
pub(crate) fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into())
}

/// Combine the node's `max_errors` with the script's `errlimit` (both 0 =
/// unlimited; otherwise the tighter bound wins).
fn effective_max_errors(config_max: u64, errlimit: u64) -> u64 {
    match (config_max, errlimit) {
        (0, 0) => 0,
        (0, e) => e,
        (m, 0) => m,
        (m, e) => m.min(e),
    }
}

/// Expose staged-value access for tests: the staging tables are dropped at
/// job end, so tests assert through the CDW's target/error tables instead.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_max_errors_combination() {
        assert_eq!(effective_max_errors(0, 0), 0);
        assert_eq!(effective_max_errors(5, 0), 5);
        assert_eq!(effective_max_errors(0, 7), 7);
        assert_eq!(effective_max_errors(5, 7), 5);
        assert_eq!(effective_max_errors(9, 7), 7);
    }

    #[test]
    #[should_panic(expected = "invalid virtualizer config")]
    fn invalid_config_panics() {
        let _ = Virtualizer::new(VirtualizerConfig {
            credits: 0,
            ..Default::default()
        });
    }

    /// A handler that panics while it owns a job — the `finish_load` path
    /// — aborts the job from the owner's `Drop`: credits and memory come
    /// home, the staged objects and the staging and error tables go, and
    /// the loss is on record.
    #[test]
    fn a_panic_while_owning_a_job_aborts_it() {
        use etlv_protocol::data::LegacyType;
        use etlv_protocol::message::DataChunk;

        // One-byte parts: the chunk's staged text uploads as an object.
        let v = Virtualizer::new(VirtualizerConfig {
            file_size_threshold: 1,
            ..Default::default()
        });
        let spec = BeginLoad {
            target_table: "T".into(),
            error_table_et: "T_ET".into(),
            error_table_uv: "T_UV".into(),
            layout: Layout::new("L").field("A", LegacyType::VarChar(10)),
            format: RecordFormat::Vartext {
                delimiter: b'|',
                quote: b'"',
            },
            sessions: 1,
            error_limit: 0,
            trace: None,
        };
        let tenant = v.node.obs.registry.tenant("t");
        let Message::BeginLoadOk { load_token: token } = v.handle_begin_load(spec, tenant) else {
            panic!("load not admitted");
        };
        let chunk = DataChunk {
            chunk_seq: 1,
            base_seq: 1,
            record_count: 2,
            data: bytes::Bytes::from_static(b"a\nb\n"),
        };
        let reply = v.handle_data_chunk(token, chunk);
        assert!(matches!(reply, Message::Ack { chunk_seq: 1 }), "{reply:?}");
        let bucket = &v.config().staging_bucket;
        let prefix = xcompile::staging_prefix(token);
        let deadline = Instant::now() + Duration::from_secs(5);
        while v.node.store.list(bucket, &prefix).unwrap().is_empty() {
            assert!(Instant::now() < deadline, "the chunk was never staged");
            std::thread::sleep(Duration::from_millis(1));
        }

        let owner = v.take_job(token);
        assert!(owner.job.is_some(), "the job is in the table");
        // The panic unwinds a scoped thread, as a handler's unwinds a
        // dispatch worker up to the reactor's catch.
        let unwound = std::thread::scope(|s| {
            s.spawn(move || {
                let _owner = owner;
                panic!("a handler panicked while it owned the job");
            })
            .join()
        });
        assert!(unwound.is_err());

        assert_eq!(v.credits().available(), v.credits().capacity());
        assert_eq!(v.memory().in_flight(), 0);
        assert_eq!(v.active_jobs(), 0);
        for table in [xcompile::staging_table_name(token).as_str(), "T_ET", "T_UV"] {
            assert!(!v.cdw().table_exists(table), "{table} left");
        }
        assert_eq!(
            v.node.store.list(bucket, &prefix).unwrap(),
            Vec::<String>::new()
        );
        assert!(v.last_job_report().expect("abort recorded").aborted);
    }

    /// A node whose table `T` holds `n` rows of 200-byte strings, and a
    /// vartext export of it in 5-row chunks for `sessions` data sessions:
    /// the node and the export's token.
    fn node_exporting(config: VirtualizerConfig, n: usize, sessions: u16) -> (Virtualizer, u64) {
        let v = Virtualizer::new(config);
        v.cdw()
            .execute("CREATE TABLE T (A INTEGER, B VARCHAR(200))")
            .unwrap();
        let wide = "w".repeat(200);
        for i in 0..n {
            v.cdw()
                .execute(&format!("INSERT INTO T VALUES ({i}, '{wide}')"))
                .unwrap();
        }
        let spec = etlv_protocol::message::BeginExport {
            select: "SELECT A, B FROM T ORDER BY A".into(),
            format: RecordFormat::Vartext {
                delimiter: b'|',
                quote: b'"',
            },
            sessions,
            chunk_rows: 5,
        };
        let tenant = v.node.obs.registry.tenant("t");
        let Message::BeginExportOk(ok) = v.handle_begin_export(spec, tenant) else {
            panic!("export not opened");
        };
        (v, ok.export_token)
    }

    /// Serve chunk `index`, then encode ahead as its dispatch thread does
    /// once the reply is posted.
    fn serve(v: &Virtualizer, token: u64, index: u64) {
        let (reply, ahead) = v.handle_export_req(token, index, 1, 1);
        assert!(matches!(reply, Reply::Framed(_)), "chunk {index} served");
        ahead.expect("a served chunk leaves work ahead").run(v);
    }

    /// However many sessions the client announces, an export encodes at
    /// most `MAX_CHUNKS_AHEAD` chunks past the last one served.
    #[test]
    fn work_ahead_is_capped_whatever_the_session_count() {
        let (v, token) = node_exporting(VirtualizerConfig::default(), 100, u16::MAX);
        serve(&v, token, 0);
        let window = match v.node.jobs.lock().get(&token) {
            Some((Job::Export(job), _)) => Arc::clone(&job.window),
            _ => panic!("the export is open"),
        };
        for index in 1..=u64::from(MAX_CHUNKS_AHEAD) {
            assert!(window.take(index).is_some(), "chunk {index} ahead");
        }
        assert!(window.take(5).is_none(), "chunk 5 is past the cap");
    }

    /// Chunks encoded ahead take at most half the memory cap, so a load's
    /// chunk that fits in the other half is admitted while an export holds
    /// its work ahead. Each 5-row chunk holds over a kilobyte: four ahead
    /// would leave less than half of the 4 KiB cap.
    #[test]
    fn work_ahead_leaves_a_load_half_the_memory_cap() {
        use etlv_protocol::data::LegacyType;
        use etlv_protocol::message::DataChunk;

        let cap = 4 << 10;
        let config = VirtualizerConfig {
            memory_cap: cap,
            ..Default::default()
        };
        let (v, export) = node_exporting(config, 100, 4);
        serve(&v, export, 0);
        let ahead = v.memory().in_flight();
        assert!(ahead > 0 && ahead <= cap as u64 / 2, "{ahead} bytes ahead");

        let spec = BeginLoad {
            target_table: "L".into(),
            error_table_et: "L_ET".into(),
            error_table_uv: "L_UV".into(),
            layout: Layout::new("L").field("A", LegacyType::VarChar(10)),
            format: RecordFormat::Vartext {
                delimiter: b'|',
                quote: b'"',
            },
            sessions: 1,
            error_limit: 0,
            trace: None,
        };
        let tenant = v.node.obs.registry.tenant("t");
        let Message::BeginLoadOk { load_token } = v.handle_begin_load(spec, tenant) else {
            panic!("load not admitted");
        };
        let chunk = DataChunk {
            chunk_seq: 1,
            base_seq: 1,
            record_count: cap as u32 / 4,
            data: bytes::Bytes::from("a\n".repeat(cap / 4).into_bytes()),
        };
        let reply = v.handle_data_chunk(load_token, chunk);
        assert!(matches!(reply, Message::Ack { chunk_seq: 1 }), "{reply:?}");
        drop(v.take_job(load_token));
    }

    #[test]
    fn node_constructs_with_defaults() {
        let v = Virtualizer::new(VirtualizerConfig::default());
        assert!(v.cdw().execute("CREATE TABLE T (A INTEGER)").is_ok());
        assert_eq!(v.metrics().jobs_completed, 0);
        assert!(v.last_job_report().is_none());
    }
}
