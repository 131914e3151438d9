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

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use etlv_cdw::{Cdw, CdwConfig};
use etlv_cloudstore::{
    BulkLoader, ChaosStore, LoaderConfig, MemStore, ObjectStore, ObservedStore, StoreOp,
};
use etlv_protocol::data::Value;
use etlv_protocol::errcode::ErrCode;
use etlv_protocol::layout::Layout;
use etlv_protocol::message::{
    BeginExportOk, BeginLoad, ExportChunk, Format, IntrospectReply, Message, RecordFormat,
    SqlResult, Topic, WireError,
};
use etlv_protocol::record::encode_rows;
use etlv_protocol::trace::TraceContext;
use etlv_sql::ast::{Expr, Insert, InsertSource, Literal, ObjectName, Stmt};
use etlv_sql::types::SqlType;
use etlv_sql::Dialect;
use parking_lot::{Condvar, Mutex};

use crate::adaptive::{AdaptiveParams, ErrorRows, RecordedError};
use crate::apply::apply;
use crate::config::{VirtualizerConfig, SAMPLER_METRICS};
use crate::convert::DataConverter;
use crate::credit::CreditManager;
use crate::cursor::TdfCursor;
use crate::emulate;
use crate::fault::{retry_cdw, FaultCounts, FaultInjector};
use crate::memory::MemoryGauge;
use crate::obs::{
    stats_json, stats_prometheus, CpuTimer, HealthReport, JobObs, Obs, OverloadInput,
    ProfileReport, Sampler, SloEngine, SpanIds, TenantObs,
};
use crate::pipeline::{ChunkSink, Pipeline, PipelineReport, RawChunk, WorkerRuntime};
use crate::report::{JobReport, NodeMetrics};
use crate::session::SessionRegistry;
use crate::trace::JobTrace;
use crate::xcompile;

pub(crate) struct ImportJobState {
    spec: BeginLoad,
    staging_table: String,
    prefix: String,
    /// CDW statements retried while creating the job's tables — folded
    /// into the report's `cdw_retries` at job end.
    setup_retries: u64,
    /// The job's root span identity: trace id from the client's
    /// `TraceContext` (or minted on entry), root span parenting every
    /// stage span the job emits.
    ids: SpanIds,
    /// Accumulated gateway-side ack turnaround (credit acquire + memory
    /// reserve + enqueue per chunk), µs — emitted as one aggregate
    /// `ack.wait` span at job end so the hot path stays journal-free.
    ack_wait_micros: AtomicU64,
    pipeline: Mutex<Option<Pipeline>>,
    sink: Mutex<Option<ChunkSink>>,
    rows_received: AtomicU64,
    oom: Mutex<Option<String>>,
    started: Instant,
    /// The owning session's tenant metric block — every job-scoped count
    /// and latency lands here as well as in the node-global registry.
    tenant: Arc<TenantObs>,
}

pub(crate) struct ExportJobState {
    cursor: TdfCursor,
    format: RecordFormat,
    layout: Layout,
}

pub(crate) enum Job {
    Import(Arc<ImportJobState>),
    Export(Arc<ExportJobState>),
}

/// How a job left the job table — what [`Virtualizer::end_job`] books.
enum JobOutcome {
    Completed(JobReport),
    Failed(ErrCode),
    Aborted,
}

pub(crate) struct Node {
    pub(crate) config: VirtualizerConfig,
    pub(crate) cdw: Cdw,
    pub(crate) store: Arc<dyn ObjectStore>,
    pub(crate) injector: Option<Arc<FaultInjector>>,
    pub(crate) credits: CreditManager,
    pub(crate) memory: MemoryGauge,
    pub(crate) obs: Arc<Obs>,
    pub(crate) jobs: Mutex<HashMap<u64, Job>>,
    /// Jobs admitted but still in setup, not yet in `jobs`; they count
    /// against `max_concurrent_jobs` too. Raised only under the `jobs`
    /// lock, so admission's check-and-claim is one step.
    admitting: AtomicUsize,
    pub(crate) next_token: AtomicU64,
    pub(crate) next_session: AtomicU32,
    /// Ring of the most recent completed load reports, newest last
    /// (capacity `config.report_history`).
    pub(crate) reports: Mutex<VecDeque<JobReport>>,
    /// Background time-series sampler (`config.sampler_tick > 0` only).
    pub(crate) sampler: Option<Sampler>,
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
}

impl Drop for Node {
    fn drop(&mut self) {
        if let Some(sampler) = &self.sampler {
            sampler.stop();
        }
    }
}

/// A job slot claimed by [`Virtualizer::admit`] and held while the job
/// is set up. [`enter`](Admission::enter) moves the job into the table
/// and the slot with it; dropping the admission gives the slot back.
struct Admission<'a> {
    node: &'a Node,
}

impl Admission<'_> {
    fn enter(self, token: u64, job: Job) {
        let node = self.node;
        let mut jobs = node.jobs.lock();
        jobs.insert(token, job);
        node.obs.gateway.active_jobs.set(jobs.len() as u64);
        // The slot moves to the table under the lock: no admission sees
        // it counted twice or not at all.
        drop(self);
    }
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.node.admitting.fetch_sub(1, Ordering::Relaxed);
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
        let obs = build_obs(&config);
        let injector = config
            .fault_plan
            .clone()
            .map(|plan| Arc::new(FaultInjector::new(plan)));
        let mut store: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
        if let Some(injector) = &injector {
            store = Arc::new(ChaosStore::new(store, injector.store_hook()));
        }
        // The observed decorator wraps *outside* the chaos layer and
        // *before* the CDW is constructed, so both the uploader's puts and
        // COPY's gets — injected faults included — land in the registry.
        store = Arc::new(ObservedStore::new(store, store_observer(&obs)));
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
        let obs = build_obs(&config);
        let injector = config
            .fault_plan
            .clone()
            .map(|plan| Arc::new(FaultInjector::new(plan)));
        let store = match &injector {
            Some(injector) => {
                Arc::new(ChaosStore::new(store, injector.store_hook())) as Arc<dyn ObjectStore>
            }
            None => store,
        };
        let store: Arc<dyn ObjectStore> = Arc::new(ObservedStore::new(store, store_observer(&obs)));
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
        // Lock-contention attribution: every catalog/table acquisition
        // the engine reports lands in a named lock site
        // (`cdw.catalog`, `cdw.table/<name>`). Interning is bounded by
        // the registry's site limit, so hostile table churn cannot
        // grow the registry without bound. Hold time is not tracked
        // for CDW sites — the engine only reports the acquisition.
        let lock_reg = obs.registry.clone();
        cdw.set_lock_observer(Some(Arc::new(move |site, wait, contended| {
            let site = lock_reg.lock_site(site);
            if contended {
                site.acquired_after(wait);
            } else {
                site.acquired_uncontended();
            }
        })));
        let credits = CreditManager::with_obs(config.credits, obs.credit.clone());
        let memory = MemoryGauge::new(config.memory_cap);
        let slo = SloEngine::new(config.slo.clone());
        let sampler = if !config.sampler_tick.is_zero() {
            // The sampler's refresh mirrors `refresh_gauges` so gauge
            // series (credit occupancy, memory) are current every tick;
            // it also feeds the SLO engine's burn-rate windows, so health
            // evaluation stays current without its own thread.
            let refresh: Box<dyn Fn() + Send + Sync> = {
                let obs = Arc::clone(&obs);
                let credits = credits.clone();
                let memory = memory.clone();
                let injector = injector.clone();
                let slo = slo.clone();
                Box::new(move || {
                    refresh_gauges_into(&obs, &credits, &memory, injector.as_deref());
                    slo.observe(&obs);
                })
            };
            Some(Sampler::start(
                Arc::clone(&obs),
                refresh,
                config.sampler_tick,
                config.sampler_capacity,
                &SAMPLER_METRICS,
            ))
        } else {
            None
        };
        let runtime = WorkerRuntime::start(&config, Arc::clone(&obs), injector.clone());
        let registry = SessionRegistry::new(
            config.max_sessions,
            obs.registry.lock_site("gateway.sessions"),
        );
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
                reports: Mutex::new(VecDeque::new()),
                sampler,
                runtime,
                slo,
                registry,
                draining: AtomicBool::new(false),
                jobs_drained: Condvar::new(),
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
    /// credit pool and the memory gauge — nothing is counted twice.
    pub fn metrics(&self) -> NodeMetrics {
        let node = &self.node;
        let (gateway, export) = (&node.obs.gateway, &node.obs.export);
        NodeMetrics {
            jobs_completed: gateway.jobs_completed.value(),
            jobs_failed: gateway.jobs_failed.value(),
            exports_completed: export.jobs.value(),
            jobs_aborted: gateway.jobs_aborted.value(),
            rows_ingested: gateway.rows_ingested.value(),
            rows_exported: export.rows.value(),
            bytes_exported: export.bytes.value(),
            credit_stalls: node.credits.stalls(),
            credit_stall_time: node.credits.stall_time(),
            peak_memory: node.memory.peak(),
        }
    }

    /// The most recent completed load job's report (benches read phase
    /// timings here).
    pub fn last_job_report(&self) -> Option<JobReport> {
        self.node.reports.lock().back().cloned()
    }

    /// The retained ring of recent load reports, oldest first (capacity
    /// [`VirtualizerConfig::report_history`]).
    pub fn recent_job_reports(&self) -> Vec<JobReport> {
        self.node.reports.lock().iter().cloned().collect()
    }

    /// The node's observability hub (registry + journal + handles).
    pub fn obs(&self) -> &Obs {
        &self.node.obs
    }

    /// Copy point-in-time state (credit/memory/fault-injector levels) into
    /// the registry's gauges so a snapshot is self-consistent.
    fn refresh_gauges(&self) {
        let node = &self.node;
        refresh_gauges_into(
            &node.obs,
            &node.credits,
            &node.memory,
            node.injector.as_deref(),
        );
    }

    /// Evaluate per-tenant SLO burn rates and node overload right now.
    /// Feeds the engine a fresh observation first, so health answers are
    /// current even when the background sampler is disabled.
    pub fn health(&self) -> HealthReport {
        let node = &self.node;
        self.refresh_gauges();
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

    /// The continuous-profiling report: per-stage CPU/wall accounting,
    /// top-K contended lock sites, worker-pool utilization, and the
    /// folded-stack flamegraph aggregated from the journal's retained
    /// spans.
    pub fn profile(&self) -> ProfileReport {
        ProfileReport::collect(&self.node.obs)
    }

    /// Render one monitoring document — what an `Introspect` wire request
    /// returns, and the only place a (topic, format) pair is mapped to a
    /// renderer. [`Format`] states which topics have a text rendering.
    pub fn introspect(&self, topic: Topic, format: Format) -> IntrospectReply {
        let format = match topic {
            Topic::Series | Topic::Trace { .. } => Format::Json,
            Topic::Stats | Topic::Health | Topic::Profile => format,
        };
        let body = match (topic, format) {
            (Topic::Stats, _) => {
                self.refresh_gauges();
                let (metrics, snap) = (self.metrics(), self.node.obs.snapshot());
                let journal = &self.node.obs.journal;
                Some(match format {
                    Format::Json => stats_json(
                        &metrics,
                        &snap,
                        &self.recent_job_reports(),
                        journal.emitted(),
                        journal.retained(),
                        journal.dropped(),
                    ),
                    Format::Text => {
                        stats_prometheus(&metrics, &snap, journal.emitted(), journal.dropped())
                    }
                })
            }
            // A disabled sampler (`sampler_tick = 0`) still answers, so
            // callers can always parse the same shape.
            (Topic::Series, _) => Some(match &self.node.sampler {
                Some(sampler) => sampler.series_json(),
                None => "{\"enabled\": false, \"tick_micros\": 0, \"series\": []}\n".to_string(),
            }),
            (Topic::Health, Format::Json) => Some(self.health().to_json()),
            (Topic::Health, Format::Text) => Some(self.health().to_prometheus()),
            (Topic::Profile, Format::Json) => Some(self.profile().to_json()),
            (Topic::Profile, Format::Text) => Some(self.profile().folded),
            (Topic::Trace { job }, _) => self.trace(job).map(|t| t.to_json()),
        };
        IntrospectReply {
            topic,
            format,
            found: body.is_some(),
            body: body.unwrap_or_default(),
        }
    }

    /// Stop the background sampler (idempotent). Freezes the series
    /// document — after this, successive `Topic::Series` requests (local
    /// or over the wire) return identical bytes, which is what
    /// exact-comparison tests need.
    pub fn stop_sampler(&self) {
        if let Some(sampler) = &self.node.sampler {
            sampler.stop();
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
        while !jobs.is_empty() {
            if Instant::now() >= deadline {
                return false;
            }
            if self
                .node
                .jobs_drained
                .wait_until(&mut jobs, deadline)
                .timed_out()
            {
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
                rows: result.rows,
            }),
            Err(e) => error_msg(ErrCode::SQL_ERROR, e.to_string(), false),
        }
    }

    // ------------------------------------------------------------ import

    pub(crate) fn handle_begin_load(&self, spec: BeginLoad, tenant: Arc<TenantObs>) -> Message {
        let node = &self.node;
        let admission = match self.admit(&tenant) {
            Ok(admission) => admission,
            Err((code, message)) => return error_msg(code, message, false),
        };
        let token = node.next_token.fetch_add(1, Ordering::Relaxed);
        let staging_table = xcompile::staging_table_name(token);
        let prefix = xcompile::staging_prefix(token);

        // Causal identity: adopt the client's trace context; a trace-free
        // legacy client gets one minted here, so every job is traceable.
        let ctx = spec.trace.unwrap_or_else(TraceContext::mint);
        let ids = SpanIds {
            trace: ctx.trace_id,
            span: node.obs.journal.next_span_id(),
            parent: ctx.parent_span,
        };

        // Staging + error tables on the CDW.
        let setup_retries = match self.create_job_tables(&spec, &staging_table) {
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
        let pipeline = node.runtime.begin_job(
            converter,
            loader,
            prefix.clone(),
            token,
            ids,
            node.config.drain_timeout,
            Arc::clone(&tenant),
        );
        let sink = pipeline.sink();
        node.obs.gateway.jobs_started.inc();
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

        admission.enter(
            token,
            Job::Import(Arc::new(ImportJobState {
                spec,
                staging_table,
                prefix,
                setup_retries,
                ids,
                ack_wait_micros: AtomicU64::new(0),
                pipeline: Mutex::new(Some(pipeline)),
                sink: Mutex::new(Some(sink)),
                rows_received: AtomicU64::new(0),
                oom: Mutex::new(None),
                started,
                tenant,
            })),
        );
        Message::BeginLoadOk { load_token: token }
    }

    /// Job admission, the one check both `BeginLoad` and `BeginExport`
    /// pass: refuse while draining, and answer a node already running
    /// `max_concurrent_jobs` with retryable `SERVER_BUSY` (the legacy
    /// client backs off and re-issues). An admitted job holds its slot
    /// through setup — concurrent requests cannot all pass the check —
    /// until [`Admission::enter`] hands it to the job table, or until
    /// setup fails and the [`Admission`] is dropped.
    fn admit(&self, tenant: &TenantObs) -> Result<Admission<'_>, (ErrCode, String)> {
        let node = &self.node;
        if node.draining.load(Ordering::Relaxed) {
            return Err((ErrCode::SHUTTING_DOWN, "server is draining".into()));
        }
        let jobs = node.jobs.lock();
        if jobs.len() + node.admitting.load(Ordering::Relaxed) >= node.config.max_concurrent_jobs {
            drop(jobs);
            node.obs.gateway.admission_rejections.inc();
            tenant.admission_rejections.inc();
            let limit = node.config.max_concurrent_jobs;
            return Err((
                ErrCode::SERVER_BUSY,
                format!("job limit reached ({limit} active), retry later"),
            ));
        }
        node.admitting.fetch_add(1, Ordering::Relaxed);
        Ok(Admission { node })
    }

    /// Create the job's staging + error tables; returns how many setup
    /// statements had to be retried after transient faults.
    fn create_job_tables(&self, spec: &BeginLoad, staging_table: &str) -> Result<u64, String> {
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
        run(&format!("DROP TABLE IF EXISTS {staging_table}"))?;
        run(&xcompile::staging_ddl(staging_table, &spec.layout))?;
        run(&format!("DROP TABLE IF EXISTS {}", spec.error_table_et))?;
        run(&format!(
            "CREATE TABLE {} (SEQNO BIGINT, ERRCODE INTEGER, ERRFIELD VARCHAR(128), ERRMESSAGE VARCHAR(512))",
            spec.error_table_et
        ))?;
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
        let job = {
            let jobs = self.node.jobs.lock();
            match jobs.get(&token) {
                Some(Job::Import(j)) => Arc::clone(j),
                _ => {
                    return error_msg(
                        ErrCode::PROTOCOL,
                        format!("no import job for token {token}"),
                        true,
                    )
                }
            }
        };
        if let Some(oom) = job.oom.lock().clone() {
            return error_msg(ErrCode::OUT_OF_MEMORY, oom, true);
        }
        let credit = self.node.credits.acquire();
        let memory = match self.node.memory.reserve(chunk.data.len()) {
            Ok(m) => m,
            Err(e) => {
                *job.oom.lock() = Some(e.to_string());
                return error_msg(ErrCode::OUT_OF_MEMORY, e.to_string(), true);
            }
        };
        let sink = match job.sink.lock().as_ref() {
            Some(s) => s.clone(),
            None => return error_msg(ErrCode::PROTOCOL, "data chunk after the load ended", true),
        };
        let chunk_seq = chunk.chunk_seq;
        job.rows_received
            .fetch_add(chunk.record_count as u64, Ordering::Relaxed);
        // Held-resource gauges increment *before* the push: the pipeline
        // decrements them when it retires the chunk, and a retire must
        // never be able to observe the gauge before the increment landed.
        let tenant = &job.tenant;
        tenant.credit_held.add(1);
        tenant.memory_held.add(chunk_bytes);
        if !sink.push(RawChunk {
            base_seq: chunk.base_seq,
            data: chunk.data,
            credit,
            memory,
            enqueued: handle_started,
        }) {
            // Refused chunks never reach the pipeline; unwind the gauges.
            tenant.credit_held.sub(1);
            tenant.memory_held.sub(chunk_bytes);
            return error_msg(ErrCode::INTERNAL, "acquisition pipeline closed", true);
        }
        let obs = &self.node.obs.gateway;
        obs.chunks_received.inc();
        obs.chunk_bytes.add(chunk_bytes);
        // Tenant attribution: four relaxed atomics per accepted chunk.
        tenant.chunks.inc();
        tenant.chunk_bytes.add(chunk_bytes);
        let handle_elapsed = handle_started.elapsed();
        obs.chunk_handle_us.record_duration(handle_elapsed);
        // One relaxed add per chunk — the only tracing cost on this path;
        // the aggregate becomes the job's `ack.wait` span at job end.
        job.ack_wait_micros
            .fetch_add(handle_elapsed.as_micros() as u64, Ordering::Relaxed);
        Message::Ack { chunk_seq }
    }

    pub(crate) fn handle_end_load(&self, token: u64, dml: &str) -> Message {
        let job = {
            let mut jobs = self.node.jobs.lock();
            match jobs.remove(&token) {
                Some(Job::Import(j)) => {
                    self.node.obs.gateway.active_jobs.set(jobs.len() as u64);
                    self.node.jobs_drained.notify_all();
                    j
                }
                _ => {
                    return error_msg(
                        ErrCode::PROTOCOL,
                        format!("no import job for token {token}"),
                        true,
                    )
                }
            }
        };
        match self.finish_load(token, &job, dml) {
            Ok(report) => {
                let wire = report.to_wire();
                self.end_job(token, &Job::Import(job), JobOutcome::Completed(report));
                Message::LoadReport(wire)
            }
            Err((code, message)) => {
                self.cleanup_job(&job);
                self.end_job(token, &Job::Import(job), JobOutcome::Failed(code));
                // A failed load is a clean job failure, not a session
                // failure: the client gets the error reply and the control
                // session stays usable for diagnostics or another attempt.
                error_msg(code, message, false)
            }
        }
    }

    /// The one place a job's outcome is booked, once each: the node
    /// counter, the tenant's counter and `active_jobs`, a completed job's
    /// tenant totals, the terminal journal span, and the report ring. The
    /// caller has already taken the job out of the job table.
    fn end_job(&self, token: u64, job: &Job, outcome: JobOutcome) {
        let node = &self.node;
        let gateway = &node.obs.gateway;
        match outcome {
            JobOutcome::Completed(_) => gateway.jobs_completed.inc(),
            JobOutcome::Failed(_) => gateway.jobs_failed.inc(),
            JobOutcome::Aborted => gateway.jobs_aborted.inc(),
        }
        let Job::Import(job) = job else {
            // An abandoned export counts on the node only: exports never
            // entered a tenant's `jobs_started`, so booking their aborts
            // there would bend the SLO availability ratio.
            node.obs
                .journal
                .emit("job.abort", token, 0, 0, 0, Duration::ZERO);
            return;
        };
        let t = &job.tenant;
        t.active_jobs.sub(1);
        let elapsed = job.started.elapsed();
        let (kind, value, wall, report) = match outcome {
            JobOutcome::Completed(report) => {
                gateway.rows_ingested.add(report.rows_received);
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
                let rows_received = job.rows_received.load(Ordering::Relaxed);
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
            let mut reports = node.reports.lock();
            while reports.len() >= node.config.report_history {
                reports.pop_front();
            }
            reports.push_back(report);
        }
    }

    fn finish_load(
        &self,
        token: u64,
        job: &ImportJobState,
        dml: &str,
    ) -> Result<JobReport, (ErrCode, String)> {
        let node = &self.node;

        // Drain the pipeline: all chunks converted, staged, uploaded.
        let pipeline = job
            .pipeline
            .lock()
            .take()
            .ok_or((ErrCode::PROTOCOL, "load already ended".to_string()))?;
        drop(job.sink.lock().take());
        let pipe_report: PipelineReport = pipeline.finish();
        if let Some(oom) = job.oom.lock().clone() {
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
                job.staging_table,
                node.config.staging_bucket,
                job.prefix,
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
            node.obs
                .profile
                .copy
                .record(copy_elapsed, copy_cpu.elapsed());
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
        let compiled = xcompile::compile_dml(dml, &job.spec.layout, &job.staging_table)
            .map_err(|e| (ErrCode::SQL_ERROR, e.to_string()))?;
        let emulation =
            emulate::plan(&node.cdw, &compiled).map_err(|e| (ErrCode::SQL_ERROR, e.to_string()))?;
        let rows_received = job.rows_received.load(Ordering::Relaxed);
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
        node.obs
            .profile
            .apply
            .record(application, apply_cpu.elapsed());
        node.obs.adaptive.statements.add(outcome.statements);
        node.obs
            .adaptive
            .transient_retries
            .add(outcome.transient_retries);
        job.tenant.apply_us.record_duration(application);
        node.obs.journal.emit_span(
            "apply",
            apply_ids,
            token,
            0,
            0,
            outcome.applied,
            application,
        );
        let ack_wait = Duration::from_micros(job.ack_wait_micros.load(Ordering::Relaxed));
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
        self.cleanup_job(job);

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
            faults_injected: node
                .injector
                .as_ref()
                .map(|i| i.counts().total())
                .unwrap_or(0),
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
        job: &ImportJobState,
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
                row.into_iter()
                    .map(|v| Expr::Literal(value_literal(v)))
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

    fn cleanup_job(&self, job: &ImportJobState) {
        let _ = self
            .node
            .cdw
            .execute(&format!("DROP TABLE IF EXISTS {}", job.staging_table));
        if let Ok(keys) = self
            .node
            .store
            .list(&self.node.config.staging_bucket, &job.prefix)
        {
            for key in keys {
                let _ = self
                    .node
                    .store
                    .delete(&self.node.config.staging_bucket, &key);
            }
        }
    }

    /// Abort one job its owning session abandoned (disconnect, idle
    /// timeout, or shutdown) — the disconnect-safe half of the job
    /// lifecycle. For an import: discard the pipeline's queued and
    /// in-flight chunks (credits and memory release immediately), drop
    /// the staging and error tables, delete staged objects, and record an
    /// aborted [`JobReport`] so the loss is visible in `recent_job_reports`.
    /// For an export: deregister the cursor. A `clean` close (explicit
    /// logoff) silently retires exports — they have no end-of-job message,
    /// so logoff *is* their normal completion — but an import still open
    /// at logoff was abandoned mid-load and is aborted like a disconnect.
    /// Unknown tokens (job already completed) are a no-op.
    pub(crate) fn abort_job(&self, token: u64, clean: bool) {
        let node = &self.node;
        let job = {
            let mut jobs = node.jobs.lock();
            let Some(job) = jobs.remove(&token) else {
                return;
            };
            node.obs.gateway.active_jobs.set(jobs.len() as u64);
            node.jobs_drained.notify_all();
            job
        };
        match &job {
            Job::Import(import) => {
                let pipeline = import.pipeline.lock().take();
                drop(import.sink.lock().take());
                if let Some(pipeline) = pipeline {
                    let _ = pipeline.abort();
                }
                self.cleanup_job(import);
                for table in [&import.spec.error_table_et, &import.spec.error_table_uv] {
                    let _ = node.cdw.execute(&format!("DROP TABLE IF EXISTS {table}"));
                }
            }
            Job::Export(_) if clean => return,
            Job::Export(_) => {}
        }
        self.end_job(token, &job, JobOutcome::Aborted);
    }

    // ------------------------------------------------------------ export

    pub(crate) fn handle_begin_export(
        &self,
        spec: etlv_protocol::message::BeginExport,
        tenant: Arc<TenantObs>,
    ) -> Message {
        let node = &self.node;
        let admission = match self.admit(&tenant) {
            Ok(admission) => admission,
            Err((code, message)) => return error_msg(code, message, false),
        };
        let translated = match xcompile::translate_sql(&spec.select) {
            Ok(t) => t,
            Err(e) => return error_msg(ErrCode::SQL_ERROR, e.to_string(), true),
        };
        let chunk_rows = if spec.chunk_rows == 0 {
            node.config.export_chunk_rows
        } else {
            spec.chunk_rows
        };
        let cursor = match TdfCursor::open(
            &node.cdw,
            &translated,
            chunk_rows,
            node.config.export_prefetch_chunks,
        ) {
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
        admission.enter(
            token,
            Job::Export(Arc::new(ExportJobState {
                cursor,
                format: spec.format,
                layout: layout.clone(),
            })),
        );
        node.obs.export.jobs.inc();
        Message::BeginExportOk(BeginExportOk {
            export_token: token,
            layout,
        })
    }

    /// Serve one export chunk: encode the cursor's slice of the result in
    /// the legacy wire format (the PXC's result conversion, §4).
    pub(crate) fn handle_export_req(&self, token: u64, index: u64) -> Message {
        let job = {
            let jobs = self.node.jobs.lock();
            match jobs.get(&token) {
                Some(Job::Export(j)) => Arc::clone(j),
                _ => {
                    return error_msg(
                        ErrCode::PROTOCOL,
                        format!("no export job for token {token}"),
                        true,
                    )
                }
            }
        };
        let chunk = job.cursor.chunk(index);
        let data = match encode_rows(&job.layout, job.format, chunk.rows) {
            Ok(d) => d,
            Err(e) => return error_msg(ErrCode::INTERNAL, e.to_string(), true),
        };
        let export = &self.node.obs.export;
        export.chunks.inc();
        export.rows.add(chunk.rows.len() as u64);
        export.bytes.add(data.len() as u64);
        Message::ExportChunk(ExportChunk {
            index,
            record_count: chunk.rows.len() as u32,
            last: chunk.last,
            data: data.into(),
        })
    }
}

/// The SQL literal an error-table value is written as. Types without a
/// literal form (bytes, timestamps) are written as their display text,
/// which the warehouse coerces to the column's type.
fn value_literal(v: Value) -> Literal {
    match v {
        Value::Null => Literal::Null,
        Value::Int(x) => Literal::Integer(x),
        Value::Float(f) => Literal::Float(f),
        Value::Decimal(d) => Literal::Decimal(d),
        Value::Str(s) => Literal::Str(s),
        Value::Date(d) => Literal::Date(d),
        Value::Bytes(_) | Value::Timestamp(_) => Literal::Str(v.display_text()),
    }
}

/// Shared gauge refresh used by both the snapshot path and the sampler
/// thread.
fn refresh_gauges_into(
    obs: &Obs,
    credits: &CreditManager,
    memory: &MemoryGauge,
    injector: Option<&FaultInjector>,
) {
    obs.credit.in_flight.set(credits.in_flight() as u64);
    obs.memory.in_flight.set(memory.in_flight());
    obs.memory.peak.set(memory.peak());
    if let Some(injector) = injector {
        let c = injector.counts();
        obs.fault.injected_total.set(c.total());
        obs.fault.injected_store_put.set(c.store_put);
        obs.fault.injected_store_get.set(c.store_get);
        obs.fault.injected_cdw_exec.set(c.cdw_exec);
        obs.fault.injected_convert.set(c.convert);
        obs.fault.injected_transport.set(c.transport);
    }
}

/// The node's observability hub, shaped by the config's journal knobs.
fn build_obs(config: &VirtualizerConfig) -> Arc<Obs> {
    Arc::new(Obs::new(
        config.journal_capacity,
        config.journal_jsonl.as_deref(),
    ))
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

    #[test]
    fn node_constructs_with_defaults() {
        let v = Virtualizer::new(VirtualizerConfig::default());
        assert!(v.cdw().execute("CREATE TABLE T (A INTEGER)").is_ok());
        assert_eq!(v.metrics().jobs_completed, 0);
        assert!(v.last_job_report().is_none());
    }
}
