//! Observability: sharded metrics registry, structured span journal, and
//! the snapshot renderers behind `Virtualizer::introspect`.
//!
//! The paper's §9 experiments (phase breakdowns in Fig. 8, credit and
//! adaptive behaviour in Fig. 10) presume the operator can see *inside* a
//! running virtualizer. This module provides that view without touching
//! the zero-allocation guarantees of the conversion hot path:
//!
//! - **Counters** are sharded across cache-line-padded atomic cells, so
//!   concurrent converter workers never contend on one line; shards are
//!   summed only at snapshot time.
//! - **Histograms** are log-linear (HDR-style): 4 linear sub-buckets per
//!   power of two, giving ≤ 12.5% relative error on p50/p95/p99 with a
//!   fixed 252-slot atomic array and no allocation on record.
//! - **Spans/events** carry stable IDs (`job`/`session`/`chunk_seq`) in a
//!   fixed-shape [`SpanEvent`] — no per-event allocation — collected into
//!   a bounded in-memory ring with an optional JSONL sink.
//!
//! Everything is pre-registered: subsystems hold [`Counter`]/[`Gauge`]/
//! [`Histogram`] handles resolved once at node assembly, so the record
//! path is a single relaxed atomic op.

use std::time::Duration;

mod render;
pub use render::{prom_escape_label, stats_json, stats_prometheus};

mod slo;
pub use slo::{
    HealthReport, OverloadInput, OverloadState, SloEngine, SloPolicy, SloStatus, TenantHealth,
};

mod profile;
pub use profile::{
    folded_flamegraph, render_flame_ascii, thread_cpu_time, CpuTimer, LockSiteObs,
    LockSiteSnapshot, PoolProfile, ProfileReport, StageCpuProfile, TrackedCondvar, TrackedMutex,
    TrackedMutexGuard, PROFILE_TOP_K,
};

mod journal;
mod metrics;
mod sampler;
pub use journal::Journal;
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use sampler::Sampler;

/// Point-in-time view of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Median (upper bound of the bucket holding the quantile).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// Point-in-time value of one series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeriesValue {
    /// Merged shard sum of a counter.
    Counter(u64),
    /// Current level of a gauge.
    Gauge(u64),
    /// Summary of a histogram.
    Histogram(HistogramSnapshot),
}

/// Point-in-time view of one registered series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Family name, e.g. `gateway.chunks_received` or `tenant.rows_applied`.
    pub name: String,
    /// The series' one label as `(key, value)`, e.g. `("tenant", "alice")`.
    pub label: Option<(&'static str, String)>,
    /// The value read.
    pub value: SeriesValue,
}

/// Point-in-time view of the whole registry: every series, sorted by
/// name then label, so one family's label values are contiguous.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Every registered series.
    pub series: Vec<SeriesSnapshot>,
}

impl RegistrySnapshot {
    /// The value of series `name` under label value `label` (`None` for
    /// an unlabelled series).
    pub fn get(&self, name: &str, label: Option<&str>) -> Option<&SeriesValue> {
        self.series
            .iter()
            .find(|s| s.name == name && s.label.as_ref().map(|(_, v)| v.as_str()) == label)
            .map(|s| &s.value)
    }
}

/// The catch-all tenant name used once the registry's tenant cardinality
/// bound is reached — further usernames share this block instead of
/// growing the label space.
pub const TENANT_OVERFLOW: &str = "~overflow";

/// Pre-registered per-tenant handles: one block per interned Logon
/// username, covering the whole job lifecycle (admission → queue →
/// convert → upload → apply) plus error/retry attribution and resources
/// currently held. A typed view: each handle is the registered series
/// `tenant.<field>{tenant="<name>"}`.
pub struct TenantObs {
    /// Tenant (logon username) this block belongs to.
    pub name: String,
    /// Import jobs begun.
    pub jobs_started: Counter,
    /// Import jobs completed successfully.
    pub jobs_completed: Counter,
    /// Import jobs failed.
    pub jobs_failed: Counter,
    /// Import jobs aborted by session teardown.
    pub jobs_aborted: Counter,
    /// Logons or job admissions bounced with `SERVER_BUSY`.
    pub admission_rejections: Counter,
    /// Sessions closed by the idle-timeout reaper.
    pub idle_timeouts: Counter,
    /// Data chunks accepted.
    pub chunks: Counter,
    /// Raw bytes accepted in data chunks.
    pub chunk_bytes: Counter,
    /// Rows applied to target tables.
    pub rows_applied: Counter,
    /// Rows landed in ET (acquisition-error) tables.
    pub errors_et: Counter,
    /// Rows landed in UV (uniqueness-violation) tables.
    pub errors_uv: Counter,
    /// Upload + CDW retries spent on this tenant's jobs.
    pub retries: Counter,
    /// Jobs whose end-to-end latency exceeded the SLO latency target.
    pub slow_jobs: Counter,
    /// Import jobs currently active.
    pub active_jobs: Gauge,
    /// Back-pressure credits currently held by in-flight chunks.
    pub credit_held: Gauge,
    /// Staging memory bytes currently reserved by in-flight chunks.
    pub memory_held: Gauge,
    /// End-to-end job latency (BeginLoad → report), µs.
    pub job_us: Histogram,
    /// Chunk queue wait before a converter picks it up, µs.
    pub queue_wait_us: Histogram,
    /// Per-chunk conversion time, µs.
    pub convert_us: Histogram,
    /// Per-part upload time, µs.
    pub upload_us: Histogram,
    /// Whole-application (apply) time per job, µs.
    pub apply_us: Histogram,
}

/// Causal identity of a journal event: which trace it belongs to, which
/// span it *is*, and which span caused it. All-zero means "untraced" —
/// events emitted through the legacy [`Journal::emit`] path carry zero
/// ids.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanIds {
    /// Trace identifier shared by every span of one job (0 = untraced).
    pub trace: u64,
    /// This event's own span id (unique within the node).
    pub span: u64,
    /// Span id of the causing span (0 = root of the trace).
    pub parent: u64,
}

impl SpanIds {
    /// A child identity under this span: same trace, fresh span id,
    /// parented here.
    pub fn child(&self, span: u64) -> SpanIds {
        SpanIds {
            trace: self.trace,
            span,
            parent: self.span,
        }
    }
}

/// One structured journal event. Fixed shape — identity fields plus two
/// generic numeric payloads — so emitting never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Monotonic event number (never wraps in practice).
    pub seq: u64,
    /// Microseconds since the journal was created.
    pub at_micros: u64,
    /// Event kind, e.g. `"chunk.convert"` or `"apply.split"`.
    pub kind: &'static str,
    /// Causal identity (zero ids = untraced event).
    pub ids: SpanIds,
    /// Load/export token of the owning job (0 = node-level event).
    pub job: u64,
    /// Session id the event originated from (0 = internal worker).
    pub session: u64,
    /// Chunk sequence / part number / range start — kind-specific.
    pub chunk: u64,
    /// Generic magnitude: rows, bytes, range end — kind-specific.
    pub value: u64,
    /// Duration payload for timed events, microseconds.
    pub dur_micros: u64,
}

impl SpanEvent {
    /// One-line JSON rendering (the JSONL sink format).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\": {}, \"at_micros\": {}, \"kind\": \"{}\", \
             \"trace\": {}, \"span\": {}, \"parent\": {}, \"job\": {}, \
             \"session\": {}, \"chunk\": {}, \"value\": {}, \"dur_micros\": {}}}",
            self.seq,
            self.at_micros,
            self.kind,
            self.ids.trace,
            self.ids.span,
            self.ids.parent,
            self.job,
            self.session,
            self.chunk,
            self.value,
            self.dur_micros
        )
    }
}

/// Gateway-side handles: session and chunk intake.
#[derive(Clone)]
pub struct GatewayObs {
    /// Sessions that completed logon.
    pub sessions_opened: Counter,
    /// Sessions closed (logoff, disconnect, or idle timeout).
    pub sessions_closed: Counter,
    /// Sessions currently registered (eagerly maintained gauge).
    pub active_sessions: Gauge,
    /// Jobs currently in the node's job table (eagerly maintained gauge).
    pub active_jobs: Gauge,
    /// Data chunks accepted.
    pub chunks_received: Counter,
    /// Raw bytes accepted in data chunks.
    pub chunk_bytes: Counter,
    /// Load jobs begun.
    pub jobs_started: Counter,
    /// Load jobs completed successfully.
    pub jobs_completed: Counter,
    /// Records received by completed load jobs.
    pub rows_ingested: Counter,
    /// Load jobs failed.
    pub jobs_failed: Counter,
    /// Jobs aborted by session teardown (disconnect, idle timeout, or
    /// server shutdown) rather than a client-visible failure.
    pub jobs_aborted: Counter,
    /// Logons or job admissions rejected with `SERVER_BUSY`.
    pub admission_rejections: Counter,
    /// Chunk intake handling time (credit acquire + enqueue), µs.
    pub chunk_handle_us: Histogram,
}

/// TCP server lifecycle handles (`listen_tcp` accept loop).
#[derive(Clone)]
pub struct ServerObs {
    /// Connections fully established (accepted *and* set up — a failed
    /// setup is a `conn_setup_errors`, not a connection).
    pub connections: Counter,
    /// Accept-loop errors (previously `.flatten()`ed away silently).
    pub accept_errors: Counter,
    /// Accepted sockets that failed post-accept setup (nonblocking
    /// mode, nodelay, reactor registration) before serving a byte.
    pub conn_setup_errors: Counter,
}

/// Reactor front-end handles: the event-loop threads multiplexing all
/// TCP sessions.
#[derive(Clone)]
pub struct ReactorObs {
    /// Connection fds currently registered across all event loops.
    pub conns: Gauge,
    /// Event-loop threads the reactor is sized to.
    pub loops: Gauge,
    /// Ready events delivered per poll wakeup (batch size).
    pub ready_batch: Histogram,
    /// One loop iteration's processing latency (events + timers), µs.
    pub loop_iter_us: Histogram,
    /// Cross-thread wakeups delivered to loop threads.
    pub wakeups: Counter,
    /// Frames handed to the dispatch pool (blocking-capable work).
    pub dispatches: Counter,
    /// Frames answered inline on the loop (logon/keepalive/logoff).
    pub inline_replies: Counter,
    /// Sessions with a dispatched request in flight right now.
    pub conns_dispatching: Gauge,
    /// Sessions with undrained reply bytes right now.
    pub conns_writing: Gauge,
    /// Sessions whose idle deadline passed with nothing in flight: each
    /// got the `IDLE_TIMEOUT` farewell and was closed.
    pub idle_closes: Counter,
    /// Accept-error backoff rounds (EMFILE and friends back off
    /// exponentially instead of spinning).
    pub accept_backoffs: Counter,
}

/// Shared job-worker runtime handles.
#[derive(Clone)]
pub struct RuntimeObs {
    /// Worker threads the runtime is sized to (`converter_threads`: each
    /// worker converts a chunk, then appends it to its job's staging
    /// file).
    pub workers: Gauge,
    /// Worker threads actually started over the runtime's lifetime.
    pub threads_started: Counter,
    /// Per-job chunk-queue depth observed at each enqueue.
    pub queue_depth: Histogram,
}

/// Acquisition-pipeline handles: the runtime workers' convert and
/// append/rotate steps, and the uploader.
#[derive(Clone)]
pub struct PipelineObs {
    /// Chunks converted.
    pub convert_chunks: Counter,
    /// Rows converted.
    pub convert_rows: Counter,
    /// Staged bytes produced by conversion.
    pub convert_bytes: Counter,
    /// Chunks that failed conversion.
    pub convert_errors: Counter,
    /// Staged files rotated (finalized).
    pub files_rotated: Counter,
    /// Staged file parts uploaded.
    pub upload_parts: Counter,
    /// Bytes handed to the uploader.
    pub upload_bytes: Counter,
    /// Upload attempts retried after transient store failures.
    pub upload_retries: Counter,
}

/// Object-store handles, fed by the `ObservedStore` decorator.
#[derive(Clone)]
pub struct StoreObs {
    /// Put operations (including failed ones).
    pub put_ops: Counter,
    /// Bytes written by successful puts.
    pub put_bytes: Counter,
    /// Failed puts.
    pub put_errors: Counter,
    /// Get operations (including failed ones).
    pub get_ops: Counter,
    /// Bytes returned by successful gets.
    pub get_bytes: Counter,
    /// Failed gets.
    pub get_errors: Counter,
    /// Put wall time, µs.
    pub put_us: Histogram,
    /// Get wall time, µs.
    pub get_us: Histogram,
}

/// CDW execution handles, fed by the engine's exec observer.
#[derive(Clone)]
pub struct CdwObs {
    /// SQL statements executed.
    pub statements: Counter,
    /// Statements that failed (including injected transients).
    pub errors: Counter,
    /// Per-statement wall time, µs.
    pub exec_us: Histogram,
    /// Access paths planned as index seeks (point/range seeks and
    /// index-lookup joins), fed by the engine's plan observer.
    pub plan_index_seek: Counter,
    /// Access paths that fell back to full table scans.
    pub plan_full_scan: Counter,
    /// Index maintenance operations (entries inserted or re-keyed).
    pub index_maintain: Counter,
}

/// Credit-pool handles (the back-pressure mechanism).
#[derive(Clone)]
pub struct CreditObs {
    /// Credits acquired.
    pub acquires: Counter,
    /// Acquisitions that had to block.
    pub stalls: Counter,
    /// Per-stall blocked time, µs.
    pub stall_us: Histogram,
    /// Credits currently in flight (refreshed at snapshot).
    pub in_flight: Gauge,
}

/// Memory-gauge handles (refreshed at snapshot).
#[derive(Clone)]
pub struct MemoryObs {
    /// In-flight staging memory, bytes.
    pub in_flight: Gauge,
    /// Peak in-flight memory observed, bytes.
    pub peak: Gauge,
}

/// Adaptive-application handles (COPY + DML + range cuts).
#[derive(Clone)]
pub struct AdaptiveObs {
    /// Cuts of failing ranges while isolating erroring rows: at a row an
    /// abort named, at a row the uniqueness probe listed, or a halving.
    pub splits: Counter,
    /// CDW statements issued by application.
    pub statements: Counter,
    /// Application statements retried after transient failures.
    pub transient_retries: Counter,
}

/// Export-path handles.
#[derive(Clone)]
pub struct ExportObs {
    /// Export jobs begun.
    pub jobs: Counter,
    /// Export chunks served.
    pub chunks: Counter,
    /// Rows exported.
    pub rows: Counter,
    /// Encoded bytes exported.
    pub bytes: Counter,
}

/// One pipeline stage's CPU/wall accounting. `record` records the
/// wall time unconditionally; CPU time and the sample count accrue only
/// when the thread CPU clock produced a pair, so `cpu_us / samples` stays
/// meaningful on platforms without the clock.
#[derive(Clone)]
pub struct StageProf {
    /// Wall time per execution, µs — the stage's latency histogram, whose
    /// `sum` is the total the Profile report shows.
    pub wall_us: Histogram,
    /// Thread CPU time across sampled executions, µs.
    pub cpu_us: Counter,
    /// Executions where a CPU sample pair succeeded.
    pub samples: Counter,
}

impl StageProf {
    /// Record one execution: wall always, CPU when sampled.
    #[inline]
    pub fn record(&self, wall: Duration, cpu: Option<Duration>) {
        self.wall_us.record_duration(wall);
        if let Some(cpu) = cpu {
            self.cpu_us.add(cpu.as_micros() as u64);
            self.samples.inc();
        }
    }
}

/// Per-stage CPU/wall profiles: the four attributable stages the
/// Profile report breaks down.
#[derive(Clone)]
pub struct ProfileObs {
    /// Per-chunk conversion (converter workers): `pipeline.convert_us`.
    pub convert: StageProf,
    /// Per-part upload including retries (runtime workers at rotation,
    /// the gateway finish path for the last part): `pipeline.upload_us`.
    pub upload: StageProf,
    /// COPY INTO (gateway finish path): `adaptive.copy_us`.
    pub copy: StageProf,
    /// Whole adaptive application per job (gateway finish path):
    /// `adaptive.apply_us`.
    pub apply: StageProf,
}

/// Worker-pool utilization handles: saturation timelines for the
/// shared runtime.
#[derive(Clone)]
pub struct PoolObs {
    /// Workers executing a chunk right now.
    pub busy_workers: Gauge,
    /// Worker wakeups that scanned every job slot and found no work.
    pub idle_wakeups: Counter,
    /// Round-robin job slots scanned past while finding work.
    pub rr_skips: Counter,
}

/// Fault-injector gauges, copied from the injector at snapshot time.
#[derive(Clone)]
pub struct FaultObs {
    /// All faults fired.
    pub injected_total: Gauge,
    /// Store-put faults fired.
    pub injected_store_put: Gauge,
    /// Store-get faults fired.
    pub injected_store_get: Gauge,
    /// CDW transient faults fired.
    pub injected_cdw_exec: Gauge,
    /// Converter faults fired.
    pub injected_convert: Gauge,
    /// Transport faults fired.
    pub injected_transport: Gauge,
}

/// The node's observability hub: one registry, one journal, and
/// pre-registered handles for every instrumented subsystem.
pub struct Obs {
    /// The metrics registry all handles below are registered in.
    pub registry: MetricsRegistry,
    /// The bounded span/event journal.
    pub journal: Journal,
    /// Gateway handles.
    pub gateway: GatewayObs,
    /// TCP server lifecycle handles.
    pub server: ServerObs,
    /// Reactor front-end handles.
    pub reactor: ReactorObs,
    /// Shared worker-runtime handles.
    pub runtime: RuntimeObs,
    /// Pipeline handles.
    pub pipeline: PipelineObs,
    /// Object-store handles.
    pub store: StoreObs,
    /// CDW handles.
    pub cdw: CdwObs,
    /// Credit-pool handles.
    pub credit: CreditObs,
    /// Memory gauges.
    pub memory: MemoryObs,
    /// Adaptive-application handles.
    pub adaptive: AdaptiveObs,
    /// Export handles.
    pub export: ExportObs,
    /// Fault-injector gauges.
    pub fault: FaultObs,
    /// Per-stage CPU/wall profiles.
    pub profile: ProfileObs,
    /// Worker-pool utilization handles.
    pub pool: PoolObs,
}

impl Obs {
    /// Build a hub: a fresh registry, a journal retaining up to
    /// `journal_capacity` events, and optionally a JSONL sink every event
    /// is appended to.
    pub fn new(journal_capacity: usize, jsonl: Option<&std::path::Path>) -> Obs {
        let registry = MetricsRegistry::new();
        let r = &registry;
        let stage = |name: &str, wall_us: &str| StageProf {
            wall_us: r.histogram(wall_us),
            cpu_us: r.counter(&format!("profile.{name}.cpu_us")),
            samples: r.counter(&format!("profile.{name}.samples")),
        };
        Obs {
            gateway: GatewayObs {
                sessions_opened: r.counter("gateway.sessions_opened"),
                sessions_closed: r.counter("gateway.sessions_closed"),
                active_sessions: r.gauge("gateway.active_sessions"),
                active_jobs: r.gauge("gateway.active_jobs"),
                chunks_received: r.counter("gateway.chunks_received"),
                chunk_bytes: r.counter("gateway.chunk_bytes"),
                jobs_started: r.counter("gateway.jobs_started"),
                jobs_completed: r.counter("gateway.jobs_completed"),
                rows_ingested: r.counter("gateway.rows_ingested"),
                jobs_failed: r.counter("gateway.jobs_failed"),
                jobs_aborted: r.counter("gateway.jobs_aborted"),
                admission_rejections: r.counter("gateway.admission_rejections"),
                chunk_handle_us: r.histogram("gateway.chunk_handle_us"),
            },
            server: ServerObs {
                connections: r.counter("server.connections"),
                accept_errors: r.counter("server.accept_errors"),
                conn_setup_errors: r.counter("server.conn_setup_errors"),
            },
            reactor: ReactorObs {
                conns: r.gauge("reactor.conns"),
                loops: r.gauge("reactor.loops"),
                ready_batch: r.histogram("reactor.ready_batch"),
                loop_iter_us: r.histogram("reactor.loop_iter_us"),
                wakeups: r.counter("reactor.wakeups"),
                dispatches: r.counter("reactor.dispatches"),
                inline_replies: r.counter("reactor.inline_replies"),
                conns_dispatching: r.gauge("reactor.conns_dispatching"),
                conns_writing: r.gauge("reactor.conns_writing"),
                idle_closes: r.counter("reactor.idle_closes"),
                accept_backoffs: r.counter("reactor.accept_backoffs"),
            },
            runtime: RuntimeObs {
                workers: r.gauge("runtime.workers"),
                threads_started: r.counter("runtime.threads_started"),
                queue_depth: r.histogram("runtime.queue_depth"),
            },
            pipeline: PipelineObs {
                convert_chunks: r.counter("pipeline.convert_chunks"),
                convert_rows: r.counter("pipeline.convert_rows"),
                convert_bytes: r.counter("pipeline.convert_bytes"),
                convert_errors: r.counter("pipeline.convert_errors"),
                files_rotated: r.counter("pipeline.files_rotated"),
                upload_parts: r.counter("pipeline.upload_parts"),
                upload_bytes: r.counter("pipeline.upload_bytes"),
                upload_retries: r.counter("pipeline.upload_retries"),
            },
            store: StoreObs {
                put_ops: r.counter("cloudstore.put_ops"),
                put_bytes: r.counter("cloudstore.put_bytes"),
                put_errors: r.counter("cloudstore.put_errors"),
                get_ops: r.counter("cloudstore.get_ops"),
                get_bytes: r.counter("cloudstore.get_bytes"),
                get_errors: r.counter("cloudstore.get_errors"),
                put_us: r.histogram("cloudstore.put_us"),
                get_us: r.histogram("cloudstore.get_us"),
            },
            cdw: CdwObs {
                statements: r.counter("cdw.statements"),
                errors: r.counter("cdw.errors"),
                exec_us: r.histogram("cdw.exec_us"),
                plan_index_seek: r.counter("cdw.plan.index_seek"),
                plan_full_scan: r.counter("cdw.plan.full_scan"),
                index_maintain: r.counter("cdw.index.maintain"),
            },
            credit: CreditObs {
                acquires: r.counter("credit.acquires"),
                stalls: r.counter("credit.stalls"),
                stall_us: r.histogram("credit.stall_us"),
                in_flight: r.gauge("credit.in_flight"),
            },
            memory: MemoryObs {
                in_flight: r.gauge("memory.in_flight"),
                peak: r.gauge("memory.peak"),
            },
            adaptive: AdaptiveObs {
                splits: r.counter("adaptive.splits"),
                statements: r.counter("adaptive.statements"),
                transient_retries: r.counter("adaptive.transient_retries"),
            },
            export: ExportObs {
                jobs: r.counter("export.jobs"),
                chunks: r.counter("export.chunks"),
                rows: r.counter("export.rows"),
                bytes: r.counter("export.bytes"),
            },
            fault: FaultObs {
                injected_total: r.gauge("fault.injected_total"),
                injected_store_put: r.gauge("fault.injected_store_put"),
                injected_store_get: r.gauge("fault.injected_store_get"),
                injected_cdw_exec: r.gauge("fault.injected_cdw_exec"),
                injected_convert: r.gauge("fault.injected_convert"),
                injected_transport: r.gauge("fault.injected_transport"),
            },
            profile: ProfileObs {
                convert: stage("convert", "pipeline.convert_us"),
                upload: stage("upload", "pipeline.upload_us"),
                copy: stage("copy", "adaptive.copy_us"),
                apply: stage("apply", "adaptive.apply_us"),
            },
            pool: PoolObs {
                busy_workers: r.gauge("pool.busy_workers"),
                idle_wakeups: r.counter("pool.idle_wakeups"),
                rr_skips: r.counter("pool.rr_skips"),
            },
            journal: Journal::new(journal_capacity, jsonl),
            registry,
        }
    }

    /// Snapshot every registered metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// Intern (or fetch) the per-tenant handle block for `name`.
    pub fn tenant(&self, name: &str) -> std::sync::Arc<TenantObs> {
        self.registry.tenant(name)
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new(4096, None)
    }
}

/// Per-job observation context threaded into the application path
/// ([`crate::apply::apply`]), so adaptive-retry decisions land in the
/// journal with the owning job's token.
pub struct JobObs<'a> {
    /// The node's hub.
    pub obs: &'a Obs,
    /// The owning job's load token.
    pub job: u64,
    /// Causal identity of the application span these events parent to.
    pub ids: SpanIds,
}

impl JobObs<'_> {
    fn emit(&self, kind: &'static str, lo: u64, hi: u64) {
        let ids = self.ids.child(self.obs.journal.next_span_id());
        self.obs
            .journal
            .emit_span(kind, ids, self.job, 0, lo, hi, Duration::ZERO);
    }

    /// Record one cut of rows `[lo, hi)`: at a row an abort named, at a
    /// row the uniqueness probe listed, or a halving.
    pub fn split(&self, lo: u64, hi: u64) {
        self.obs.adaptive.splits.inc();
        self.emit("apply.split", lo, hi);
    }

    /// Record a range application attempt that failed with a row error,
    /// or a probe that listed rows (the trigger for a cut).
    pub fn range_error(&self, lo: u64, hi: u64) {
        self.emit("apply.range_error", lo, hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_event_json_shape() {
        let e = SpanEvent {
            seq: 3,
            at_micros: 1000,
            kind: "chunk.convert",
            ids: SpanIds {
                trace: 11,
                span: 5,
                parent: 1,
            },
            job: 7,
            session: 2,
            chunk: 41,
            value: 500,
            dur_micros: 120,
        };
        let json = e.to_json();
        assert!(json.contains("\"kind\": \"chunk.convert\""), "{json}");
        assert!(json.contains("\"job\": 7"), "{json}");
        assert!(json.contains("\"trace\": 11"), "{json}");
        assert!(json.contains("\"span\": 5"), "{json}");
        assert!(json.contains("\"parent\": 1"), "{json}");
        assert!(json.contains("\"dur_micros\": 120"), "{json}");
    }

    #[test]
    fn hub_registers_all_subsystems() {
        let obs = Obs::default();
        obs.gateway.chunks_received.add(2);
        obs.pipeline.convert_rows.add(10);
        obs.store.put_ops.inc();
        obs.cdw.statements.inc();
        obs.credit.acquires.inc();
        let snap = obs.snapshot();
        let find = |name: &str| snap.get(name, None).cloned();
        assert_eq!(
            find("gateway.chunks_received"),
            Some(SeriesValue::Counter(2))
        );
        assert_eq!(
            find("pipeline.convert_rows"),
            Some(SeriesValue::Counter(10))
        );
        assert_eq!(find("cloudstore.put_ops"), Some(SeriesValue::Counter(1)));
        assert_eq!(find("cdw.statements"), Some(SeriesValue::Counter(1)));
        assert_eq!(find("credit.acquires"), Some(SeriesValue::Counter(1)));
        assert!(matches!(
            find("cdw.exec_us"),
            Some(SeriesValue::Histogram(_))
        ));
    }
}
