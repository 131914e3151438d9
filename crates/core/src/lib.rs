//! # etlv-core — the virtualizer
//!
//! Real-time virtualization of legacy ETL pipelines onto a cloud data
//! warehouse (CDW): the from-scratch reproduction of the EDBT 2023 paper's
//! Hyper-Q ETL extension.
//!
//! The virtualizer listens on the **legacy wire protocol**. Unmodified
//! legacy clients and job scripts connect to it as if it were the legacy
//! EDW; behind the protocol boundary every request is cross-compiled and
//! executed on the CDW:
//!
//! ```text
//!  legacy client ──frames──▶ gateway (Alpha) ─▶ Coalescer ─▶ PXC
//!                                │   data chunks: credit + immediate ack
//!                                ▼
//!      runtime workers: DataConverter (legacy binary/vartext → staged
//!      text), then FileWriter (credit back, append, rotate at threshold)
//!                                ▼
//!      Bulk uploader (optional compression) → object store → COPY INTO
//!      staging table
//!                                ▼
//!      Application phase: cross-compiled DML (adaptive error handling,
//!      uniqueness emulation) → target table → LoadReport
//! ```
//!
//! Module map (paper section in parentheses):
//!
//! - [`gateway`]: node state + request handlers
//!   (Alpha/Coalescer/PXC, §3).
//! - [`session`]: per-connection protocol state machine, session
//!   registry, and disconnect-safe teardown (DESIGN §9).
//! - [`server`]: TCP bind and [`server::ServerHandle`] lifecycle —
//!   `shutdown()` and graceful `drain()` (DESIGN §9).
//! - [`reactor`]: the event-driven front end — a fixed pool of
//!   epoll loops multiplexing every TCP session, plus the dispatch
//!   pool for blocking-capable work (DESIGN §9).
//! - [`xcompile`]: SQL cross-compilation, placeholder → staging-column
//!   mapping, staging DDL, type mapping (§3, §6).
//! - [`convert`]: DataConverter — binary/vartext → CDW staged text (§4).
//! - [`pipeline`]: the acquisition pipeline — one kind of runtime worker
//!   that converts a chunk, then appends it to its job's staging file (§5).
//! - [`credit`]: the CreditManager back-pressure mechanism (§5, Fig. 4).
//! - [`memory`]: in-flight memory accounting — the guard that turns the
//!   paper's one-million-credit OOM crash into a reportable error (§9).
//! - [`apply`]: DML application strategies — adaptive, and the
//!   singleton baseline from Figure 11 (§7).
//! - [`adaptive`]: recursive chunk-splitting error handler (§7, Fig. 6).
//! - [`emulate`]: uniqueness emulation on CDWs without native UNIQUE (§7).
//! - [`fault`]: seeded deterministic fault injection + retry/backoff
//!   policy hardening the acquisition pipeline (§9, DESIGN §7).
//! - [`cursor`]: TDFCursor, serving slices of the CDW's query result by
//!   index to parallel export sessions (§3, §4).
//! - [`obs`]: observability — sharded metrics registry, span journal, SLO
//!   engine, and the stats snapshot renderers (§9, DESIGN §9).
//! - [`trace`]: causal job tracing — assembles journal events into a
//!   per-job span tree with critical-path attribution (DESIGN §9).
//! - [`report`]: phase-timed job reports and node metrics (§9).
//! - [`workload`]: deterministic workload generators for tests, examples,
//!   and the figure benches.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod adaptive;
pub mod apply;
pub mod config;
pub mod convert;
pub mod credit;
pub mod cursor;
pub mod emulate;
pub mod fault;
pub mod gateway;
pub mod memory;
pub mod obs;
pub mod pipeline;
pub mod reactor;
pub mod report;
pub mod server;
pub mod session;
pub mod trace;
pub mod workload;
pub mod xcompile;

pub use apply::ApplyStrategy;
pub use config::VirtualizerConfig;
pub use credit::{Credit, CreditManager};
pub use fault::{
    Backoff, FaultCounts, FaultInjector, FaultPlan, FaultSpec, InjectionPoint, RetryPolicy,
    StorePutFailure, TransportFailure,
};
pub use gateway::Virtualizer;
pub use memory::{MemoryGauge, OutOfMemory};
pub use obs::{
    HealthReport, Obs, OverloadState, RegistrySnapshot, SloPolicy, SloStatus, SpanEvent, SpanIds,
    TenantHealth, TenantObs,
};
pub use pipeline::{ChunkSink, Pipeline, PipelineReport, RawChunk, WorkerRuntime};
pub use report::{JobReport, NodeMetrics};
pub use server::ServerHandle;
pub use trace::{JobTrace, SpanNode, Stage};
