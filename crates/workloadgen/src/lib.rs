//! # etlv-workloadgen
//!
//! Seeded, fully deterministic workload synthesis and replay for the
//! virtualizer — the harness that turns "fast on a uniform load" claims
//! into "fast under production-shaped traffic" claims.
//!
//! The paper's evaluation drives the system with one
//! job shape at a time. Real cloud-warehouse traffic is nothing like
//! that: arrivals are bursty or diurnal, table and job sizes follow a
//! Zipf skew where a few hot tables absorb most rows, tenants share one
//! node, and a fraction of every feed is dirty. This crate synthesizes
//! such traffic the way Redbench derives benchmark workloads from cloud
//! traces — from a handful of distribution knobs and one seed — and
//! replays it against a live node over the real legacy wire protocol.
//!
//! Pipeline:
//!
//! 1. A [`Scenario`] names the knobs: tenant count, job count, arrival
//!    process (steady / bursty / diurnal), Zipf exponent for table
//!    popularity and job sizing, import/export/SQL mix, seeded error
//!    rates. Scenarios round-trip through a line-oriented text form
//!    ([`Scenario::render`] / [`Scenario::parse`]), so a run is
//!    reproducible byte-for-byte from the file alone.
//! 2. [`synthesize`] expands a scenario into a [`WorkloadTrace`]: a
//!    time-ordered event list where every job carries its arrival
//!    offset, tenant, target table, row count, and — for imports — the
//!    exact planned count of bad-date and duplicate-key rows plus the
//!    seed its payload bytes derive from. Same scenario, same trace,
//!    event for event.
//! 3. [`replay`] executes a trace against a node through any
//!    [`Connect`](etlv_legacy_client::Connect)or (TCP in the tests):
//!    one dispatcher per tenant issues that tenant's jobs at their
//!    scheduled offsets through the real client with `busy_retry`, and
//!    records per-job latency, admission retries, rejections, server
//!    retries, and error-table attribution.
//! 4. [`ReplayReport::slo`] folds the outcomes into an [`SloSummary`] —
//!    p50/p95/p99 job latency, admission-rejection rate, retry and error
//!    totals.
//!
//! Determinism model (DESIGN.md §11): every random draw comes from
//! [`SeededRng`](etlv_protocol::rng::SeededRng) streams derived from the
//! scenario seed — synthesis order, per-job payload bytes, and error
//! placement are all pure functions of it. Replay wall-clock timings are
//! not deterministic (the node is real), but the trace, every payload
//! byte, and every job's *outcome* (rows applied, ET/UV attribution)
//! are, which is what the regression suite pins.

pub mod data;
pub mod dist;
pub mod gen;
pub mod replay;
pub mod scenario;
pub mod slo;

pub use data::{table_name, tenant_user, ImportPayload};
pub use gen::{synthesize, ImportSpec, JobKind, TraceEvent, WorkloadTrace};
pub use replay::{replay, JobStatus, OutcomeCounts, ReplayOptions, ReplayReport};
pub use scenario::{ArrivalKind, Scenario};
pub use slo::SloSummary;
