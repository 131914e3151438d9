//! `etlv-bench`: the repo's one benchmark.
//!
//! Four seeded workloads are driven through one in-process virtualizer
//! node over TCP by the real legacy client; every job is held to the
//! generator's ground truth; six end-to-end metrics come from the
//! untraced run and the per-layer budget from the traced one. See
//! `README.md` for the metric definitions and `workloads.rs` for the
//! sizes.

pub mod cli;
pub mod gen;
pub mod host;
pub mod metrics;
pub mod node;
pub mod repeat;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
