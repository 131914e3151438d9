//! # etlv
//!
//! Facade crate for the *etlv* workspace — a from-scratch Rust
//! reproduction of "Adaptive Real-time Virtualization of Legacy ETL
//! Pipelines in Cloud Data Warehouses" (EDBT 2023).
//!
//! The workspace crates are re-exported under short module names:
//!
//! - [`core`] — the virtualizer (the paper's contribution).
//! - [`protocol`] — the legacy wire protocol and data model.
//! - [`script`] — the legacy ETL scripting language.
//! - [`sql`] — the two-dialect SQL front end.
//! - [`cdw`] — the simulated cloud data warehouse.
//! - [`cloudstore`] — the simulated object store and bulk loaders.
//! - [`legacy_client`] / [`legacy_server`] — the legacy tooling and the
//!   reference legacy EDW.
//!
//! See the repository `README.md` for a tour and `examples/` for runnable
//! end-to-end scenarios.

pub use etlv_cdw as cdw;
pub use etlv_cloudstore as cloudstore;
pub use etlv_core as core;
pub use etlv_legacy_client as legacy_client;
pub use etlv_legacy_server as legacy_server;
pub use etlv_protocol as protocol;
pub use etlv_script as script;
pub use etlv_sql as sql;

/// The most common entry points, re-exported flat.
pub mod prelude {
    pub use etlv_core::{ApplyStrategy, Virtualizer, VirtualizerConfig};
    pub use etlv_legacy_client::{
        ClientOptions, Connect, FnConnector, LegacyEtlClient, Session, TcpConnector,
    };
    pub use etlv_legacy_server::LegacyServer;
    pub use etlv_protocol::transport::Transport;
    pub use etlv_script::{compile, parse_script, JobPlan};
}
