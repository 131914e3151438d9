//! # etlv-cdw
//!
//! A simulated Cloud Data Warehouse (CDW) — the stand-in for Azure
//! Synapse / Redshift / BigQuery in the paper's evaluation.
//!
//! The engine implements the properties the virtualizer depends on:
//!
//! 1. **Set-oriented bulk semantics.** A DML statement either applies to
//!    *all* qualifying rows or to none: the first conversion error or
//!    constraint violation aborts the whole statement with no partial
//!    effects, and the error names its cause and failing value. It names
//!    the failing tuple only when a projection fails on a row keyed by a
//!    single integer column (a rejected-row report's line number); a
//!    failure while coercing into the target or checking a constraint
//!    names none. This is exactly the behaviour that forces the
//!    virtualizer's adaptive (range-cutting) error handler in §7.
//! 2. **Object-store bulk loading.** `COPY INTO t FROM 'store://…'` ingests
//!    staged delimited files (optionally LZSS-compressed) from the
//!    cloud store, as in §6.
//! 3. **Optional native uniqueness.** Real CDWs often do not enforce
//!    UNIQUE constraints; the engine models both modes. With native
//!    enforcement off (the default), the virtualizer must emulate
//!    uniqueness itself.
//! 4. **Tunable per-statement latency**, modelling the network round trip
//!    between the virtualizer node and the warehouse; this is what makes
//!    singleton-insert loading (the Figure 11 baseline) expensive.
//! 5. **One index per table, on its key.** Like the warehouses it stands
//!    in for, the engine offers no user-defined indexes. A declared
//!    UNIQUE / PRIMARY KEY is kept as one ordered index — maintained
//!    whether or not uniqueness is enforced — which the uniqueness probe
//!    and the staging `__SEQ` range seeks read. The planner seeks it by
//!    rule, with no statistics or cost model.
//!
//! SQL comes in as text in the CDW dialect, parsed by [`etlv_sql`].

pub mod catalog;
pub mod engine;
pub mod error;
pub mod eval;
pub mod exec;
pub mod index;
pub mod key;
pub mod plan;
pub mod staged;

pub use catalog::{Catalog, Column, Table};
pub use engine::{Cdw, CdwConfig, ExecObserver, LockObserver, QueryResult, TransientFaultHook};
pub use error::CdwError;
pub use index::{IndexKey, OrderedIndex, SeekBound};
pub use key::RowKey;
pub use plan::PlanStats;
