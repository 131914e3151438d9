//! # etlv-legacy-server
//!
//! The reference legacy Enterprise Data Warehouse (EDW) server.
//!
//! This is the system the customer is migrating *away from*: it speaks the
//! legacy wire protocol natively and implements the legacy **per-tuple**
//! load semantics — during the DML application phase each tuple is applied
//! individually; a tuple that fails conversion is recorded in the
//! transformation-error (ET) table, a tuple that violates the target's
//! uniqueness constraint is recorded in the uniqueness-violation (UV)
//! table, and the job continues (paper §2, §7, Figure 5).
//!
//! Its roles in this repository:
//!
//! - the golden reference for error-table semantics: integration tests run
//!   the same job against this server and the virtualizer and compare
//!   outcomes;
//! - the endpoint legacy clients were built against, demonstrating that
//!   the identical client/script runs unmodified against the virtualizer.
//!
//! Internally it reuses the `etlv-cdw` storage/eval machinery (with native
//! uniqueness enforcement on, as legacy systems had), but its session
//! layer applies DML tuple-at-a-time instead of set-oriented.

pub mod apply;
pub mod server;

pub use server::LegacyServer;
