//! # etlv-script
//!
//! The proprietary scripting language legacy ETL jobs are written in —
//! the dot-command dialect of the paper's Example 2.1:
//!
//! ```text
//! .logon host/user,pass;
//! .layout CustLayout;
//! .field CUST_ID varchar(5);
//! .field CUST_NAME varchar(50);
//! .field JOIN_DATE varchar(10);
//! .begin import tables PROD.CUSTOMER
//!     errortables PROD.CUSTOMER_ET PROD.CUSTOMER_UV;
//! .dml label InsApply;
//! insert into PROD.CUSTOMER values (
//!     trim(:CUST_ID), trim(:CUST_NAME),
//!     cast(:JOIN_DATE as DATE format 'YYYY-MM-DD') );
//! .import infile input.txt
//!     format vartext '|' layout CustLayout
//!     apply InsApply;
//! .end load
//! ```
//!
//! [`parse_script`] produces a [`Script`] (flat command list);
//! [`compile`] validates it and builds a [`plan::JobPlan`]
//! the legacy client executes. These scripts run *unchanged* whether the
//! client talks to the reference legacy server or to the virtualizer —
//! that is the paper's entire point.

pub mod parse;
pub mod plan;

pub use parse::{parse_script, Command, ParseError, Script, ScriptFormat};
pub use plan::{compile, ExportJob, ImportJob, JobPlan, Logon, PlanError};
