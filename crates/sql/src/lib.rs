//! # etlv-sql
//!
//! A self-contained SQL front end shared by the legacy reference server,
//! the simulated cloud data warehouse (CDW), and the virtualizer's
//! cross-compiler.
//!
//! Two dialects are modelled:
//!
//! - **Legacy**: the dialect legacy ETL scripts embed — `SEL` as a
//!   `SELECT` synonym, `CAST(x AS DATE FORMAT 'YYYY-MM-DD')`, `:FIELD`
//!   placeholders bound to the job layout, `BYTEINT`,
//!   `VARCHAR(n) CHARACTER SET UNICODE`, `LOCKING ... FOR ACCESS`
//!   modifiers, and so on.
//! - **Cdw**: the cloud warehouse dialect — `TO_DATE(x, 'fmt')` instead of
//!   FORMAT casts, `NVARCHAR` instead of Unicode charsets, `COPY INTO`
//!   bulk loading, no placeholders.
//!
//! Both dialects share one [`ast`]; dialect differences live in the
//! [`parser`] (what is accepted) and the [`render`] module (how the tree
//! prints). The virtualizer's cross-compiler rewrites a Legacy tree into a
//! Cdw tree and prints it with the Cdw renderer.

pub mod ast;
pub mod dialect;
pub mod lexer;
pub mod parser;
pub mod render;
pub mod transform;
pub mod types;

pub use ast::{Expr, Literal, ObjectName, SelectStmt, Stmt};
pub use dialect::Dialect;
pub use lexer::{Lexer, Token};
pub use parser::{parse_statement, parse_statements, ParseError, Parser};
pub use types::SqlType;
