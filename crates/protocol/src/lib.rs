//! # etlv-protocol
//!
//! The legacy Enterprise Data Warehouse (EDW) wire protocol and data model.
//!
//! This crate implements the client/server protocol that legacy ETL tools
//! speak: message framing with CRC validation, typed control and data
//! messages, the legacy *binary* record encoding (null-indicator bits,
//! little-endian scalars, length-prefixed strings, packed dates), and the
//! *vartext* delimited text record format used by `format vartext '|'`
//! import jobs.
//!
//! Everything above this crate — the legacy client, the reference legacy
//! server, and the virtualization gateway — exchanges bytes produced and
//! consumed here. The virtualizer's core trick (per the EDBT 2023 paper) is
//! that it speaks this protocol *exactly*, so unmodified legacy clients can
//! be repointed at it.
//!
//! ## Layout
//!
//! - [`data`]: the legacy type system and value model ([`LegacyType`],
//!   [`Value`], [`Date`], [`Decimal`]).
//! - [`layout`]: record layouts (`.layout` / `.field` declarations).
//! - [`frame`]: low-level message framing (magic, kind, session, seq, CRC).
//! - [`message`]: typed protocol messages and their payload codecs.
//! - [`record`]: the legacy binary record codec.
//! - [`vartext`]: the delimited-text record codec.
//! - [`errcode`]: the legacy error-code table (2666, 2794, 3103, 9057, ...).
//! - [`trace`]: wire-propagated causal trace context (optional payload
//!   trailer; legacy peers interoperate unchanged).
//! - [`transport`]: the TCP frame transport and its fault-injecting
//!   wrapper.
//! - [`nio`]: nonblocking frame I/O (readiness read pump, resumable
//!   write-buffer draining) for reactor-served connections.
//! - [`backoff`]: deterministic capped-jitter retry schedule, shared by
//!   the server's cloud retries and the client's `SERVER_BUSY` backoff.
//! - [`rng`]: the workspace's one seeded SplitMix64 — the stateless mixer
//!   behind backoff jitter, fault decisions, and trace-id minting, and the
//!   stateful stream workload synthesis draws from.

pub mod backoff;
pub mod crc;
pub mod data;
pub mod errcode;
pub mod frame;
pub mod layout;
pub mod message;
pub mod nio;
pub mod record;
pub mod rng;
pub mod trace;
pub mod transport;
pub mod vartext;

pub use backoff::{Backoff, RetryPolicy};
pub use data::{Date, Decimal, LegacyType, Value};
pub use errcode::ErrCode;
pub use frame::{Frame, FrameDecoder, FrameError, MsgKind};
pub use layout::{FieldDef, Layout};
pub use message::Message;
pub use nio::{pump_frames, FrameWriter, NioError, ReadStatus};
pub use record::{RecordDecoder, RecordEncoder};
pub use trace::TraceContext;
pub use transport::Transport;
