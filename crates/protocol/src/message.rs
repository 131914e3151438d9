//! Typed protocol messages and their payload codecs.
//!
//! A [`Message`] is the decoded form of a [`Frame`] payload. Control
//! sessions exchange logon/SQL/job-control messages; data sessions exchange
//! `DataChunk`/`Ack` (import) or `ExportChunkReq`/`ExportChunk` (export).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::data::{Date, Decimal, LegacyType, Timestamp, Value};
use crate::frame::{Frame, FrameError, MsgKind};
use crate::layout::{read_lstring, read_string, write_lstring, write_string, Layout};
use crate::trace::TraceContext;

/// The role a session plays within a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionRole {
    /// Control session: SQL, job begin/end, reports.
    Control,
    /// Data session: bulk record transfer, attached to a job by token.
    Data,
}

/// How records are encoded in data chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordFormat {
    /// Legacy binary records (see [`crate::record`]).
    Binary,
    /// Delimited text records (see [`crate::vartext`]).
    Vartext {
        /// Field delimiter byte.
        delimiter: u8,
        /// Quote byte for empty strings.
        quote: u8,
    },
}

impl RecordFormat {
    fn encode(self, buf: &mut impl BufMut) {
        match self {
            RecordFormat::Binary => buf.put_u8(0),
            RecordFormat::Vartext { delimiter, quote } => {
                buf.put_u8(1);
                buf.put_u8(delimiter);
                buf.put_u8(quote);
            }
        }
    }

    fn decode(buf: &mut impl Buf) -> Result<RecordFormat, FrameError> {
        if buf.remaining() < 1 {
            return Err(FrameError::Truncated);
        }
        match buf.get_u8() {
            0 => Ok(RecordFormat::Binary),
            1 => {
                if buf.remaining() < 2 {
                    return Err(FrameError::Truncated);
                }
                Ok(RecordFormat::Vartext {
                    delimiter: buf.get_u8(),
                    quote: buf.get_u8(),
                })
            }
            _ => Err(FrameError::Malformed("unknown record format")),
        }
    }
}

/// Client logon request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Logon {
    /// Account name.
    pub username: String,
    /// Password (the reference systems only check non-emptiness).
    pub password: String,
    /// Session role.
    pub role: SessionRole,
    /// For data sessions: the job token issued by `BeginLoadOk` /
    /// `BeginExportOk`.
    pub job_token: u64,
    /// Optional causal trace context (encoded as a payload trailer;
    /// `None` on the wire is byte-identical to the legacy payload).
    pub trace: Option<TraceContext>,
}

/// Server logon acknowledgment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogonOk {
    /// Session id assigned by the server; all subsequent frames carry it.
    pub session: u32,
    /// Server identification banner (legacy clients logged this).
    pub banner: String,
}

/// SQL response: an activity count plus an optional result set.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlResult {
    /// Number of rows affected/returned.
    pub activity_count: u64,
    /// Result-set column names and types (empty for DML).
    pub columns: Vec<(String, LegacyType)>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

/// Begin an import (load) job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeginLoad {
    /// Target table, e.g. `PROD.CUSTOMER`.
    pub target_table: String,
    /// Transformation-error table (`errortables` first name).
    pub error_table_et: String,
    /// Uniqueness-violation table (`errortables` second name).
    pub error_table_uv: String,
    /// Record layout for the data sessions.
    pub layout: Layout,
    /// Wire record format.
    pub format: RecordFormat,
    /// Number of parallel data sessions the client will open.
    pub sessions: u16,
    /// Abort the job if more than this many records error (0 = unlimited).
    pub error_limit: u64,
    /// Optional causal trace context (encoded as a payload trailer;
    /// `None` on the wire is byte-identical to the legacy payload).
    pub trace: Option<TraceContext>,
}

/// A chunk of encoded records on a data session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataChunk {
    /// Monotonic per-session chunk number (used in acks).
    pub chunk_seq: u64,
    /// Input-file row number (1-based) of the first record in this chunk.
    /// Error tables report row numbers; stamping chunks at the client keeps
    /// them exact even with parallel data sessions.
    pub base_seq: u64,
    /// Number of records in `data`.
    pub record_count: u32,
    /// Encoded records in the job's [`RecordFormat`].
    pub data: Bytes,
}

/// End of acquisition: apply the DML transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndLoad {
    /// The job's DML statement in legacy SQL, with `:FIELD` placeholders
    /// bound to the layout.
    pub dml: String,
}

/// Final load report returned to the client.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LoadReport {
    /// Records received from the client.
    pub rows_received: u64,
    /// Rows successfully applied to the target table.
    pub rows_applied: u64,
    /// Rows recorded in the transformation-error (ET) table.
    pub errors_et: u64,
    /// Rows recorded in the uniqueness-violation (UV) table.
    pub errors_uv: u64,
    /// Acquisition-phase wall time, microseconds.
    pub acquisition_micros: u64,
    /// Application-phase wall time, microseconds.
    pub application_micros: u64,
    /// Everything else (startup/teardown), microseconds.
    pub other_micros: u64,
    /// Operations retried after transient infrastructure failures
    /// (uploads + CDW statements). Always `upload_retries + cdw_retries`;
    /// retained so existing clients keep a single total to assert on.
    pub retries: u64,
    /// Faults injected by the server's fault plan during the job (0 in
    /// production — nonzero only under chaos testing).
    pub faults_injected: u64,
    /// Staging-upload operations retried (subset of `retries`).
    pub upload_retries: u64,
    /// CDW statements retried (subset of `retries`).
    pub cdw_retries: u64,
}

/// Begin an export job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeginExport {
    /// The SELECT statement (legacy SQL) producing the data.
    pub select: String,
    /// Wire record format for the returned chunks.
    pub format: RecordFormat,
    /// Number of parallel data sessions the client will open.
    pub sessions: u16,
    /// Preferred records per chunk (0 = server default).
    pub chunk_rows: u32,
}

/// Export acknowledgment: the token data sessions attach with, and the
/// layout of the returned records (derived from the SELECT's result type).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeginExportOk {
    /// Token for data-session logons.
    pub export_token: u64,
    /// Layout describing the result columns.
    pub layout: Layout,
}

/// One chunk of an export result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportChunk {
    /// Chunk index (as requested).
    pub index: u64,
    /// Number of records in `data`.
    pub record_count: u32,
    /// Whether this index is at/after the end of the result.
    pub last: bool,
    /// Encoded records.
    pub data: Bytes,
}

/// The monitoring document a [`Message::Introspect`] request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topic {
    /// Metrics snapshot: node metrics, every registered counter, gauge
    /// and histogram, the recent-report ring, journal occupancy.
    Stats,
    /// The background sampler's time-series rings (Fig. 8/9-style
    /// rate-over-time data).
    Series,
    /// Per-tenant SLO burn rates, active alerts, node overload state.
    Health,
    /// Continuous-profiling report: stage CPU/wall, lock sites, worker
    /// pool, folded stacks.
    Profile,
    /// One job's causal trace: span tree plus critical-path attribution.
    Trace {
        /// The job id to trace.
        job: u64,
    },
}

impl Topic {
    fn encode(self, buf: &mut impl BufMut) {
        match self {
            Topic::Stats => buf.put_u8(0),
            Topic::Series => buf.put_u8(1),
            Topic::Health => buf.put_u8(2),
            Topic::Profile => buf.put_u8(3),
            Topic::Trace { job } => {
                buf.put_u8(4);
                buf.put_u64_le(job);
            }
        }
    }

    fn decode(buf: &mut impl Buf) -> Result<Topic, FrameError> {
        if buf.remaining() < 1 {
            return Err(FrameError::Truncated);
        }
        match buf.get_u8() {
            0 => Ok(Topic::Stats),
            1 => Ok(Topic::Series),
            2 => Ok(Topic::Health),
            3 => Ok(Topic::Profile),
            4 => {
                if buf.remaining() < 8 {
                    return Err(FrameError::Truncated);
                }
                Ok(Topic::Trace {
                    job: buf.get_u64_le(),
                })
            }
            _ => Err(FrameError::Malformed("unknown introspection topic")),
        }
    }
}

/// Rendering requested for an introspection document. `Text` is
/// Prometheus text exposition for [`Topic::Stats`] and [`Topic::Health`]
/// and folded-stack text (the flamegraph input format) for
/// [`Topic::Profile`]. [`Topic::Series`] and [`Topic::Trace`] have only a
/// JSON rendering: a `Text` request for them is answered in JSON. The
/// reply's `format` always names the rendering that was sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// JSON document.
    Json,
    /// The topic's line-oriented text rendering.
    Text,
}

impl Format {
    fn encode(self, buf: &mut impl BufMut) {
        buf.put_u8(matches!(self, Format::Text) as u8);
    }

    fn decode(buf: &mut impl Buf) -> Result<Format, FrameError> {
        if buf.remaining() < 1 {
            return Err(FrameError::Truncated);
        }
        match buf.get_u8() {
            0 => Ok(Format::Json),
            1 => Ok(Format::Text),
            _ => Err(FrameError::Malformed("unknown introspection format")),
        }
    }
}

/// One rendered monitoring document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntrospectReply {
    /// The topic the document answers.
    pub topic: Topic,
    /// The format `body` is rendered in (see [`Format`]).
    pub format: Format,
    /// False only for [`Topic::Trace`] of a job whose spans the journal
    /// no longer holds; `body` is then empty.
    pub found: bool,
    /// The rendered document.
    pub body: String,
}

/// A session-level error report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Legacy error code.
    pub code: u16,
    /// Human-readable message.
    pub message: String,
    /// Whether the session/job cannot continue.
    pub fatal: bool,
}

/// A decoded protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client logon request.
    Logon(Logon),
    /// Server logon acknowledgment.
    LogonOk(LogonOk),
    /// SQL request.
    Sql {
        /// Statement text (legacy dialect).
        text: String,
    },
    /// SQL response.
    SqlResult(SqlResult),
    /// Begin an import job.
    BeginLoad(BeginLoad),
    /// Import-job acknowledgment.
    BeginLoadOk {
        /// Token for data-session logons.
        load_token: u64,
    },
    /// Data chunk (import).
    DataChunk(DataChunk),
    /// Chunk acknowledgment.
    Ack {
        /// The acknowledged chunk's sequence number.
        chunk_seq: u64,
    },
    /// End of acquisition; apply DML.
    EndLoad(EndLoad),
    /// Final load report.
    LoadReport(LoadReport),
    /// Begin an export job.
    BeginExport(BeginExport),
    /// Export-job acknowledgment.
    BeginExportOk(BeginExportOk),
    /// Request an export chunk by index.
    ExportChunkReq {
        /// Chunk index requested.
        index: u64,
    },
    /// An export chunk.
    ExportChunk(ExportChunk),
    /// Error report.
    Error(WireError),
    /// Client logoff.
    Logoff,
    /// Server logoff acknowledgment.
    LogoffOk,
    /// Liveness probe.
    Keepalive,
    /// Request one of the node's monitoring documents (control sessions).
    Introspect {
        /// The document asked for.
        topic: Topic,
        /// Rendering requested for the reply body.
        format: Format,
    },
    /// Introspection response.
    IntrospectReply(IntrospectReply),
}

impl Message {
    /// The frame kind this message travels as.
    pub fn kind(&self) -> MsgKind {
        match self {
            Message::Logon(_) => MsgKind::Logon,
            Message::LogonOk(_) => MsgKind::LogonOk,
            Message::Sql { .. } => MsgKind::Sql,
            Message::SqlResult(_) => MsgKind::SqlResult,
            Message::BeginLoad(_) => MsgKind::BeginLoad,
            Message::BeginLoadOk { .. } => MsgKind::BeginLoadOk,
            Message::DataChunk(_) => MsgKind::DataChunk,
            Message::Ack { .. } => MsgKind::Ack,
            Message::EndLoad(_) => MsgKind::EndLoad,
            Message::LoadReport(_) => MsgKind::LoadReport,
            Message::BeginExport(_) => MsgKind::BeginExport,
            Message::BeginExportOk(_) => MsgKind::BeginExportOk,
            Message::ExportChunkReq { .. } => MsgKind::ExportChunkReq,
            Message::ExportChunk(_) => MsgKind::ExportChunk,
            Message::Error(_) => MsgKind::Error,
            Message::Logoff => MsgKind::Logoff,
            Message::LogoffOk => MsgKind::LogoffOk,
            Message::Keepalive => MsgKind::Keepalive,
            Message::Introspect { .. } => MsgKind::Introspect,
            Message::IntrospectReply(_) => MsgKind::IntrospectReply,
        }
    }

    /// Encode this message's payload and wrap it in a frame.
    pub fn into_frame(self, session: u32, seq: u32) -> Frame {
        let mut buf = BytesMut::new();
        self.encode_payload(&mut buf);
        Frame::new(self.kind(), session, seq, buf.freeze())
    }

    /// Encode just the payload bytes.
    pub fn encode_payload(&self, buf: &mut BytesMut) {
        match self {
            Message::Logon(m) => {
                write_string(buf, &m.username);
                write_string(buf, &m.password);
                buf.put_u8(matches!(m.role, SessionRole::Data) as u8);
                buf.put_u64_le(m.job_token);
                TraceContext::encode_opt(m.trace.as_ref(), buf);
            }
            Message::LogonOk(m) => {
                buf.put_u32_le(m.session);
                write_string(buf, &m.banner);
            }
            Message::Sql { text } => write_lstring(buf, text),
            Message::SqlResult(m) => {
                buf.put_u64_le(m.activity_count);
                buf.put_u16_le(m.columns.len() as u16);
                for (name, ty) in &m.columns {
                    write_string(buf, name);
                    buf.put_u8(ty.tag());
                    let (p1, p2) = ty.params();
                    buf.put_u16_le(p1);
                    buf.put_u16_le(p2);
                }
                buf.put_u32_le(m.rows.len() as u32);
                for row in &m.rows {
                    for v in row {
                        encode_value(v, buf);
                    }
                }
            }
            Message::BeginLoad(m) => {
                write_string(buf, &m.target_table);
                write_string(buf, &m.error_table_et);
                write_string(buf, &m.error_table_uv);
                m.layout.encode(buf);
                m.format.encode(buf);
                buf.put_u16_le(m.sessions);
                buf.put_u64_le(m.error_limit);
                TraceContext::encode_opt(m.trace.as_ref(), buf);
            }
            Message::BeginLoadOk { load_token } => buf.put_u64_le(*load_token),
            Message::DataChunk(m) => {
                buf.put_u64_le(m.chunk_seq);
                buf.put_u64_le(m.base_seq);
                buf.put_u32_le(m.record_count);
                buf.put_u32_le(m.data.len() as u32);
                buf.put_slice(&m.data);
            }
            Message::Ack { chunk_seq } => buf.put_u64_le(*chunk_seq),
            Message::EndLoad(m) => write_lstring(buf, &m.dml),
            Message::LoadReport(m) => {
                buf.put_u64_le(m.rows_received);
                buf.put_u64_le(m.rows_applied);
                buf.put_u64_le(m.errors_et);
                buf.put_u64_le(m.errors_uv);
                buf.put_u64_le(m.acquisition_micros);
                buf.put_u64_le(m.application_micros);
                buf.put_u64_le(m.other_micros);
                buf.put_u64_le(m.retries);
                buf.put_u64_le(m.faults_injected);
                buf.put_u64_le(m.upload_retries);
                buf.put_u64_le(m.cdw_retries);
            }
            Message::BeginExport(m) => {
                write_lstring(buf, &m.select);
                m.format.encode(buf);
                buf.put_u16_le(m.sessions);
                buf.put_u32_le(m.chunk_rows);
            }
            Message::BeginExportOk(m) => {
                buf.put_u64_le(m.export_token);
                m.layout.encode(buf);
            }
            Message::ExportChunkReq { index } => buf.put_u64_le(*index),
            Message::ExportChunk(m) => {
                buf.put_u64_le(m.index);
                buf.put_u32_le(m.record_count);
                buf.put_u8(m.last as u8);
                buf.put_u32_le(m.data.len() as u32);
                buf.put_slice(&m.data);
            }
            Message::Error(m) => {
                buf.put_u16_le(m.code);
                buf.put_u8(m.fatal as u8);
                write_lstring(buf, &m.message);
            }
            Message::Introspect { topic, format } => {
                topic.encode(buf);
                format.encode(buf);
            }
            Message::IntrospectReply(m) => {
                m.topic.encode(buf);
                m.format.encode(buf);
                buf.put_u8(m.found as u8);
                write_lstring(buf, &m.body);
            }
            Message::Logoff | Message::LogoffOk | Message::Keepalive => {}
        }
    }

    /// Decode a message from a frame.
    pub fn from_frame(frame: &Frame) -> Result<Message, FrameError> {
        let buf = &mut frame.payload.clone();
        Ok(match frame.kind {
            MsgKind::Logon => {
                let username = read_string(buf)?;
                let password = read_string(buf)?;
                if buf.remaining() < 9 {
                    return Err(FrameError::Truncated);
                }
                let role = if buf.get_u8() != 0 {
                    SessionRole::Data
                } else {
                    SessionRole::Control
                };
                let job_token = buf.get_u64_le();
                let trace = TraceContext::decode_opt(buf)?;
                Message::Logon(Logon {
                    username,
                    password,
                    role,
                    job_token,
                    trace,
                })
            }
            MsgKind::LogonOk => {
                if buf.remaining() < 4 {
                    return Err(FrameError::Truncated);
                }
                let session = buf.get_u32_le();
                let banner = read_string(buf)?;
                Message::LogonOk(LogonOk { session, banner })
            }
            MsgKind::Sql => Message::Sql {
                text: read_lstring(buf)?,
            },
            MsgKind::SqlResult => {
                if buf.remaining() < 10 {
                    return Err(FrameError::Truncated);
                }
                let activity_count = buf.get_u64_le();
                let ncols = buf.get_u16_le() as usize;
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    let name = read_string(buf)?;
                    if buf.remaining() < 5 {
                        return Err(FrameError::Truncated);
                    }
                    let tag = buf.get_u8();
                    let p1 = buf.get_u16_le();
                    let p2 = buf.get_u16_le();
                    let ty = LegacyType::from_tag(tag, p1, p2)
                        .ok_or(FrameError::Malformed("unknown column type"))?;
                    columns.push((name, ty));
                }
                if buf.remaining() < 4 {
                    return Err(FrameError::Truncated);
                }
                let nrows = buf.get_u32_le() as usize;
                let mut rows = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    let mut row = Vec::with_capacity(ncols);
                    for _ in 0..ncols {
                        row.push(decode_value(buf)?);
                    }
                    rows.push(row);
                }
                Message::SqlResult(SqlResult {
                    activity_count,
                    columns,
                    rows,
                })
            }
            MsgKind::BeginLoad => {
                let target_table = read_string(buf)?;
                let error_table_et = read_string(buf)?;
                let error_table_uv = read_string(buf)?;
                let layout = Layout::decode(buf)?;
                let format = RecordFormat::decode(buf)?;
                if buf.remaining() < 10 {
                    return Err(FrameError::Truncated);
                }
                let sessions = buf.get_u16_le();
                let error_limit = buf.get_u64_le();
                let trace = TraceContext::decode_opt(buf)?;
                Message::BeginLoad(BeginLoad {
                    target_table,
                    error_table_et,
                    error_table_uv,
                    layout,
                    format,
                    sessions,
                    error_limit,
                    trace,
                })
            }
            MsgKind::BeginLoadOk => {
                if buf.remaining() < 8 {
                    return Err(FrameError::Truncated);
                }
                Message::BeginLoadOk {
                    load_token: buf.get_u64_le(),
                }
            }
            MsgKind::DataChunk => {
                if buf.remaining() < 24 {
                    return Err(FrameError::Truncated);
                }
                let chunk_seq = buf.get_u64_le();
                let base_seq = buf.get_u64_le();
                let record_count = buf.get_u32_le();
                let len = buf.get_u32_le() as usize;
                if buf.remaining() < len {
                    return Err(FrameError::Truncated);
                }
                let data = buf.copy_to_bytes(len);
                Message::DataChunk(DataChunk {
                    chunk_seq,
                    base_seq,
                    record_count,
                    data,
                })
            }
            MsgKind::Ack => {
                if buf.remaining() < 8 {
                    return Err(FrameError::Truncated);
                }
                Message::Ack {
                    chunk_seq: buf.get_u64_le(),
                }
            }
            MsgKind::EndLoad => Message::EndLoad(EndLoad {
                dml: read_lstring(buf)?,
            }),
            MsgKind::LoadReport => {
                if buf.remaining() < 88 {
                    return Err(FrameError::Truncated);
                }
                Message::LoadReport(LoadReport {
                    rows_received: buf.get_u64_le(),
                    rows_applied: buf.get_u64_le(),
                    errors_et: buf.get_u64_le(),
                    errors_uv: buf.get_u64_le(),
                    acquisition_micros: buf.get_u64_le(),
                    application_micros: buf.get_u64_le(),
                    other_micros: buf.get_u64_le(),
                    retries: buf.get_u64_le(),
                    faults_injected: buf.get_u64_le(),
                    upload_retries: buf.get_u64_le(),
                    cdw_retries: buf.get_u64_le(),
                })
            }
            MsgKind::BeginExport => {
                let select = read_lstring(buf)?;
                let format = RecordFormat::decode(buf)?;
                if buf.remaining() < 6 {
                    return Err(FrameError::Truncated);
                }
                let sessions = buf.get_u16_le();
                let chunk_rows = buf.get_u32_le();
                Message::BeginExport(BeginExport {
                    select,
                    format,
                    sessions,
                    chunk_rows,
                })
            }
            MsgKind::BeginExportOk => {
                if buf.remaining() < 8 {
                    return Err(FrameError::Truncated);
                }
                let export_token = buf.get_u64_le();
                let layout = Layout::decode(buf)?;
                Message::BeginExportOk(BeginExportOk {
                    export_token,
                    layout,
                })
            }
            MsgKind::ExportChunkReq => {
                if buf.remaining() < 8 {
                    return Err(FrameError::Truncated);
                }
                Message::ExportChunkReq {
                    index: buf.get_u64_le(),
                }
            }
            MsgKind::ExportChunk => {
                if buf.remaining() < 17 {
                    return Err(FrameError::Truncated);
                }
                let index = buf.get_u64_le();
                let record_count = buf.get_u32_le();
                let last = buf.get_u8() != 0;
                let len = buf.get_u32_le() as usize;
                if buf.remaining() < len {
                    return Err(FrameError::Truncated);
                }
                let data = buf.copy_to_bytes(len);
                Message::ExportChunk(ExportChunk {
                    index,
                    record_count,
                    last,
                    data,
                })
            }
            MsgKind::Error => {
                if buf.remaining() < 3 {
                    return Err(FrameError::Truncated);
                }
                let code = buf.get_u16_le();
                let fatal = buf.get_u8() != 0;
                let message = read_lstring(buf)?;
                Message::Error(WireError {
                    code,
                    message,
                    fatal,
                })
            }
            MsgKind::Logoff => Message::Logoff,
            MsgKind::LogoffOk => Message::LogoffOk,
            MsgKind::Keepalive => Message::Keepalive,
            MsgKind::Introspect => Message::Introspect {
                topic: Topic::decode(buf)?,
                format: Format::decode(buf)?,
            },
            MsgKind::IntrospectReply => {
                let topic = Topic::decode(buf)?;
                let format = Format::decode(buf)?;
                if buf.remaining() < 1 {
                    return Err(FrameError::Truncated);
                }
                let found = buf.get_u8() != 0;
                let body = read_lstring(buf)?;
                Message::IntrospectReply(IntrospectReply {
                    topic,
                    format,
                    found,
                    body,
                })
            }
        })
    }
}

/// Tagged wire encoding of a [`Value`] (used in SQL result sets, where the
/// layout is carried by the column list rather than a fixed record layout).
fn encode_value(v: &Value, buf: &mut BytesMut) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Int(x) => {
            buf.put_u8(1);
            buf.put_i64_le(*x);
        }
        Value::Float(x) => {
            buf.put_u8(2);
            buf.put_f64_le(*x);
        }
        Value::Decimal(d) => {
            buf.put_u8(3);
            buf.put_i128_le(d.unscaled());
            buf.put_u8(d.scale());
        }
        Value::Str(s) => {
            buf.put_u8(4);
            write_lstring(buf, s);
        }
        Value::Bytes(b) => {
            buf.put_u8(5);
            buf.put_u32_le(b.len() as u32);
            buf.put_slice(b);
        }
        Value::Date(d) => {
            buf.put_u8(6);
            buf.put_i32_le(d.to_legacy_int());
        }
        Value::Timestamp(ts) => {
            buf.put_u8(7);
            buf.put_i64_le(ts.micros());
        }
    }
}

fn decode_value(buf: &mut Bytes) -> Result<Value, FrameError> {
    if buf.remaining() < 1 {
        return Err(FrameError::Truncated);
    }
    macro_rules! need {
        ($n:expr) => {
            if buf.remaining() < $n {
                return Err(FrameError::Truncated);
            }
        };
    }
    Ok(match buf.get_u8() {
        0 => Value::Null,
        1 => {
            need!(8);
            Value::Int(buf.get_i64_le())
        }
        2 => {
            need!(8);
            Value::Float(buf.get_f64_le())
        }
        3 => {
            need!(17);
            let unscaled = buf.get_i128_le();
            let scale = buf.get_u8();
            Value::Decimal(Decimal::new(unscaled, scale))
        }
        4 => Value::Str(read_lstring(buf)?),
        5 => {
            need!(4);
            let len = buf.get_u32_le() as usize;
            need!(len);
            let mut bytes = vec![0u8; len];
            buf.copy_to_slice(&mut bytes);
            Value::Bytes(bytes)
        }
        6 => {
            need!(4);
            Value::Date(
                Date::from_legacy_int(buf.get_i32_le())
                    .map_err(|_| FrameError::Malformed("bad date value"))?,
            )
        }
        7 => {
            need!(8);
            Value::Timestamp(Timestamp::from_micros(buf.get_i64_le()))
        }
        _ => return Err(FrameError::Malformed("unknown value tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::LegacyType as T;
    use crate::frame::FrameDecoder;

    fn roundtrip(msg: Message) -> Message {
        let frame = msg.into_frame(3, 9);
        let bytes = frame.to_bytes();
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        let frame2 = dec.next_frame().unwrap().unwrap();
        assert_eq!(frame2.session, 3);
        assert_eq!(frame2.seq, 9);
        Message::from_frame(&frame2).unwrap()
    }

    #[test]
    fn logon_roundtrip() {
        let msg = Message::Logon(Logon {
            username: "user".into(),
            password: "pass".into(),
            role: SessionRole::Data,
            job_token: 0xDEAD_BEEF,
            trace: None,
        });
        assert_eq!(roundtrip(msg.clone()), msg);
    }

    #[test]
    fn logon_trace_roundtrip() {
        let msg = Message::Logon(Logon {
            username: "user".into(),
            password: "pass".into(),
            role: SessionRole::Data,
            job_token: 7,
            trace: Some(TraceContext {
                trace_id: 0x1234_5678_9ABC_DEF1,
                parent_span: 3,
            }),
        });
        assert_eq!(roundtrip(msg.clone()), msg);
    }

    #[test]
    fn legacy_logon_without_trailer_decodes() {
        // A payload encoded exactly as the pre-trace wire format: the new
        // decoder must yield trace: None.
        let mut buf = BytesMut::new();
        write_string(&mut buf, "user");
        write_string(&mut buf, "pass");
        buf.put_u8(0); // control
        buf.put_u64_le(0);
        let frame = Frame::new(MsgKind::Logon, 0, 0, buf.freeze());
        let Message::Logon(l) = Message::from_frame(&frame).unwrap() else {
            panic!("expected Logon");
        };
        assert_eq!(l.trace, None);
        assert_eq!(l.username, "user");
    }

    #[test]
    fn corrupted_trace_trailer_rejected() {
        let msg = Message::BeginLoad(BeginLoad {
            target_table: "T".into(),
            error_table_et: "T_ET".into(),
            error_table_uv: "T_UV".into(),
            layout: Layout::new("L").field("A", T::Integer),
            format: RecordFormat::Binary,
            sessions: 1,
            error_limit: 0,
            trace: Some(TraceContext {
                trace_id: 42,
                parent_span: 0,
            }),
        });
        let mut frame = msg.into_frame(0, 0);
        // Chop the last 5 bytes: the trailer marker survives but the body
        // is truncated — must be rejected, not silently dropped.
        frame.payload = frame.payload.slice(0..frame.payload.len() - 5);
        assert!(Message::from_frame(&frame).is_err());
    }

    #[test]
    fn sql_and_result_roundtrip() {
        let msg = Message::Sql {
            text: "SELECT 1".into(),
        };
        assert_eq!(roundtrip(msg.clone()), msg);

        let msg = Message::SqlResult(SqlResult {
            activity_count: 2,
            columns: vec![
                ("ID".into(), T::Integer),
                ("NAME".into(), T::VarChar(20)),
                ("D".into(), T::Date),
            ],
            rows: vec![
                vec![
                    Value::Int(1),
                    Value::Str("x".into()),
                    Value::Date(Date::new(2020, 5, 17).unwrap()),
                ],
                vec![Value::Null, Value::Null, Value::Null],
            ],
        });
        assert_eq!(roundtrip(msg.clone()), msg);
    }

    #[test]
    fn begin_load_roundtrip() {
        let msg = Message::BeginLoad(BeginLoad {
            target_table: "PROD.CUSTOMER".into(),
            error_table_et: "PROD.CUSTOMER_ET".into(),
            error_table_uv: "PROD.CUSTOMER_UV".into(),
            layout: Layout::new("CustLayout")
                .field("CUST_ID", T::VarChar(5))
                .field("CUST_NAME", T::VarChar(50))
                .field("JOIN_DATE", T::VarChar(10)),
            format: RecordFormat::Vartext {
                delimiter: b'|',
                quote: b'"',
            },
            sessions: 4,
            error_limit: 0,
            trace: None,
        });
        assert_eq!(roundtrip(msg.clone()), msg);

        // And with a trace context attached.
        let Message::BeginLoad(mut bl) = msg else {
            unreachable!()
        };
        bl.trace = Some(TraceContext {
            trace_id: 99,
            parent_span: 12,
        });
        let msg = Message::BeginLoad(bl);
        assert_eq!(roundtrip(msg.clone()), msg);
    }

    #[test]
    fn data_chunk_roundtrip() {
        let msg = Message::DataChunk(DataChunk {
            chunk_seq: 17,
            base_seq: 101,
            record_count: 3,
            data: Bytes::from_static(b"a|b\nc|d\ne|f"),
        });
        assert_eq!(roundtrip(msg.clone()), msg);
        let msg = Message::Ack { chunk_seq: 17 };
        assert_eq!(roundtrip(msg.clone()), msg);
    }

    #[test]
    fn load_lifecycle_roundtrip() {
        for msg in [
            Message::BeginLoadOk { load_token: 99 },
            Message::EndLoad(EndLoad {
                dml: "insert into t values (:A)".into(),
            }),
            Message::LoadReport(LoadReport {
                rows_received: 100,
                rows_applied: 95,
                errors_et: 3,
                errors_uv: 2,
                acquisition_micros: 1000,
                application_micros: 2000,
                other_micros: 30,
                retries: 4,
                faults_injected: 6,
                upload_retries: 3,
                cdw_retries: 1,
            }),
        ] {
            assert_eq!(roundtrip(msg.clone()), msg);
        }
    }

    #[test]
    fn export_roundtrip() {
        for msg in [
            Message::BeginExport(BeginExport {
                select: "SELECT * FROM T".into(),
                format: RecordFormat::Binary,
                sessions: 2,
                chunk_rows: 1000,
            }),
            Message::BeginExportOk(BeginExportOk {
                export_token: 5,
                layout: Layout::new("out").field("A", T::Integer),
            }),
            Message::ExportChunkReq { index: 3 },
            Message::ExportChunk(ExportChunk {
                index: 3,
                record_count: 2,
                last: false,
                data: Bytes::from_static(&[1, 2, 3]),
            }),
            Message::ExportChunk(ExportChunk {
                index: 9,
                record_count: 0,
                last: true,
                data: Bytes::new(),
            }),
        ] {
            assert_eq!(roundtrip(msg.clone()), msg);
        }
    }

    #[test]
    fn error_and_plain_roundtrip() {
        for msg in [
            Message::Error(WireError {
                code: 2666,
                message: "invalid date".into(),
                fatal: false,
            }),
            Message::Logoff,
            Message::LogoffOk,
            Message::Keepalive,
        ] {
            assert_eq!(roundtrip(msg.clone()), msg);
        }
    }

    #[test]
    fn introspect_roundtrip() {
        let topics = [
            Topic::Stats,
            Topic::Series,
            Topic::Health,
            Topic::Profile,
            Topic::Trace { job: 17 },
        ];
        let bodies = [
            "{\"counters\": {\"gateway.chunks_received\": 12}}",
            "etlv_gateway_chunks_received 12\n",
            "etlv_slo_alert{tenant=\"wg_t00\",objective=\"error_rate\"} 1\n",
            "job;acquisition;convert 300\njob;application;apply 500\n",
            "{\"job\": 17, \"wall_micros\": 1200}",
        ];
        for (topic, body) in topics.into_iter().zip(bodies) {
            for format in [Format::Json, Format::Text] {
                for msg in [
                    Message::Introspect { topic, format },
                    Message::IntrospectReply(IntrospectReply {
                        topic,
                        format,
                        found: true,
                        body: body.into(),
                    }),
                ] {
                    assert_eq!(roundtrip(msg.clone()), msg);
                }
            }
        }
        let msg = Message::IntrospectReply(IntrospectReply {
            topic: Topic::Trace { job: 99 },
            format: Format::Json,
            found: false,
            body: String::new(),
        });
        assert_eq!(roundtrip(msg.clone()), msg);

        // Unknown topic and format bytes are malformed, not defaulted.
        for payload in [&[5u8, 0][..], &[0, 2]] {
            let frame = Frame::new(MsgKind::Introspect, 0, 0, payload.to_vec());
            assert!(matches!(
                Message::from_frame(&frame),
                Err(FrameError::Malformed(_))
            ));
        }
        // The kinds the four request/reply pairs used to travel as are
        // unknown to the frame layer.
        let mut bytes = Message::Keepalive.into_frame(0, 0).to_bytes();
        for kind in 21..=26u8 {
            bytes[3] = kind;
            let mut dec = FrameDecoder::new();
            dec.feed(&bytes);
            assert_eq!(dec.next_frame(), Err(FrameError::BadKind(kind)));
        }
    }

    #[test]
    fn truncated_payload_rejected() {
        let msg = Message::BeginLoadOk { load_token: 1 };
        let mut frame = msg.into_frame(0, 0);
        frame.payload = frame.payload.slice(0..4);
        assert!(Message::from_frame(&frame).is_err());
    }

    #[test]
    fn value_tag_rejects_unknown() {
        // A SqlResult row with a bogus value tag.
        let mut buf = BytesMut::new();
        buf.put_u64_le(0); // activity
        buf.put_u16_le(1); // 1 col
        write_string(&mut buf, "C");
        buf.put_u8(T::Integer.tag());
        buf.put_u16_le(0);
        buf.put_u16_le(0);
        buf.put_u32_le(1); // 1 row
        buf.put_u8(0xEE); // bad value tag
        let frame = Frame::new(MsgKind::SqlResult, 0, 0, buf.freeze());
        assert!(Message::from_frame(&frame).is_err());
    }
}
