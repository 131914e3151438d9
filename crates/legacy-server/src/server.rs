//! The legacy server's session layer: protocol handling over any
//! [`Transport`].

use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use etlv_cdw::{Cdw, CdwConfig};
use etlv_protocol::data::Value;
use etlv_protocol::errcode::ErrCode;
use etlv_protocol::layout::{FieldDef, Layout};
use etlv_protocol::message::RecordFormat;
use etlv_protocol::message::{
    BeginExportOk, BeginLoad, ExportChunk, LoadReport, Message, SessionRole, SqlResult, WireError,
};
use etlv_protocol::record::{encode_rows, RecordDecoder};
use etlv_protocol::transport::Transport;
use etlv_protocol::vartext::{records, VartextFormat};
use etlv_sql::ast::{Expr, Insert, InsertSource, Literal, ObjectName, Stmt};
use etlv_sql::types::SqlType;
use etlv_sql::{parse_statement, Dialect};
use parking_lot::Mutex;

use crate::apply::{apply_per_tuple, ApplyOutcome, LoadError};

/// Rows per export chunk when the client leaves the size to the server
/// (`BeginExport::chunk_rows` 0).
const EXPORT_CHUNK_ROWS: usize = 1024;

struct ImportJob {
    spec: BeginLoad,
    rows: Mutex<Vec<(u64, Vec<Value>)>>,
    /// Records that did not decode: ET rows, outside `errlimit`.
    bad: Mutex<Vec<LoadError>>,
    started: Instant,
}

struct ExportJob {
    layout: Layout,
    format: RecordFormat,
    chunks: Vec<Vec<Vec<Value>>>,
}

enum Job {
    Import(Arc<ImportJob>),
    Export(Arc<ExportJob>),
}

/// The reference legacy EDW server.
pub struct LegacyServer {
    engine: Cdw,
    jobs: Mutex<HashMap<u64, Job>>,
    next_token: AtomicU64,
    next_session: AtomicU32,
}

impl LegacyServer {
    /// Create a server. Legacy systems enforce uniqueness natively, so
    /// the internal engine runs with `native_unique` on.
    pub fn new() -> Arc<LegacyServer> {
        let engine_config = CdwConfig {
            native_unique: true,
            ..CdwConfig::default()
        };
        Arc::new(LegacyServer {
            engine: Cdw::with_config(engine_config, None),
            jobs: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(1),
            next_session: AtomicU32::new(1),
        })
    }

    /// Direct access to the internal engine (test assertions).
    pub fn engine(&self) -> &Cdw {
        &self.engine
    }

    /// Serve one connection until the peer logs off or disconnects, on
    /// the connection's own thread.
    fn serve(self: &Arc<Self>, mut transport: impl Transport) -> io::Result<()> {
        let mut session_id = 0u32;
        let mut seq = 0u32;
        let mut role = SessionRole::Control;
        let mut job_token = 0u64;

        while let Some(frame) = transport.recv(None)? {
            let msg = match Message::from_frame(&frame) {
                Ok(m) => m,
                Err(e) => {
                    let reply = Message::Error(WireError {
                        code: ErrCode::PROTOCOL.0,
                        message: e.to_string(),
                        fatal: true,
                    });
                    transport.send(&reply.into_frame(session_id, seq))?;
                    return Ok(());
                }
            };
            seq = seq.wrapping_add(1);
            let reply = match msg {
                Message::Logon(logon) => {
                    if logon.username.is_empty() || logon.password.is_empty() {
                        Message::Error(WireError {
                            code: ErrCode::LOGON_FAILED.0,
                            message: "missing credentials".into(),
                            fatal: true,
                        })
                    } else {
                        session_id = self.next_session.fetch_add(1, Ordering::Relaxed);
                        role = logon.role;
                        job_token = logon.job_token;
                        Message::LogonOk(etlv_protocol::message::LogonOk {
                            session: session_id,
                            banner: "LegacyEDW reference server 1.0".into(),
                        })
                    }
                }
                Message::Sql { text } => self.handle_sql(&text),
                Message::BeginLoad(spec) => self.handle_begin_load(spec),
                Message::EndLoad(end) => self.handle_end_load(job_token, &end.dml),
                Message::BeginExport(spec) => self.handle_begin_export(spec),
                Message::DataChunk(chunk) => {
                    if role != SessionRole::Data {
                        Message::Error(WireError {
                            code: ErrCode::PROTOCOL.0,
                            message: "data chunk on a control session".into(),
                            fatal: true,
                        })
                    } else {
                        self.handle_data_chunk(job_token, chunk)
                    }
                }
                Message::ExportChunkReq { index } => self.handle_export_req(job_token, index),
                Message::Logoff => {
                    transport.send(&Message::LogoffOk.into_frame(session_id, seq))?;
                    return Ok(());
                }
                Message::Keepalive => Message::Keepalive,
                other => Message::Error(WireError {
                    code: ErrCode::PROTOCOL.0,
                    message: format!("unexpected message {:?}", other.kind()),
                    fatal: true,
                }),
            };
            // A control session that begins a job implicitly attaches to
            // it: EndLoad/ExportChunkReq on this session use that token.
            match &reply {
                Message::BeginLoadOk { load_token } => job_token = *load_token,
                Message::BeginExportOk(ok) => job_token = ok.export_token,
                _ => {}
            }
            let fatal = matches!(&reply, Message::Error(e) if e.fatal);
            transport.send(&reply.into_frame(session_id, seq))?;
            if fatal {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Accept loop over TCP; spawns one thread per connection. Returns the
    /// bound address. Runs until the process exits (tests use ephemeral
    /// ports and drop connections).
    pub fn listen_tcp(self: &Arc<Self>, addr: &str) -> io::Result<std::net::SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let server = Arc::clone(self);
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    if let Ok(t) = etlv_protocol::transport::TcpTransport::new(stream) {
                        let _ = server.serve(t);
                    }
                });
            }
        });
        Ok(local)
    }

    fn handle_sql(&self, text: &str) -> Message {
        let stmt = match parse_statement(text, Dialect::Legacy) {
            Ok(s) => s,
            Err(e) => {
                return Message::Error(WireError {
                    code: ErrCode::SQL_ERROR.0,
                    message: e.to_string(),
                    fatal: false,
                })
            }
        };
        match self.engine.execute_stmt(&stmt) {
            Ok(result) => Message::SqlResult(SqlResult {
                activity_count: result.affected,
                columns: result
                    .columns
                    .iter()
                    .map(|(n, ty)| (n.clone(), ty.to_legacy()))
                    .collect(),
                rows: result.into_rows(),
            }),
            Err(e) => Message::Error(WireError {
                code: ErrCode::SQL_ERROR.0,
                message: e.to_string(),
                fatal: false,
            }),
        }
    }

    fn handle_begin_load(&self, spec: BeginLoad) -> Message {
        // Step 1 of the legacy flow: the server creates the error tables.
        if let Err(e) = self.create_error_tables(&spec) {
            return Message::Error(WireError {
                code: ErrCode::SQL_ERROR.0,
                message: e,
                fatal: true,
            });
        }
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.jobs.lock().insert(
            token,
            Job::Import(Arc::new(ImportJob {
                spec,
                rows: Mutex::new(Vec::new()),
                bad: Mutex::new(Vec::new()),
                started: Instant::now(),
            })),
        );
        Message::BeginLoadOk { load_token: token }
    }

    fn create_error_tables(&self, spec: &BeginLoad) -> Result<(), String> {
        let run = |sql: String| -> Result<(), String> {
            let stmt = parse_statement(&sql, Dialect::Cdw).map_err(|e| e.to_string())?;
            self.engine
                .execute_stmt(&stmt)
                .map(|_| ())
                .map_err(|e| e.to_string())
        };
        run(format!("DROP TABLE IF EXISTS {}", spec.error_table_et))?;
        run(format!("DROP TABLE IF EXISTS {}", spec.error_table_uv))?;
        run(format!(
            "CREATE TABLE {} (SEQNO BIGINT, ERRCODE INTEGER, ERRFIELD VARCHAR(128))",
            spec.error_table_et
        ))?;
        // The UV table mirrors the input layout plus bookkeeping columns.
        let mut cols: Vec<String> = spec
            .layout
            .fields
            .iter()
            .map(|f| {
                format!(
                    "{} {}",
                    f.name,
                    SqlType::from_legacy(f.ty).render(Dialect::Cdw)
                )
            })
            .collect();
        cols.push("SEQNO BIGINT".into());
        cols.push("ERRCODE INTEGER".into());
        run(format!(
            "CREATE TABLE {} ({})",
            spec.error_table_uv,
            cols.join(", ")
        ))
    }

    fn handle_data_chunk(&self, token: u64, chunk: etlv_protocol::message::DataChunk) -> Message {
        let job = {
            let jobs = self.jobs.lock();
            match jobs.get(&token) {
                Some(Job::Import(j)) => Arc::clone(j),
                _ => {
                    return Message::Error(WireError {
                        code: ErrCode::PROTOCOL.0,
                        message: format!("no import job for token {token}"),
                        fatal: true,
                    })
                }
            }
        };
        // The reference server decodes synchronously — it has no cloud
        // conversion pipeline to hide; this is the behaviour the
        // virtualizer must match from the client's point of view. A
        // vartext record that does not decode is an ET row under its own
        // SEQNO and the load goes on; a broken binary chunk is fatal.
        match job.spec.format {
            RecordFormat::Binary => {
                match RecordDecoder::new(job.spec.layout.clone()).decode_batch(&chunk.data) {
                    Ok(rows) => job.rows.lock().extend((chunk.base_seq..).zip(rows)),
                    Err(e) => {
                        return Message::Error(WireError {
                            code: ErrCode::BAD_VALUE.0,
                            message: e.to_string(),
                            fatal: true,
                        })
                    }
                }
            }
            RecordFormat::Vartext { delimiter, quote } => {
                let format = VartextFormat { delimiter, quote };
                let arity = job.spec.layout.arity();
                let mut rows = job.rows.lock();
                let mut bad = job.bad.lock();
                for (seq, record) in (chunk.base_seq..).zip(records(&chunk.data)) {
                    match format.decode_line(record, Some(arity)) {
                        Ok(row) => rows.push((seq, row)),
                        Err(e) => bad.push(LoadError {
                            seq,
                            code: e.code(),
                            field: None,
                            tuple: Vec::new(),
                        }),
                    }
                }
            }
        }
        Message::Ack {
            chunk_seq: chunk.chunk_seq,
        }
    }

    fn handle_end_load(&self, token: u64, dml: &str) -> Message {
        let job = {
            let mut jobs = self.jobs.lock();
            match jobs.remove(&token) {
                Some(Job::Import(j)) => j,
                _ => {
                    return Message::Error(WireError {
                        code: ErrCode::PROTOCOL.0,
                        message: format!("no import job for token {token}"),
                        fatal: true,
                    })
                }
            }
        };
        let acquisition = job.started.elapsed();
        let stmt = match parse_statement(dml, Dialect::Legacy) {
            Ok(s) => s,
            Err(e) => {
                return Message::Error(WireError {
                    code: ErrCode::SQL_ERROR.0,
                    message: format!("DML does not parse: {e}"),
                    fatal: true,
                })
            }
        };
        let mut rows = std::mem::take(&mut *job.rows.lock());
        rows.sort_by_key(|(seq, _)| *seq);
        let bad = std::mem::take(&mut *job.bad.lock());
        let rows_received = (rows.len() + bad.len()) as u64;

        let apply_started = Instant::now();
        let mut outcome = apply_per_tuple(
            &self.engine,
            &stmt,
            &job.spec.layout,
            &rows,
            job.spec.error_limit,
        );
        outcome.et_errors.extend(bad);
        if let Err(e) = self.record_errors(&job.spec, &outcome) {
            return Message::Error(WireError {
                code: ErrCode::INTERNAL.0,
                message: e,
                fatal: true,
            });
        }
        let application = apply_started.elapsed();

        Message::LoadReport(LoadReport {
            rows_received,
            rows_applied: outcome.applied,
            errors_et: outcome.et_errors.len() as u64,
            errors_uv: outcome.uv_errors.len() as u64,
            acquisition_micros: acquisition.as_micros() as u64,
            application_micros: application.as_micros() as u64,
            other_micros: 0,
            // The reference EDW neither retries nor injects faults.
            retries: 0,
            faults_injected: 0,
            upload_retries: 0,
            cdw_retries: 0,
        })
    }

    fn record_errors(&self, spec: &BeginLoad, outcome: &ApplyOutcome) -> Result<(), String> {
        if !outcome.et_errors.is_empty() {
            let rows: Vec<Vec<Expr>> = outcome
                .et_errors
                .iter()
                .map(|e| {
                    vec![
                        Expr::Literal(Literal::Integer(e.seq as i64)),
                        Expr::Literal(Literal::Integer(e.code.0 as i64)),
                        match &e.field {
                            Some(f) => Expr::Literal(Literal::Str(f.clone())),
                            None => Expr::Literal(Literal::Null),
                        },
                    ]
                })
                .collect();
            self.insert_rows(&spec.error_table_et, rows)?;
        }
        if !outcome.uv_errors.is_empty() {
            let rows: Vec<Vec<Expr>> = outcome
                .uv_errors
                .iter()
                .map(|e| {
                    let mut row: Vec<Expr> = e
                        .tuple
                        .iter()
                        .map(|v| Expr::Literal(Literal::from_value(v)))
                        .collect();
                    row.push(Expr::Literal(Literal::Integer(e.seq as i64)));
                    row.push(Expr::Literal(Literal::Integer(e.code.0 as i64)));
                    row
                })
                .collect();
            self.insert_rows(&spec.error_table_uv, rows)?;
        }
        Ok(())
    }

    fn insert_rows(&self, table: &str, rows: Vec<Vec<Expr>>) -> Result<(), String> {
        let stmt = Stmt::Insert(Insert {
            table: ObjectName(table.split('.').map(str::to_string).collect()),
            columns: None,
            source: InsertSource::Values(rows),
        });
        self.engine
            .execute_stmt(&stmt)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn handle_begin_export(&self, spec: etlv_protocol::message::BeginExport) -> Message {
        let stmt = match parse_statement(&spec.select, Dialect::Legacy) {
            Ok(s) => s,
            Err(e) => {
                return Message::Error(WireError {
                    code: ErrCode::SQL_ERROR.0,
                    message: e.to_string(),
                    fatal: true,
                })
            }
        };
        let result = match self.engine.execute_stmt(&stmt) {
            Ok(r) => r,
            Err(e) => {
                return Message::Error(WireError {
                    code: ErrCode::SQL_ERROR.0,
                    message: e.to_string(),
                    fatal: true,
                })
            }
        };
        let layout = layout_of_columns(&result.columns);
        let chunk_rows = if spec.chunk_rows == 0 {
            EXPORT_CHUNK_ROWS
        } else {
            spec.chunk_rows as usize
        };
        let chunks: Vec<Vec<Vec<Value>>> = result
            .rows
            .chunks(chunk_rows.max(1))
            .map(|c| c.to_vec())
            .collect();
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.jobs.lock().insert(
            token,
            Job::Export(Arc::new(ExportJob {
                layout: layout.clone(),
                format: spec.format,
                chunks,
            })),
        );
        Message::BeginExportOk(BeginExportOk {
            export_token: token,
            layout,
        })
    }

    fn handle_export_req(&self, token: u64, index: u64) -> Message {
        let job = {
            let jobs = self.jobs.lock();
            match jobs.get(&token) {
                Some(Job::Export(j)) => Arc::clone(j),
                _ => {
                    return Message::Error(WireError {
                        code: ErrCode::PROTOCOL.0,
                        message: format!("no export job for token {token}"),
                        fatal: true,
                    })
                }
            }
        };
        let total = job.chunks.len() as u64;
        if index >= total {
            return Message::ExportChunk(ExportChunk {
                index,
                record_count: 0,
                last: true,
                data: Default::default(),
            });
        }
        let rows = &job.chunks[index as usize];
        let encoded = match encode_rows(&job.layout, job.format, rows) {
            Ok(d) => d,
            Err(e) => {
                return Message::Error(WireError {
                    code: ErrCode::INTERNAL.0,
                    message: e.to_string(),
                    fatal: true,
                })
            }
        };
        Message::ExportChunk(ExportChunk {
            index,
            record_count: rows.len() as u32,
            last: index + 1 >= total,
            data: encoded.into(),
        })
    }
}

/// Derive a wire layout from a result set's columns.
pub fn layout_of_columns(columns: &[(String, SqlType)]) -> Layout {
    Layout {
        name: "EXPORT".into(),
        fields: columns
            .iter()
            .map(|(name, ty)| FieldDef::new(name.clone(), ty.to_legacy()))
            .collect(),
    }
}
