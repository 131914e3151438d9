//! The session layer: the per-connection protocol state machine, the
//! node-wide session registry, and disconnect-safe teardown.
//!
//! The protocol logic lives in `SessionCore`, an explicit state
//! machine driven one frame at a time. Each frame either produces an
//! inline reply (logon, keepalive, logoff, protocol errors — nothing
//! that can block) or a `DispatchCall`: a self-contained description
//! of blocking-capable gateway work (loads, chunks, exports, stats)
//! that the reactor hands to a fixed dispatch pool, feeding the
//! completion back through `SessionCore::complete`.
//!
//! A successful logon registers a `SessionEntry` in the node's
//! `SessionRegistry` (bounded by `max_sessions` — a full table
//! answers with retryable `SERVER_BUSY`). The entry tracks the jobs
//! the session *owns* (its `BeginLoad`s and `BeginExport`s); when the
//! session ends — explicit logoff, peer disconnect, idle timeout, or
//! server shutdown — `close_session` aborts whatever those jobs
//! still have in flight, so a yanked cable never leaks credits, memory
//! reservations, staging tables, or staged objects.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use etlv_protocol::errcode::ErrCode;
use etlv_protocol::frame::Frame;
use etlv_protocol::message::{Message, SessionRole};
use parking_lot::Mutex;

use crate::gateway::{error_msg, Virtualizer};
use crate::obs::{LockSiteObs, TenantObs, TrackedMutex};

/// One logged-on session's registry entry.
pub(crate) struct SessionEntry {
    pub(crate) id: u32,
    pub(crate) role: SessionRole,
    /// Tokens of jobs this session opened and has not yet completed.
    /// Whatever is still here at teardown gets aborted.
    pub(crate) jobs: Mutex<Vec<u64>>,
    /// The tenant metric block interned from the logon username — every
    /// job this session opens charges its counts here.
    pub(crate) tenant: Arc<TenantObs>,
}

/// The node-wide active-session table. The table mutex is tracked (site
/// `gateway.sessions`): every logon, teardown, and gauge refresh crosses
/// it, so contention here shows up directly in the Profile report.
pub(crate) struct SessionRegistry {
    sessions: TrackedMutex<HashMap<u32, Arc<SessionEntry>>>,
    max_sessions: usize,
}

impl SessionRegistry {
    pub(crate) fn new(max_sessions: usize, site: Arc<LockSiteObs>) -> SessionRegistry {
        SessionRegistry {
            sessions: TrackedMutex::new(site, HashMap::new()),
            max_sessions,
        }
    }

    /// Register a freshly logged-on session; `false` when the table is
    /// at `max_sessions` (the caller answers `SERVER_BUSY`).
    pub(crate) fn register(&self, entry: Arc<SessionEntry>) -> bool {
        let mut sessions = self.sessions.lock();
        if sessions.len() >= self.max_sessions {
            return false;
        }
        sessions.insert(entry.id, entry);
        true
    }

    pub(crate) fn unregister(&self, id: u32) -> Option<Arc<SessionEntry>> {
        self.sessions.lock().remove(&id)
    }

    /// Sessions currently registered.
    pub(crate) fn active(&self) -> usize {
        self.sessions.lock().len()
    }
}

/// What [`SessionCore::on_frame`] wants done with a frame.
pub(crate) enum Step {
    /// Reply computed inline — send `frame`; `end` closes the session
    /// after the bytes are queued (fatal error or clean logoff).
    Reply { frame: Frame, end: bool },
    /// Blocking-capable gateway work. Run [`DispatchCall::run`] off
    /// the event loop, then feed the returned reply through
    /// [`SessionCore::complete`].
    Dispatch(DispatchCall),
}

/// A self-contained unit of gateway work lifted out of the session
/// loop: the parsed message plus everything the handlers need, captured
/// at parse time so the call can run on any thread.
pub(crate) struct DispatchCall {
    msg: Message,
    job_token: u64,
    tenant: Arc<TenantObs>,
    /// Session id the reply frame must carry (id at parse time).
    pub(crate) session_id: u32,
    /// Sequence number the reply frame must carry.
    pub(crate) seq: u32,
}

impl DispatchCall {
    /// Execute the gateway handler. May block (credit backpressure,
    /// pipeline drain, CDW apply) — never call on a reactor loop
    /// thread.
    pub(crate) fn run(self, v: &Virtualizer) -> Message {
        match self.msg {
            Message::Sql { text } => v.handle_sql(&text),
            Message::BeginLoad(spec) => v.handle_begin_load(spec, self.tenant),
            Message::DataChunk(chunk) => v.handle_data_chunk(self.job_token, chunk),
            Message::EndLoad(end) => v.handle_end_load(self.job_token, &end.dml),
            Message::BeginExport(spec) => v.handle_begin_export(spec, self.tenant),
            Message::ExportChunkReq { index } => v.handle_export_req(self.job_token, index),
            Message::Introspect { topic, format } => {
                Message::IntrospectReply(v.introspect(topic, format))
            }
            other => error_msg(
                ErrCode::PROTOCOL,
                format!("unexpected message {:?}", other.kind()),
                true,
            ),
        }
    }
}

/// The per-connection protocol state machine: sequence counter, logon
/// state, role, and the implicit job binding legacy data sessions carry.
/// The reactor owns the I/O and pushes one frame at a time through
/// [`on_frame`](SessionCore::on_frame).
pub(crate) struct SessionCore {
    seq: u32,
    session: Option<Arc<SessionEntry>>,
    role: SessionRole,
    job_token: u64,
    clean: bool,
}

impl SessionCore {
    pub(crate) fn new() -> SessionCore {
        SessionCore {
            seq: 0,
            session: None,
            role: SessionRole::Control,
            job_token: 0,
            clean: false,
        }
    }

    /// The wire session id replies carry (0 before logon completes).
    pub(crate) fn session_id(&self) -> u32 {
        self.session.as_ref().map(|s| s.id).unwrap_or(0)
    }

    /// Advance the state machine by one received frame.
    /// `shutting_down` is the owning server's stop flag — it turns new
    /// logons away; in-flight sessions finish their current exchange.
    pub(crate) fn on_frame(&mut self, v: &Virtualizer, frame: &Frame, shutting_down: bool) -> Step {
        let node = &v.node;
        // Replies echo the session id as of parse time: a LogonOk
        // frame still carries session 0, the id travels in its payload.
        let session_id = self.session_id();
        let msg = match Message::from_frame(frame) {
            Ok(m) => m,
            Err(e) => {
                let reply = error_msg(ErrCode::PROTOCOL, e.to_string(), true);
                return Step::Reply {
                    frame: reply.into_frame(session_id, self.seq),
                    end: true,
                };
            }
        };
        self.seq = self.seq.wrapping_add(1);
        let seq = self.seq;
        let reply = match msg {
            // A second logon would register a fresh entry and orphan the
            // first; teardown after this fatal reply closes the one real
            // session.
            Message::Logon(_) if self.session.is_some() => {
                error_msg(ErrCode::PROTOCOL, "session already logged on", true)
            }
            Message::Logon(logon) => {
                if logon.username.is_empty() || logon.password.is_empty() {
                    error_msg(ErrCode::LOGON_FAILED, "missing credentials", true)
                } else if node.draining.load(Ordering::Relaxed) || shutting_down {
                    error_msg(ErrCode::SHUTTING_DOWN, "server is shutting down", true)
                } else {
                    let id = node.next_session.fetch_add(1, Ordering::Relaxed);
                    // The logon username *is* the tenant identity:
                    // one interned metric block per distinct user.
                    let tenant = node.obs.registry.tenant(&logon.username);
                    let entry = Arc::new(SessionEntry {
                        id,
                        role: logon.role,
                        jobs: Mutex::new(Vec::new()),
                        tenant,
                    });
                    if !node.registry.register(Arc::clone(&entry)) {
                        node.obs.gateway.admission_rejections.inc();
                        entry.tenant.admission_rejections.inc();
                        error_msg(
                            ErrCode::SERVER_BUSY,
                            format!(
                                "session limit reached ({} active), retry later",
                                node.config.max_sessions
                            ),
                            true,
                        )
                    } else {
                        node.obs
                            .gateway
                            .active_sessions
                            .set(node.registry.active() as u64);
                        self.role = logon.role;
                        self.job_token = logon.job_token;
                        self.session = Some(entry);
                        node.obs.gateway.sessions_opened.inc();
                        node.obs.journal.emit(
                            "session.logon",
                            self.job_token,
                            id as u64,
                            0,
                            0,
                            Duration::ZERO,
                        );
                        Message::LogonOk(etlv_protocol::message::LogonOk {
                            session: id,
                            banner: "etlv virtualizer 1.0 (legacy protocol)".into(),
                        })
                    }
                }
            }
            Message::DataChunk(_) if self.role != SessionRole::Data => {
                error_msg(ErrCode::PROTOCOL, "data chunk on a control session", true)
            }
            Message::Logoff => {
                self.clean = true;
                return Step::Reply {
                    frame: Message::LogoffOk.into_frame(session_id, seq),
                    end: true,
                };
            }
            Message::Keepalive => Message::Keepalive,
            msg @ (Message::Sql { .. }
            | Message::BeginLoad(_)
            | Message::DataChunk(_)
            | Message::EndLoad(_)
            | Message::BeginExport(_)
            | Message::ExportChunkReq { .. }
            | Message::Introspect { .. }) => match &self.session {
                Some(s) => {
                    return Step::Dispatch(DispatchCall {
                        msg,
                        job_token: self.job_token,
                        tenant: Arc::clone(&s.tenant),
                        session_id,
                        seq,
                    });
                }
                // Jobs are owned (and torn down) through the session
                // entry: without one a BeginLoad would open a job no
                // disconnect could ever abort.
                None => error_msg(ErrCode::LOGON_FAILED, "request before logon", true),
            },
            other => error_msg(
                ErrCode::PROTOCOL,
                format!("unexpected message {:?}", other.kind()),
                true,
            ),
        };
        let (frame, end) = self.complete(reply, session_id, seq);
        Step::Reply { frame, end }
    }

    /// Absorb a reply (inline or dispatched): job-ownership
    /// bookkeeping, then the wire frame. `end` is true when the reply
    /// is a fatal error — the driver sends it and closes.
    pub(crate) fn complete(&mut self, reply: Message, session_id: u32, seq: u32) -> (Frame, bool) {
        match &reply {
            Message::BeginLoadOk { load_token } => {
                self.job_token = *load_token;
                if let Some(s) = &self.session {
                    s.jobs.lock().push(*load_token);
                }
            }
            Message::BeginExportOk(ok) => {
                self.job_token = ok.export_token;
                if let Some(s) = &self.session {
                    s.jobs.lock().push(ok.export_token);
                }
            }
            // A LoadReport means EndLoad retired the job — it is no
            // longer the session's to abort.
            Message::LoadReport(_) => {
                if let Some(s) = &self.session {
                    s.jobs.lock().retain(|t| *t != self.job_token);
                }
            }
            _ => {}
        }
        let end = matches!(&reply, Message::Error(e) if e.fatal);
        (reply.into_frame(session_id, seq), end)
    }

    /// The farewell frame for an idle-timeout close. Charges the
    /// timeout to the session's tenant — an idle reap is the *tenant's*
    /// availability problem, not just the node's.
    pub(crate) fn idle_timeout_frame(&self) -> Frame {
        if let Some(s) = &self.session {
            s.tenant.idle_timeouts.inc();
        }
        error_msg(ErrCode::IDLE_TIMEOUT, "session idle timeout", true)
            .into_frame(self.session_id(), self.seq)
    }

    /// The farewell frame for a server-shutdown close.
    pub(crate) fn shutdown_frame(&self) -> Frame {
        error_msg(ErrCode::SHUTTING_DOWN, "server is shutting down", true)
            .into_frame(self.session_id(), self.seq)
    }

    /// Tear down the session if one is registered. Idempotent — safe
    /// to call from both the happy path and error unwinding.
    pub(crate) fn finish(&mut self, v: &Virtualizer) {
        if let Some(entry) = self.session.take() {
            close_session(v, &entry, self.clean);
        }
    }
}

/// Tear a session down: abort every job it still owns (releasing the
/// jobs' credits, memory, and staging residue), deregister it, and keep
/// the session gauges truthful. `clean` distinguishes an explicit logoff
/// — which retires exports silently — from a disconnect/timeout.
pub(crate) fn close_session(v: &Virtualizer, entry: &SessionEntry, clean: bool) {
    let node = &v.node;
    let owned: Vec<u64> = std::mem::take(&mut *entry.jobs.lock());
    for token in owned {
        v.abort_job(token, clean);
    }
    node.registry.unregister(entry.id);
    node.obs.gateway.sessions_closed.inc();
    node.obs
        .gateway
        .active_sessions
        .set(node.registry.active() as u64);
    node.obs.journal.emit(
        "session.close",
        0,
        entry.id as u64,
        u64::from(clean),
        u64::from(entry.role == SessionRole::Data),
        Duration::ZERO,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u32) -> Arc<SessionEntry> {
        Arc::new(SessionEntry {
            id,
            role: SessionRole::Control,
            jobs: Mutex::new(Vec::new()),
            tenant: crate::obs::Obs::default().registry.tenant("t"),
        })
    }

    #[test]
    fn registry_enforces_max_sessions() {
        let site = crate::obs::Obs::default()
            .registry
            .lock_site("gateway.sessions");
        let reg = SessionRegistry::new(2, site);
        assert!(reg.register(entry(1)));
        assert!(reg.register(entry(2)));
        assert!(!reg.register(entry(3)), "third session refused");
        assert_eq!(reg.active(), 2);
        assert!(reg.unregister(1).is_some());
        assert!(reg.register(entry(3)), "slot freed by unregister");
        assert_eq!(reg.active(), 2);
        assert!(reg.unregister(99).is_none());
    }
}
