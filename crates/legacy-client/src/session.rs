//! A logged-on protocol session.

use std::io;
use std::time::Duration;

use etlv_protocol::message::{
    Format, IntrospectReply, Logon, Message, SessionRole, SqlResult, Topic,
};
use etlv_protocol::trace::TraceContext;
use etlv_protocol::transport::Transport;

use crate::connect::Connect;
use crate::error::ClientError;

/// A live session: transport plus session/sequence bookkeeping.
pub struct Session {
    transport: Box<dyn Transport>,
    session_id: u32,
    seq: u32,
    read_timeout: Option<Duration>,
}

impl Session {
    /// Connect and log on without a trace context — the legacy client
    /// behavior; the gateway mints a fresh trace for the session's jobs.
    pub fn logon(
        connector: &dyn Connect,
        user: &str,
        password: &str,
        role: SessionRole,
        job_token: u64,
    ) -> Result<Session, ClientError> {
        Session::logon_traced(connector, user, password, role, job_token, None)
    }

    /// Connect and log on, optionally propagating a client-minted
    /// [`TraceContext`] so the session's server-side spans join the
    /// client's trace.
    pub fn logon_traced(
        connector: &dyn Connect,
        user: &str,
        password: &str,
        role: SessionRole,
        job_token: u64,
        trace: Option<TraceContext>,
    ) -> Result<Session, ClientError> {
        let transport = connector.connect()?;
        let mut session = Session {
            transport,
            session_id: 0,
            seq: 0,
            read_timeout: None,
        };
        let reply = session.request(Message::Logon(Logon {
            username: user.to_string(),
            password: password.to_string(),
            role,
            job_token,
            trace,
        }))?;
        match reply {
            Message::LogonOk(ok) => {
                session.session_id = ok.session;
                Ok(session)
            }
            other => Err(unexpected("LogonOk", &other)),
        }
    }

    /// Send a message and wait for the next reply.
    pub fn request(&mut self, msg: Message) -> Result<Message, ClientError> {
        self.send(msg)?;
        self.recv()
    }

    /// Send without waiting.
    pub fn send(&mut self, msg: Message) -> Result<(), ClientError> {
        self.seq = self.seq.wrapping_add(1);
        let frame = msg.into_frame(self.session_id, self.seq);
        self.transport.send(&frame)?;
        Ok(())
    }

    /// Bound every subsequent [`recv`](Session::recv) by `timeout`: if no
    /// reply arrives in time the call fails with [`ClientError::Timeout`]
    /// instead of blocking forever — the difference between a job that
    /// reports a silent link and one that hangs on it. A connection the
    /// peer closed fails at once as "connection closed", timeout or not.
    /// `None` (the default) restores unbounded blocking reads.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) {
        self.read_timeout = timeout;
    }

    /// Receive the next message; server [`Message::Error`]s become
    /// [`ClientError::Server`]. Honors the configured read timeout.
    pub fn recv(&mut self) -> Result<Message, ClientError> {
        let frame = match self.transport.recv(self.read_timeout) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Err(ClientError::Protocol("connection closed".into())),
            Err(e) => {
                return Err(match self.read_timeout {
                    Some(t) if e.kind() == io::ErrorKind::TimedOut => ClientError::Timeout(t),
                    _ => e.into(),
                })
            }
        };
        let msg = Message::from_frame(&frame).map_err(|e| ClientError::Protocol(e.to_string()))?;
        if let Message::Error(e) = &msg {
            return Err(ClientError::Server {
                code: e.code,
                message: e.message.clone(),
            });
        }
        Ok(msg)
    }

    /// Run a SQL statement on this (control) session.
    pub fn sql(&mut self, text: &str) -> Result<SqlResult, ClientError> {
        match self.request(Message::Sql {
            text: text.to_string(),
        })? {
            Message::SqlResult(r) => Ok(r),
            other => Err(unexpected("SqlResult", &other)),
        }
    }

    /// Request one of the node's monitoring documents: metrics snapshot,
    /// SLO health, or a job's trace (see
    /// [`Topic`]; [`Format`] says which renderings each has). For a
    /// trace, `found` is false when the job's events have aged out of
    /// the server's journal ring.
    pub fn introspect(
        &mut self,
        topic: Topic,
        format: Format,
    ) -> Result<IntrospectReply, ClientError> {
        match self.request(Message::Introspect { topic, format })? {
            Message::IntrospectReply(reply) => Ok(reply),
            other => Err(unexpected("IntrospectReply", &other)),
        }
    }

    /// Log off cleanly (best-effort; consumes the session).
    pub fn logoff(mut self) {
        let _ = self.send(Message::Logoff);
        let _ = self.transport.recv(Some(Duration::from_millis(200)));
    }
}

/// Build the "expected X, got Y" protocol error.
pub fn unexpected(expected: &str, got: &Message) -> ClientError {
    ClientError::Protocol(format!("expected {expected}, got {:?}", got.kind()))
}
