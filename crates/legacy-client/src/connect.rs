//! Connection factories: how the client reaches a server.
//!
//! Repointing a legacy pipeline at the virtualizer is exactly a connector
//! swap — the job scripts do not change.

use std::io;

use etlv_protocol::transport::{TcpTransport, Transport};

/// A factory producing fresh transport connections (one per session).
pub trait Connect: Send + Sync {
    /// Open a new connection.
    fn connect(&self) -> io::Result<Box<dyn Transport>>;
}

/// Connects over TCP to a fixed address.
pub struct TcpConnector {
    addr: String,
}

impl TcpConnector {
    /// Connector for `addr` (e.g. `127.0.0.1:4400`).
    pub fn new(addr: impl Into<String>) -> TcpConnector {
        TcpConnector { addr: addr.into() }
    }
}

impl Connect for TcpConnector {
    fn connect(&self) -> io::Result<Box<dyn Transport>> {
        Ok(Box::new(TcpTransport::connect(&self.addr)?))
    }
}

/// Adapts any closure into a connector — for a connector that owns
/// state, such as the server it reaches or a fault-injecting wrapper
/// around each transport it opens.
pub struct FnConnector<F>(pub F);

impl<F> Connect for FnConnector<F>
where
    F: Fn() -> io::Result<Box<dyn Transport>> + Send + Sync,
{
    fn connect(&self) -> io::Result<Box<dyn Transport>> {
        (self.0)()
    }
}
