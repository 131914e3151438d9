//! The TCP server lifecycle: [`ServerHandle`] over the reactor.
//!
//! `Virtualizer::listen_tcp` binds the port and hands the (nonblocking)
//! listener to the [`crate::reactor`]: a fixed pool of event-loop
//! threads multiplexes every connection, so ten thousand keepalive
//! sessions cost the same thread count as sixteen. The returned handle
//! owns the reactor: [`ServerHandle::shutdown`] stops everything and
//! tears down live sessions (aborting their jobs);
//! [`ServerHandle::drain`] closes the front door, refuses new logons
//! and jobs, blocks on the node's job-drained condvar until in-flight
//! jobs complete (no poll loop), then closes.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::time::Instant;

use crate::gateway::Virtualizer;
use crate::reactor::Reactor;

/// A running TCP server: the reactor's event-loop threads plus its
/// dispatch pool. Dropping the handle shuts the server down (stop flag
/// + join), so no detached threads outlive it.
pub struct ServerHandle {
    v: Virtualizer,
    addr: SocketAddr,
    reactor: Option<Reactor>,
}

impl Virtualizer {
    /// Bind `addr` and start serving connections on the reactor. The
    /// returned handle owns every spawned thread; drop it (or call
    /// [`ServerHandle::shutdown`] / [`ServerHandle::drain`]) to stop.
    pub fn listen_tcp(&self, addr: &str) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let reactor = Reactor::start(self.clone(), listener)?;
        Ok(ServerHandle {
            v: self.clone(),
            addr: local,
            reactor: Some(reactor),
        })
    }
}

impl ServerHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The node this server fronts.
    pub fn virtualizer(&self) -> &Virtualizer {
        &self.v
    }

    /// Stop immediately: no new connections, live sessions are told the
    /// server is shutting down and torn down (their in-flight jobs are
    /// aborted with full resource release), all threads joined.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Graceful drain: stop accepting and refuse new logons/jobs, let
    /// in-flight jobs finish (bounded by the config's `drain_timeout`),
    /// then close. Returns `true` when every job completed in time,
    /// `false` when the timeout expired and stragglers were aborted.
    pub fn drain(mut self) -> bool {
        self.v.begin_drain();
        if let Some(reactor) = &self.reactor {
            // Close the port now — drain refuses new connections while
            // existing sessions run their jobs to completion.
            reactor.stop_accepting();
        }
        let deadline = Instant::now() + self.v.config().drain_timeout;
        let drained = self.v.wait_jobs_drained(deadline);
        self.stop();
        // The last chance to drop what earlier teardowns could not.
        self.v.node.drop_orphans();
        drained
    }

    /// Idempotent stop: shut the reactor down and join every thread.
    fn stop(&mut self) {
        if let Some(reactor) = self.reactor.take() {
            reactor.shutdown();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}
