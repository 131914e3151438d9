//! The reactor front end: a fixed pool of event-loop threads
//! multiplexing every TCP session (DESIGN §10).
//!
//! One OS thread per connection is fine at 16 legacy job slots and
//! hopeless at 10k keepalive sessions. Here a small number of loops (`LOOP_THREADS`) own all the sockets through one
//! epoll instance each; every connection is a `SessionCore` state
//! machine fed whole frames by the nonblocking decoder and drained
//! through a resumable [`FrameWriter`]. Nothing on a loop thread may
//! block:
//!
//! - inline steps (logon, keepalive, logoff, protocol errors) are
//!   answered on the loop;
//! - blocking-capable gateway work travels as a `DispatchCall` to a
//!   fixed dispatch pool and comes back as a `LoopMsg::Complete`
//!   through the owning loop's mailbox + waker pipe.
//!
//! One dispatch may be in flight per connection; while it runs the
//! connection's read interest is dropped, so the kernel socket buffer
//! is the backpressure and frame order is preserved without queues.
//!
//! Each connection has one deadline — its idle deadline while serving,
//! the end of the flush grace once closing — and each loop keeps a heap
//! of exact deadlines and sleeps until the earliest. A heap entry is a
//! hint revalidated when it fires, so a keepalive that pushes the idle
//! deadline out costs one field write, not a heap operation.
//!
//! On shutdown a connection with a dispatch in flight is always waited
//! for (the reply is delivered, then the `SHUTTING_DOWN` farewell, then
//! the close); idle connections get the farewell immediately. Every
//! close, shutdown included, gets the same bounded grace to drain.

mod poll;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use etlv_protocol::frame::{Frame, FrameDecoder};
use etlv_protocol::message::Message;
use etlv_protocol::nio::{pump_frames, FrameWriter, ReadStatus};
use parking_lot::Mutex;

use crate::gateway::Virtualizer;
use crate::obs::ReactorObs;
use crate::session::{DispatchCall, SessionCore, Step};
use poll::{Event, Interest, Poller};

/// Token of each loop's waker pipe.
const TOKEN_WAKER: u64 = 0;
/// Token of the listener registration (loop 0 only) — also its heap
/// token while parked in accept backoff.
const TOKEN_LISTENER: u64 = 1;
/// First connection token; everything below is reserved. Tokens are
/// never reused, so a heap entry cannot outlive its connection into a
/// successor's.
const TOKEN_CONN_BASE: u64 = 16;

/// How long a closing connection — whatever closes it — gets to drain
/// its last bytes before the loop force-closes it.
const SHUTDOWN_FLUSH_GRACE: Duration = Duration::from_secs(2);

/// Accept-error backoff bounds (EMFILE and friends). The listener is
/// parked — deregistered from epoll — between retries, so a starved fd
/// table costs a timer, not a spin.
const ACCEPT_BACKOFF_BASE: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_secs(1);

/// Max accepts drained per listener readiness event. Level-triggered
/// epoll re-reports a still-pending backlog, so capping a burst only
/// bounds one iteration's work — it never loses connections.
const ACCEPT_BURST: usize = 256;

/// Scratch read-buffer size per loop.
const SCRATCH_BYTES: usize = 64 * 1024;

/// Cross-thread mail for one event loop.
enum LoopMsg {
    /// A freshly accepted socket handed over by loop 0.
    Conn(TcpStream),
    /// A dispatch finished; feed the reply through
    /// [`SessionCore::complete`] for the connection under `token`.
    Complete {
        token: u64,
        session_id: u32,
        seq: u32,
        reply: Message,
    },
}

/// Wakes a loop blocked in `epoll_wait` by making its pipe readable.
struct Waker {
    tx: UnixStream,
}

impl Waker {
    fn wake(&self) {
        // A full pipe already guarantees a pending wakeup; errors on a
        // torn-down loop are equally ignorable.
        let _ = (&self.tx).write(&[1]);
    }
}

/// The cross-thread face of one event loop: its mailbox and waker.
struct LoopShared {
    queue: Mutex<Vec<LoopMsg>>,
    waker: Waker,
}

/// State shared by the handle, the loops, and the dispatch pool.
struct Shared {
    /// Raised once: every loop tears its connections down and exits.
    stop: AtomicBool,
    /// Lowered to stop accepting (drain) while existing sessions run.
    accept_open: AtomicBool,
    /// Registered connections across all loops (drives `reactor.conns`).
    conns: AtomicUsize,
    loops: Vec<LoopShared>,
}

/// Event-loop threads. Each loop multiplexes its share of the connection
/// fds with epoll; connection count is independent of this number.
const LOOP_THREADS: usize = 2;

/// One unit of blocking-capable work in the dispatch channel.
struct DispatchJob {
    loop_id: usize,
    token: u64,
    call: DispatchCall,
}

/// A running reactor: the event-loop threads plus the dispatch pool.
/// [`Reactor::shutdown`] (or drop) stops everything and joins.
pub(crate) struct Reactor {
    shared: Arc<Shared>,
    loops: Vec<JoinHandle<()>>,
    dispatchers: Vec<JoinHandle<()>>,
    dispatch_tx: Option<Sender<DispatchJob>>,
}

impl Reactor {
    /// Spawn the loops and the dispatch pool. `listener` must already
    /// be nonblocking; loop 0 owns it.
    pub(crate) fn start(v: Virtualizer, listener: TcpListener) -> io::Result<Reactor> {
        let config = v.config();
        let n_loops = LOOP_THREADS;
        // Sized from the host: enough dispatchers that a burst of jobs
        // progresses concurrently even on a small box, capped so a large
        // one does not spend threads it cannot use.
        let n_dispatch = crate::config::host_cores().clamp(8, 32);
        let idle_timeout = Some(config.session_idle_timeout).filter(|timeout| !timeout.is_zero());

        let mut loop_shareds = Vec::with_capacity(n_loops);
        let mut waker_rxs = Vec::with_capacity(n_loops);
        for _ in 0..n_loops {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            loop_shareds.push(LoopShared {
                queue: Mutex::new(Vec::new()),
                waker: Waker { tx },
            });
            waker_rxs.push(rx);
        }
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            accept_open: AtomicBool::new(true),
            conns: AtomicUsize::new(0),
            loops: loop_shareds,
        });
        v.obs().reactor.loops.set(n_loops as u64);

        let (dispatch_tx, dispatch_rx) = std::sync::mpsc::channel::<DispatchJob>();
        let dispatch_rx = Arc::new(Mutex::new(dispatch_rx));
        let mut dispatchers = Vec::with_capacity(n_dispatch);
        for i in 0..n_dispatch {
            let v = v.clone();
            let rx = Arc::clone(&dispatch_rx);
            let shared = Arc::clone(&shared);
            dispatchers.push(
                std::thread::Builder::new()
                    .name(format!("etlv-dispatch-{i}"))
                    .spawn(move || dispatch_worker(v, rx, shared))?,
            );
        }

        let mut listener = Some(listener);
        let mut loops = Vec::with_capacity(n_loops);
        for (id, waker_rx) in waker_rxs.into_iter().enumerate() {
            let poller = Poller::new()?;
            poller.add(
                waker_rx.as_raw_fd(),
                TOKEN_WAKER,
                Interest {
                    read: true,
                    write: false,
                },
            )?;
            let loop_listener = if id == 0 { listener.take() } else { None };
            if let Some(l) = &loop_listener {
                poller.add(
                    l.as_raw_fd(),
                    TOKEN_LISTENER,
                    Interest {
                        read: true,
                        write: false,
                    },
                )?;
            }
            let mut el = EventLoop {
                id,
                n_loops,
                v: v.clone(),
                shared: Arc::clone(&shared),
                poller,
                waker_rx,
                listener: loop_listener,
                listener_parked: false,
                accept_backoff: ACCEPT_BACKOFF_BASE,
                rr: id,
                dispatch_tx: dispatch_tx.clone(),
                conns: HashMap::new(),
                timers: BinaryHeap::new(),
                next_token: TOKEN_CONN_BASE,
                idle_timeout,
                scratch: vec![0; SCRATCH_BYTES],
                pump_buf: Vec::new(),
                shutting_down: false,
                obs: v.obs().reactor.clone(),
            };
            loops.push(
                std::thread::Builder::new()
                    .name(format!("etlv-loop-{id}"))
                    .spawn(move || el.run())?,
            );
        }

        Ok(Reactor {
            shared,
            loops,
            dispatchers,
            dispatch_tx: Some(dispatch_tx),
        })
    }

    /// Close the front door: the listener is dropped (new connects are
    /// refused) while existing sessions keep running. Used by drain.
    pub(crate) fn stop_accepting(&self) {
        self.shared.accept_open.store(false, Ordering::SeqCst);
        self.shared.loops[0].waker.wake();
    }

    /// Stop everything and join: farewell + close every connection
    /// (in-flight dispatches are waited for), then tear down the pool.
    pub(crate) fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for ls in &self.shared.loops {
            ls.waker.wake();
        }
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
        // Loops are gone; dropping the sender ends the workers' recv
        // loop. Order matters — workers must outlive the loops that
        // wait on their completions.
        drop(self.dispatch_tx.take());
        for handle in self.dispatchers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Dispatch-pool worker: run blocking-capable gateway calls, post the
/// reply back to the owning loop's mailbox.
fn dispatch_worker(v: Virtualizer, rx: Arc<Mutex<Receiver<DispatchJob>>>, shared: Arc<Shared>) {
    loop {
        // Release the receiver lock before running the (possibly slow)
        // handler so the pool drains the channel concurrently.
        let job = {
            let guard = rx.lock();
            guard.recv()
        };
        let Ok(job) = job else { return };
        let (session_id, seq) = (job.call.session_id, job.call.seq);
        let reply = job.call.run(&v);
        let ls = &shared.loops[job.loop_id];
        ls.queue.lock().push(LoopMsg::Complete {
            token: job.token,
            session_id,
            seq,
            reply,
        });
        ls.waker.wake();
    }
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    core: SessionCore,
    decoder: FrameDecoder,
    /// Decoded frames not yet fed to the state machine (only grows
    /// while a dispatch is in flight with bytes already pumped).
    inbox: VecDeque<Frame>,
    writer: FrameWriter,
    /// Interest set currently registered with epoll.
    interest: Interest,
    /// A dispatch is in flight; read interest is off (backpressure).
    dispatching: bool,
    /// Socket died while a dispatch was in flight: the fd is
    /// deregistered but the entry stays until the completion lands, so
    /// job-ownership bookkeeping (`SessionCore::complete`) still runs
    /// and teardown aborts exactly the jobs the session still owns.
    dead: bool,
    /// Farewell queued; close once the writer drains (or grace expires).
    closing: bool,
    /// Peer half-closed its side; serve what's buffered, then close.
    read_closed: bool,
    /// Mirror of `!writer.is_empty()` for the `conns_writing` gauge.
    was_writing: bool,
    /// The one instant the loop acts on this connection unprompted: the
    /// idle deadline while serving (`None` with idle timeouts off), the
    /// end of the flush grace once closing.
    deadline: Option<Instant>,
    /// Instant of the connection's live heap entry; entries at any
    /// other instant are stale and skipped.
    armed: Option<Instant>,
}

impl Conn {
    /// Queue `frame`; a final one starts the close, and from then on
    /// the deadline is the end of the flush grace, whatever was armed.
    fn queue(&mut self, frame: &Frame, end: bool) {
        self.writer.queue(frame);
        if end {
            self.closing = true;
            self.deadline = Some(Instant::now() + SHUTDOWN_FLUSH_GRACE);
        }
    }
}

/// What to do with a connection after processing.
enum Disposition {
    Keep,
    Close,
}

/// One event-loop thread's state.
struct EventLoop {
    id: usize,
    n_loops: usize,
    v: Virtualizer,
    shared: Arc<Shared>,
    poller: Poller,
    waker_rx: UnixStream,
    /// Loop 0 owns the listener until drain/shutdown closes it.
    listener: Option<TcpListener>,
    /// Listener deregistered for accept-error backoff.
    listener_parked: bool,
    accept_backoff: Duration,
    /// Round-robin cursor for placing accepted connections.
    rr: usize,
    dispatch_tx: Sender<DispatchJob>,
    conns: HashMap<u64, Conn>,
    /// `(deadline, token)` entries, earliest on top: connection
    /// deadlines and the parked listener's backoff.
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
    next_token: u64,
    /// `None` when idle timeouts are off.
    idle_timeout: Option<Duration>,
    scratch: Vec<u8>,
    pump_buf: Vec<Frame>,
    shutting_down: bool,
    obs: ReactorObs,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(256);
        loop {
            // Sleep until the earliest deadline; with none armed, until
            // a socket or the waker stirs.
            let timeout = self
                .timers
                .peek()
                .map(|Reverse((at, _))| at.saturating_duration_since(Instant::now()));
            if self.poller.wait(&mut events, timeout).is_err() {
                // A broken epoll fd is unrecoverable; tear down rather
                // than spin.
                break;
            }
            let t0 = Instant::now();
            self.obs.ready_batch.record(events.len() as u64);
            for &ev in &events {
                match ev.token {
                    TOKEN_WAKER => {
                        self.obs.wakeups.inc();
                        self.drain_waker();
                    }
                    TOKEN_LISTENER => self.accept_burst(),
                    token => self.conn_event(token, ev),
                }
            }
            self.drain_queue();
            let now = Instant::now();
            while let Some(&Reverse((at, token))) = self.timers.peek() {
                if at > now {
                    break;
                }
                self.timers.pop();
                self.timer_fired(token, at);
            }
            self.check_stop();
            if self.shutting_down && self.conns.is_empty() {
                break;
            }
            self.obs.loop_iter_us.record_duration(t0.elapsed());
        }
        for (_, conn) in std::mem::take(&mut self.conns) {
            self.retire(conn);
        }
    }

    /// Drain the waker pipe so level-triggered epoll quiets down.
    fn drain_waker(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.waker_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Process the cross-thread mailbox: handed-over sockets and
    /// dispatch completions.
    fn drain_queue(&mut self) {
        let msgs = std::mem::take(&mut *self.shared.loops[self.id].queue.lock());
        for msg in msgs {
            match msg {
                LoopMsg::Conn(stream) => {
                    if self.shutting_down {
                        drop(stream);
                    } else {
                        self.install(stream);
                    }
                }
                LoopMsg::Complete {
                    token,
                    session_id,
                    seq,
                    reply,
                } => self.on_complete(token, session_id, seq, reply),
            }
        }
    }

    /// Accept a burst of connections (loop 0 only).
    fn accept_burst(&mut self) {
        if self.listener_parked || self.shutting_down {
            return;
        }
        for _ in 0..ACCEPT_BURST {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.accept_backoff = ACCEPT_BACKOFF_BASE;
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        // Accepted but unusable: not a connection —
                        // count the setup failure and move on.
                        self.v.obs().server.conn_setup_errors.inc();
                        continue;
                    }
                    let target = self.rr % self.n_loops;
                    self.rr = self.rr.wrapping_add(1);
                    if target == self.id {
                        self.install(stream);
                    } else {
                        let ls = &self.shared.loops[target];
                        ls.queue.lock().push(LoopMsg::Conn(stream));
                        ls.waker.wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Persistent accept errors (EMFILE when the fd
                    // table is full) would otherwise re-report every
                    // poll: park the listener and back off
                    // exponentially.
                    self.v.obs().server.accept_errors.inc();
                    self.obs.accept_backoffs.inc();
                    self.park_listener();
                    return;
                }
            }
        }
    }

    fn park_listener(&mut self) {
        if let Some(listener) = &self.listener {
            let _ = self.poller.remove(listener.as_raw_fd());
            self.listener_parked = true;
            self.back_off_listener();
        }
    }

    /// Retry the parked listener after the current backoff, doubling it.
    fn back_off_listener(&mut self) {
        let at = Instant::now() + self.accept_backoff;
        self.timers.push(Reverse((at, TOKEN_LISTENER)));
        self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_CAP);
    }

    fn unpark_listener(&mut self) {
        if !self.listener_parked || self.shutting_down {
            return;
        }
        if !self.shared.accept_open.load(Ordering::Relaxed) {
            return; // check_stop will close it
        }
        let Some(listener) = &self.listener else {
            return;
        };
        let fd = listener.as_raw_fd();
        if self
            .poller
            .add(
                fd,
                TOKEN_LISTENER,
                Interest {
                    read: true,
                    write: false,
                },
            )
            .is_ok()
        {
            self.listener_parked = false;
            self.accept_burst();
        } else {
            // Still starved; keep backing off.
            self.back_off_listener();
        }
    }

    /// Register a fresh socket. A connection only counts once it is
    /// fully established — registered and ready to serve.
    fn install(&mut self, stream: TcpStream) {
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .add(
                stream.as_raw_fd(),
                token,
                Interest {
                    read: true,
                    write: false,
                },
            )
            .is_err()
        {
            self.v.obs().server.conn_setup_errors.inc();
            return;
        }
        self.v.obs().server.connections.inc();
        let n = self.shared.conns.fetch_add(1, Ordering::Relaxed) + 1;
        self.obs.conns.set(n as u64);
        let mut conn = Conn {
            stream,
            core: SessionCore::new(),
            decoder: FrameDecoder::new(),
            inbox: VecDeque::new(),
            writer: FrameWriter::new(),
            interest: Interest {
                read: true,
                write: false,
            },
            dispatching: false,
            dead: false,
            closing: false,
            read_closed: false,
            was_writing: false,
            deadline: self.idle_deadline(),
            armed: None,
        };
        self.arm(&mut conn, token);
        self.conns.insert(token, conn);
    }

    /// A serving connection's deadline when it hears from its peer now.
    fn idle_deadline(&self) -> Option<Instant> {
        self.idle_timeout.map(|timeout| Instant::now() + timeout)
    }

    /// Push a heap entry for `conn`'s deadline unless one at or before
    /// it is already armed: a deadline that moved out is found when the
    /// earlier entry fires.
    fn arm(&mut self, conn: &mut Conn, token: u64) {
        if let Some(at) = conn.deadline {
            if conn.armed.is_none_or(|armed| at < armed) {
                self.timers.push(Reverse((at, token)));
                conn.armed = Some(at);
            }
        }
    }

    /// Readiness on a connection socket: pump bytes, advance the state
    /// machine, flush, re-arm.
    fn conn_event(&mut self, token: u64, ev: Event) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if conn.dead {
            self.conns.insert(token, conn);
            return;
        }
        if (ev.readable || ev.closed) && !conn.read_closed && !conn.closing {
            match pump_frames(
                &mut (&conn.stream),
                &mut self.scratch,
                &mut conn.decoder,
                &mut self.pump_buf,
            ) {
                Ok(ReadStatus::Open) => {}
                Ok(ReadStatus::Closed) => conn.read_closed = true,
                Err(_) => {
                    // Torn stream or corrupt framing: drop the
                    // connection, no farewell.
                    self.pump_buf.clear();
                    self.finalize(token, conn);
                    return;
                }
            }
            if !self.pump_buf.is_empty() {
                conn.deadline = self.idle_deadline();
                conn.inbox.extend(self.pump_buf.drain(..));
            }
        }
        self.advance_session(&mut conn, token);
        match self.flush_and_rearm(&mut conn, token) {
            Disposition::Keep => {
                self.conns.insert(token, conn);
            }
            Disposition::Close => self.finalize(token, conn),
        }
    }

    /// Feed buffered frames to the state machine until it blocks on a
    /// dispatch, closes, or runs dry.
    fn advance_session(&mut self, conn: &mut Conn, token: u64) {
        while !conn.dispatching && !conn.closing {
            let Some(frame) = conn.inbox.pop_front() else {
                return;
            };
            match conn.core.on_frame(&self.v, &frame, self.shutting_down) {
                Step::Reply { frame, end } => {
                    self.obs.inline_replies.inc();
                    conn.queue(&frame, end);
                }
                Step::Dispatch(call) => {
                    self.obs.dispatches.inc();
                    conn.dispatching = true;
                    self.obs.conns_dispatching.add(1);
                    let job = DispatchJob {
                        loop_id: self.id,
                        token,
                        call,
                    };
                    if let Err(send_err) = self.dispatch_tx.send(job) {
                        // Pool gone (tear-down race): run inline so the
                        // client still gets an answer.
                        let call = send_err.0.call;
                        let (session_id, seq) = (call.session_id, call.seq);
                        let reply = call.run(&self.v);
                        conn.dispatching = false;
                        self.obs.conns_dispatching.sub(1);
                        let (frame, end) = conn.core.complete(reply, session_id, seq);
                        conn.queue(&frame, end);
                    }
                }
            }
        }
    }

    /// A dispatched reply came back from the pool.
    fn on_complete(&mut self, token: u64, session_id: u32, seq: u32, reply: Message) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        conn.dispatching = false;
        self.obs.conns_dispatching.sub(1);
        // Bookkeeping must run even for a dead socket: a BeginLoadOk
        // that misses its session would leak the job at teardown.
        let (frame, end) = conn.core.complete(reply, session_id, seq);
        if conn.dead {
            self.retire(conn);
            return;
        }
        conn.queue(&frame, end);
        if self.shutting_down && !conn.closing {
            let farewell = conn.core.shutdown_frame();
            conn.queue(&farewell, true);
        }
        self.advance_session(&mut conn, token);
        match self.flush_and_rearm(&mut conn, token) {
            Disposition::Keep => {
                self.conns.insert(token, conn);
            }
            Disposition::Close => self.finalize(token, conn),
        }
    }

    /// Drain queued reply bytes, decide close-vs-keep, and update the
    /// epoll interest set to match what the connection now waits on.
    fn flush_and_rearm(&mut self, conn: &mut Conn, token: u64) -> Disposition {
        let mut broken = false;
        if !conn.writer.is_empty() {
            match conn.writer.flush(&mut (&conn.stream)) {
                Ok(_) => {}
                Err(_) => broken = true,
            }
        }
        let writing = !conn.writer.is_empty();
        if writing != conn.was_writing {
            if writing {
                self.obs.conns_writing.add(1);
            } else {
                self.obs.conns_writing.sub(1);
            }
            conn.was_writing = writing;
        }
        if broken {
            return Disposition::Close;
        }
        if conn.closing && !writing {
            return Disposition::Close;
        }
        if conn.read_closed && conn.inbox.is_empty() && !conn.dispatching && !writing {
            return Disposition::Close;
        }
        let desired = Interest {
            read: !conn.dispatching && !conn.closing && !conn.read_closed,
            write: writing,
        };
        if desired != conn.interest {
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, desired)
                .is_err()
            {
                return Disposition::Close;
            }
            conn.interest = desired;
        }
        self.arm(conn, token);
        Disposition::Keep
    }

    /// A heap entry at `at` came due. Entries are hints: one superseded
    /// by an earlier entry is skipped, and the connection's real
    /// deadline is revalidated — re-armed if activity moved it out.
    fn timer_fired(&mut self, token: u64, at: Instant) {
        if token == TOKEN_LISTENER {
            self.unpark_listener();
            return;
        }
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if conn.armed != Some(at) || conn.dead {
            // Stale, or waiting on the completion that retires it.
            self.conns.insert(token, conn);
            return;
        }
        conn.armed = None;
        let now = Instant::now();
        if conn.deadline.is_none_or(|deadline| now < deadline) {
            self.arm(&mut conn, token);
        } else if conn.closing {
            // Farewell never drained; close anyway.
            self.finalize(token, conn);
            return;
        } else if conn.dispatching {
            // Busy is not idle: push the deadline a full period out.
            conn.deadline = self.idle_deadline();
            self.arm(&mut conn, token);
        } else {
            // Genuinely idle: farewell + close.
            self.obs.idle_closes.inc();
            let farewell = conn.core.idle_timeout_frame();
            conn.queue(&farewell, true);
            if let Disposition::Close = self.flush_and_rearm(&mut conn, token) {
                self.finalize(token, conn);
                return;
            }
        }
        self.conns.insert(token, conn);
    }

    /// Deregister and retire a connection — unless a dispatch is in
    /// flight, in which case it is marked dead and kept until the
    /// completion lands (see [`Conn::dead`]).
    fn finalize(&mut self, token: u64, mut conn: Conn) {
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        if conn.dispatching {
            conn.dead = true;
            self.conns.insert(token, conn);
            return;
        }
        self.retire(conn);
    }

    /// Final teardown: session close (aborting owned jobs), counters.
    fn retire(&mut self, mut conn: Conn) {
        conn.core.finish(&self.v);
        if conn.was_writing {
            self.obs.conns_writing.sub(1);
        }
        let n = self.shared.conns.fetch_sub(1, Ordering::Relaxed) - 1;
        self.obs.conns.set(n as u64);
    }

    /// React to the shared flags: close the listener when accepting
    /// stops, start the farewell sweep when the stop flag rises.
    fn check_stop(&mut self) {
        if !self.shared.accept_open.load(Ordering::Relaxed) {
            self.close_listener();
        }
        if self.shared.stop.load(Ordering::Relaxed) {
            self.begin_shutdown();
        }
    }

    fn close_listener(&mut self) {
        if let Some(listener) = self.listener.take() {
            if !self.listener_parked {
                let _ = self.poller.remove(listener.as_raw_fd());
            }
            // Dropping the listener closes the port: new connects are
            // refused from here on (drain semantics).
        }
    }

    /// Send every quiet connection its farewell, which starts its flush
    /// grace. Dispatching connections are left alone — their completion
    /// path appends the farewell after the reply ("handler finishes,
    /// reply delivered, then close") and starts the grace there.
    fn begin_shutdown(&mut self) {
        if self.shutting_down {
            return;
        }
        self.shutting_down = true;
        self.close_listener();
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            if conn.dead {
                self.conns.insert(token, conn);
                continue;
            }
            if !conn.dispatching && !conn.closing {
                let farewell = conn.core.shutdown_frame();
                conn.queue(&farewell, true);
            }
            match self.flush_and_rearm(&mut conn, token) {
                Disposition::Keep => {
                    self.conns.insert(token, conn);
                }
                Disposition::Close => self.finalize(token, conn),
            }
        }
    }
}
