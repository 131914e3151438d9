//! A minimal epoll wrapper — the only readiness API the reactor needs.
//!
//! The workspace deliberately carries no async runtime and no `libc`
//! crate, so the four syscalls are declared directly; the symbols
//! resolve from the C library `std` already links. Level-triggered
//! mode throughout: a socket with unread bytes or undrained write
//! space keeps reporting ready, which lets the event loops cap
//! per-wakeup work (fairness) without losing edges.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLLIN: u32 = 0x1;
const EPOLLOUT: u32 = 0x4;
const EPOLLERR: u32 = 0x8;
const EPOLLHUP: u32 = 0x10;
const EPOLLRDHUP: u32 = 0x2000;

/// Most events one `wait` delivers; level-triggered fds left over are
/// reported by the next call.
const CAP: usize = 256;

/// `struct epoll_event`. The kernel ABI packs it on x86-64 (12 bytes);
/// other architectures use natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Which readiness kinds a registration asks for. Peer-hangup
/// (`EPOLLRDHUP`) is always requested so half-closed connections
/// surface without a read interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    pub(crate) read: bool,
    pub(crate) write: bool,
}

impl Interest {
    fn mask(self) -> u32 {
        let mut m = EPOLLRDHUP;
        if self.read {
            m |= EPOLLIN;
        }
        if self.write {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One delivered readiness event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the fd was registered with.
    pub(crate) token: u64,
    /// Bytes are readable.
    pub(crate) readable: bool,
    /// Write space is available. The event loop flushes pending bytes
    /// after every processing pass regardless (level-triggered epoll
    /// keeps reporting until drained), so this is observability for
    /// tests rather than a control input.
    #[allow(dead_code)]
    pub(crate) writable: bool,
    /// Error or hangup — the fd should be pumped (a read will observe
    /// the EOF/error) and retired.
    pub(crate) closed: bool,
}

/// An epoll instance owning its fd.
pub(crate) struct Poller {
    epfd: RawFd,
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes no pointers; any flag value is
        // memory-safe. The returned fd is owned by the `Poller` from here
        // on and closed exactly once, in `Drop`.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    /// Register `fd` under `token`.
    pub(crate) fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.mask(),
            data: token,
        };
        // SAFETY: `ev` is a live, initialized `epoll_event` with the
        // kernel's layout; the kernel only reads it during the call and
        // keeps no pointer to it. `self.epfd` is open while `self` lives.
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) })?;
        Ok(())
    }

    /// Change an existing registration's interest set.
    pub(crate) fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.mask(),
            data: token,
        };
        // SAFETY: as in `add`: `ev` outlives the call, which only reads it.
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, &mut ev) })?;
        Ok(())
    }

    /// Drop a registration. The fd must still be open (epoll removes
    /// closed fds itself, but explicit removal keeps bookkeeping sane).
    pub(crate) fn remove(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `add`. `EPOLL_CTL_DEL` ignores the event, but
        // kernels before 2.6.9 require a non-null pointer, so pass one.
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Wait for readiness, filling `out` (cleared first). `None` blocks
    /// indefinitely. A signal interruption returns an empty batch.
    pub(crate) fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let timeout_ms = match timeout {
            // Round up, so a deadline 0.4 ms away is slept past rather
            // than spun on at 0 ms; only a due deadline polls at 0.
            Some(t) => i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX),
            None => -1,
        };
        debug_assert!(timeout_ms >= -1, "epoll_wait timeout {timeout_ms}");
        let mut raw = [EpollEvent { events: 0, data: 0 }; CAP];
        // SAFETY: `raw` is a live buffer of exactly `CAP` initialized
        // events, and `maxevents` is `CAP`, so the kernel writes at most
        // `CAP` entries into it; nothing keeps the pointer past the call.
        let n =
            match cvt(unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), CAP as i32, timeout_ms) }) {
                Ok(n) => n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
        debug_assert!(n <= CAP, "epoll_wait returned {n} > {CAP} events");
        for ev in &raw[..n] {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `self.epfd` came from `epoll_create1` in `new`, is owned
        // by this `Poller` alone and is closed here, once.
        unsafe {
            close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    const READ: Interest = Interest {
        read: true,
        write: false,
    };

    /// Held by the tests that open many fds or depend on which number the
    /// next one gets, so they do not run at once.
    static FD_NUMBERS: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    #[test]
    fn readiness_roundtrip() {
        let poller = Poller::new().unwrap();
        let (a, mut b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        poller.add(a.as_raw_fd(), 7, READ).unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "no data yet");

        b.write_all(&[42]).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: unread data keeps reporting.
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert_eq!(events.len(), 1);

        // Peer hangup surfaces as closed.
        drop(b);
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].closed);

        poller.remove(a.as_raw_fd()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "deregistered fd is silent");
    }

    #[test]
    fn write_interest_reported() {
        let poller = Poller::new().unwrap();
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        poller
            .add(
                a.as_raw_fd(),
                1,
                Interest {
                    read: false,
                    write: true,
                },
            )
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));
    }

    #[test]
    fn zero_timeout_with_nothing_ready_returns_at_once() {
        let poller = Poller::new().unwrap();
        let (a, _b) = UnixStream::pair().unwrap();
        poller.add(a.as_raw_fd(), 1, READ).unwrap();
        let stale = Event {
            token: 9,
            readable: true,
            writable: false,
            closed: false,
        };
        let mut events = vec![stale];
        let started = Instant::now();
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty(), "the batch is cleared and stays empty");
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn more_ready_fds_than_cap_span_two_waits() {
        let _numbers = FD_NUMBERS.lock();
        let poller = Poller::new().unwrap();
        let pairs: Vec<(UnixStream, UnixStream)> =
            (0..CAP + 4).map(|_| UnixStream::pair().unwrap()).collect();
        for (token, (a, b)) in pairs.iter().enumerate() {
            poller.add(a.as_raw_fd(), token as u64, READ).unwrap();
            (&*b).write_all(&[1]).unwrap();
        }
        let mut first = Vec::new();
        poller
            .wait(&mut first, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(first.len(), CAP, "one wait delivers at most CAP events");
        let seen: HashSet<u64> = first.iter().map(|e| e.token).collect();
        assert_eq!(seen.len(), CAP, "no fd reported twice in a batch");
        // Nothing was read, so every fd is still ready: the next wait
        // reports the ones the first batch left out.
        let mut second = Vec::new();
        poller
            .wait(&mut second, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(second.len() <= CAP);
        let rest: HashSet<u64> = (0..pairs.len() as u64)
            .filter(|t| !seen.contains(t))
            .collect();
        assert_eq!(rest.len(), 4);
        let again: HashSet<u64> = second.iter().map(|e| e.token).collect();
        assert!(rest.is_subset(&again), "{rest:?} not in the second batch");
        assert!(first.iter().chain(&second).all(|e| e.readable));
    }

    #[test]
    fn ctl_on_the_wrong_registration_state_is_an_error() {
        let poller = Poller::new().unwrap();
        let (a, _b) = UnixStream::pair().unwrap();
        let fd = a.as_raw_fd();
        let err = poller.modify(fd, 1, READ).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");
        let err = poller.remove(fd).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");
        poller.add(fd, 1, READ).unwrap();
        let err = poller.add(fd, 2, READ).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists, "{err}");
        poller.remove(fd).unwrap();
    }

    #[test]
    fn a_reused_fd_number_reports_only_its_new_token() {
        let _numbers = FD_NUMBERS.lock();
        let poller = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        let fd = a.as_raw_fd();
        poller.add(fd, 1, READ).unwrap();
        (&b).write_all(&[1]).unwrap();
        // Closing the fd drops its registration without a `remove`.
        drop(a);
        // A new socket takes the lowest free number: keep any lower ones
        // open until the closed number comes back.
        let mut held = Vec::new();
        let (c, d) = loop {
            let (c, d) = UnixStream::pair().unwrap();
            if c.as_raw_fd() == fd {
                break (c, d);
            }
            if d.as_raw_fd() == fd {
                break (d, c);
            }
            held.push((c, d));
            assert!(held.len() < 64, "fd {fd} was not handed out again");
        };
        poller.add(c.as_raw_fd(), 2, READ).unwrap();
        (&d).write_all(&[1]).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        let tokens: Vec<u64> = events.iter().map(|e| e.token).collect();
        assert_eq!(tokens, [2]);
    }
}
