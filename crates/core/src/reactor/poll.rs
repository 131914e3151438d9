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
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    /// Register `fd` under `token`.
    pub(crate) fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.mask(),
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) })?;
        Ok(())
    }

    /// Change an existing registration's interest set.
    pub(crate) fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.mask(),
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, &mut ev) })?;
        Ok(())
    }

    /// Drop a registration. The fd must still be open (epoll removes
    /// closed fds itself, but explicit removal keeps bookkeeping sane).
    pub(crate) fn remove(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
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
        const CAP: usize = 256;
        let mut raw = [EpollEvent { events: 0, data: 0 }; CAP];
        let n =
            match cvt(unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), CAP as i32, timeout_ms) }) {
                Ok(n) => n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
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
        unsafe {
            close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readiness_roundtrip() {
        let poller = Poller::new().unwrap();
        let (a, mut b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        poller
            .add(
                a.as_raw_fd(),
                7,
                Interest {
                    read: true,
                    write: false,
                },
            )
            .unwrap();

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
}
