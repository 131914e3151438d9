//! The CreditManager — the paper's back-pressure mechanism (§5, Figure 4).
//!
//! One CreditManager exists per virtualizer node and is shared by all
//! concurrent jobs. A session handler must acquire a credit before it
//! hands a data chunk to conversion; the credit travels with the chunk
//! through conversion and is returned to the pool just before the same
//! worker writes the data out (the FileWriter step). When the pool is empty the
//! acquiring session blocks — which, because the ack for the *previous*
//! chunk has already been sent, stalls exactly one chunk of client
//! progress per session: lightweight, self-clocking back-pressure.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::obs::{Counter, CreditObs, Gauge, Histogram};

struct Pool {
    available: Mutex<usize>,
    returned: Condvar,
    capacity: usize,
    /// The pool's only counters: acquires, stalls, and the per-stall
    /// latency histogram `stalls()`/`stall_time()`/`total_acquired()`
    /// read back.
    obs: CreditObs,
}

/// A shared credit pool.
#[derive(Clone)]
pub struct CreditManager {
    pool: Arc<Pool>,
}

/// One credit. Dropping it returns it to the pool — on every path,
/// including panics and injected faults; the guard, not the happy path,
/// owns the release, so the pool can never leak.
#[must_use = "dropping the Credit immediately returns it to the pool"]
pub struct Credit {
    pool: Arc<Pool>,
}

impl CreditManager {
    /// Pool with `capacity` credits (clamped to ≥ 1), counting into
    /// handles no registry exposes.
    pub fn new(capacity: usize) -> CreditManager {
        CreditManager::with_obs(
            capacity,
            CreditObs {
                acquires: Counter::new(),
                stalls: Counter::new(),
                stall_us: Histogram::new(),
                in_flight: Gauge::new(),
            },
        )
    }

    /// Pool counting into pre-registered observability handles.
    pub fn with_obs(capacity: usize, obs: CreditObs) -> CreditManager {
        let capacity = capacity.max(1);
        CreditManager {
            pool: Arc::new(Pool {
                available: Mutex::new(capacity),
                returned: Condvar::new(),
                capacity,
                obs,
            }),
        }
    }

    /// Acquire a credit, blocking while the pool is empty.
    #[must_use = "the credit returns to the pool the moment it is dropped"]
    pub fn acquire(&self) -> Credit {
        let mut available = self.pool.available.lock();
        if *available == 0 {
            self.pool.obs.stalls.inc();
            let start = Instant::now();
            while *available == 0 {
                self.pool.returned.wait(&mut available);
            }
            self.pool.obs.stall_us.record_duration(start.elapsed());
        }
        *available -= 1;
        self.pool.obs.acquires.inc();
        Credit {
            pool: Arc::clone(&self.pool),
        }
    }

    /// Acquire with a timeout; `None` if the pool stayed empty.
    pub fn try_acquire_for(&self, timeout: Duration) -> Option<Credit> {
        let deadline = Instant::now() + timeout;
        let mut available = self.pool.available.lock();
        while *available == 0 {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            if self
                .pool
                .returned
                .wait_until(&mut available, deadline)
                .timed_out()
                && *available == 0
            {
                return None;
            }
        }
        *available -= 1;
        self.pool.obs.acquires.inc();
        Some(Credit {
            pool: Arc::clone(&self.pool),
        })
    }

    /// Pool capacity.
    pub fn capacity(&self) -> usize {
        self.pool.capacity
    }

    /// Credits currently available.
    pub fn available(&self) -> usize {
        *self.pool.available.lock()
    }

    /// Credits currently in flight.
    pub fn in_flight(&self) -> usize {
        self.capacity() - self.available()
    }

    /// Number of acquisitions that had to block.
    pub fn stalls(&self) -> u64 {
        self.pool.obs.stalls.value()
    }

    /// Total blocked time across all acquirers.
    pub fn stall_time(&self) -> Duration {
        Duration::from_micros(self.pool.obs.stall_us.sum())
    }

    /// Total credits ever acquired.
    pub fn total_acquired(&self) -> u64 {
        self.pool.obs.acquires.value()
    }
}

impl Drop for Credit {
    fn drop(&mut self) {
        let mut available = self.pool.available.lock();
        *available += 1;
        debug_assert!(*available <= self.pool.capacity, "credit over-return");
        drop(available);
        self.pool.returned.notify_one();
    }
}

impl std::fmt::Debug for CreditManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CreditManager")
            .field("capacity", &self.capacity())
            .field("available", &self.available())
            .field("stalls", &self.stalls())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;

    #[test]
    fn acquire_and_return() {
        let mgr = CreditManager::new(2);
        let a = mgr.acquire();
        let b = mgr.acquire();
        assert_eq!(mgr.available(), 0);
        assert_eq!(mgr.in_flight(), 2);
        drop(a);
        assert_eq!(mgr.available(), 1);
        drop(b);
        assert_eq!(mgr.available(), 2);
        assert_eq!(mgr.total_acquired(), 2);
    }

    #[test]
    fn blocks_until_returned() {
        let mgr = CreditManager::new(1);
        let held = mgr.acquire();
        let mgr2 = mgr.clone();
        let t = thread::spawn(move || {
            let _c = mgr2.acquire(); // blocks until main drops
            mgr2.available()
        });
        thread::sleep(Duration::from_millis(30));
        drop(held);
        let avail_inside = t.join().unwrap();
        assert_eq!(avail_inside, 0);
        assert_eq!(mgr.available(), 1);
        assert_eq!(mgr.stalls(), 1);
    }

    #[test]
    fn try_acquire_times_out() {
        let mgr = CreditManager::new(1);
        let _held = mgr.acquire();
        let got = mgr.try_acquire_for(Duration::from_millis(20));
        assert!(got.is_none());
        assert_eq!(mgr.available(), 0);
    }

    #[test]
    fn try_acquire_succeeds_when_available() {
        let mgr = CreditManager::new(1);
        let c = mgr.try_acquire_for(Duration::from_millis(1));
        assert!(c.is_some());
    }

    #[test]
    fn stall_accounting() {
        let mgr = CreditManager::new(1);
        let held = mgr.acquire();
        let mgr2 = mgr.clone();
        let t = thread::spawn(move || {
            let _c = mgr2.acquire();
        });
        thread::sleep(Duration::from_millis(30));
        drop(held);
        t.join().unwrap();
        assert_eq!(mgr.stalls(), 1);
        assert!(mgr.stall_time() >= Duration::from_millis(20));
    }

    #[test]
    fn panicking_holder_still_returns_credit() {
        let mgr = CreditManager::new(2);
        let mgr2 = mgr.clone();
        let t = thread::spawn(move || {
            let _held = mgr2.acquire();
            panic!("worker died mid-chunk");
        });
        assert!(t.join().is_err());
        // Unwinding dropped the guard: no leak.
        assert_eq!(mgr.available(), 2);
    }

    #[test]
    fn obs_handles_record_acquires_and_stalls() {
        let obs = crate::obs::Obs::default();
        let mgr = CreditManager::with_obs(1, obs.credit.clone());
        let held = mgr.acquire();
        let mgr2 = mgr.clone();
        let t = thread::spawn(move || {
            let _c = mgr2.acquire();
        });
        thread::sleep(Duration::from_millis(30));
        drop(held);
        t.join().unwrap();
        assert_eq!(obs.credit.acquires.value(), 2);
        assert_eq!(obs.credit.stalls.value(), 1);
        let stall = obs.credit.stall_us.snapshot();
        assert_eq!(stall.count, 1);
        assert!(stall.max >= 20_000, "stall_us max {}", stall.max);
        // The manager's own atomics agree with the obs handles.
        assert_eq!(mgr.stalls(), 1);
        assert_eq!(mgr.total_acquired(), 2);
    }

    #[test]
    fn many_threads_never_exceed_capacity() {
        let mgr = CreditManager::new(4);
        let peak = Arc::new(AtomicU64::new(0));
        let current = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let mgr = mgr.clone();
            let peak = Arc::clone(&peak);
            let current = Arc::clone(&current);
            handles.push(thread::spawn(move || {
                for _ in 0..50 {
                    let _c = mgr.acquire();
                    let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::hint::spin_loop();
                    current.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 4);
        assert_eq!(mgr.available(), 4);
        assert_eq!(mgr.total_acquired(), 16 * 50);
    }
}
