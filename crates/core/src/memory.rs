//! In-flight memory accounting.
//!
//! Every byte of client data that has been acked but not yet written out
//! is tracked against an optional cap. The paper reports that with one
//! million credits "Hyper-Q ran out of memory and crashed"; here the same
//! condition is detected deterministically and surfaced as
//! [`OutOfMemory`], failing the job instead of the process.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The node's in-flight memory cap was exceeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes that were already in flight.
    pub in_flight: u64,
    /// Bytes the failed reservation asked for.
    pub requested: u64,
    /// The configured cap.
    pub cap: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of memory: {} bytes in flight + {} requested exceeds cap {}",
            self.in_flight, self.requested, self.cap
        )
    }
}

impl std::error::Error for OutOfMemory {}

#[derive(Debug)]
struct Gauge {
    in_flight: AtomicU64,
    peak: AtomicU64,
    cap: u64,
}

/// Tracks in-flight bytes against a cap (0 = unlimited).
#[derive(Clone)]
pub struct MemoryGauge {
    gauge: Arc<Gauge>,
}

/// An accounted reservation; releases on drop.
#[derive(Debug)]
pub struct MemGuard {
    gauge: Arc<Gauge>,
    bytes: u64,
}

impl MemoryGauge {
    /// New gauge with `cap` bytes (0 disables the cap).
    pub fn new(cap: usize) -> MemoryGauge {
        MemoryGauge {
            gauge: Arc::new(Gauge {
                in_flight: AtomicU64::new(0),
                peak: AtomicU64::new(0),
                cap: cap as u64,
            }),
        }
    }

    /// Reserve `bytes`; fails if the cap would be exceeded.
    pub fn reserve(&self, bytes: usize) -> Result<MemGuard, OutOfMemory> {
        let bytes = bytes as u64;
        let mut cur = self.gauge.in_flight.load(Ordering::Relaxed);
        loop {
            let next = cur + bytes;
            if self.gauge.cap != 0 && next > self.gauge.cap {
                return Err(OutOfMemory {
                    in_flight: cur,
                    requested: bytes,
                    cap: self.gauge.cap,
                });
            }
            match self.gauge.in_flight.compare_exchange_weak(
                cur,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.gauge.peak.fetch_max(next, Ordering::Relaxed);
                    return Ok(MemGuard {
                        gauge: Arc::clone(&self.gauge),
                        bytes,
                    });
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Bytes currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.gauge.in_flight.load(Ordering::Relaxed)
    }

    /// Highest in-flight watermark observed.
    pub fn peak(&self) -> u64 {
        self.gauge.peak.load(Ordering::Relaxed)
    }

    /// The configured cap (0 = unlimited).
    pub fn cap(&self) -> u64 {
        self.gauge.cap
    }
}

impl Drop for MemGuard {
    fn drop(&mut self) {
        self.gauge.in_flight.fetch_sub(self.bytes, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for MemoryGauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryGauge")
            .field("in_flight", &self.in_flight())
            .field("peak", &self.peak())
            .field("cap", &self.cap())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release() {
        let g = MemoryGauge::new(100);
        let a = g.reserve(60).unwrap();
        assert_eq!(g.in_flight(), 60);
        let b = g.reserve(40).unwrap();
        assert_eq!(g.in_flight(), 100);
        assert!(g.reserve(1).is_err());
        drop(a);
        assert_eq!(g.in_flight(), 40);
        let _c = g.reserve(59).unwrap();
        drop(b);
        assert_eq!(g.peak(), 100);
    }

    #[test]
    fn unlimited_when_cap_zero() {
        let g = MemoryGauge::new(0);
        let _a = g.reserve(usize::MAX / 4).unwrap();
        assert!(g.reserve(1024).is_ok());
    }

    #[test]
    fn oom_error_details() {
        let g = MemoryGauge::new(10);
        let _a = g.reserve(8).unwrap();
        let err = g.reserve(5).unwrap_err();
        assert_eq!(err.in_flight, 8);
        assert_eq!(err.requested, 5);
        assert_eq!(err.cap, 10);
    }

    #[test]
    fn concurrent_reservations_respect_cap() {
        let g = MemoryGauge::new(1000);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                let mut ok = 0u32;
                for _ in 0..1000 {
                    if let Ok(guard) = g.reserve(10) {
                        std::hint::spin_loop();
                        drop(guard);
                        ok += 1;
                    }
                }
                ok
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(g.in_flight(), 0);
        assert!(g.peak() <= 1000);
    }
}
