//! In-flight memory accounting.
//!
//! Every byte of client data that has been acked but not yet written out
//! is tracked against an optional cap. The paper reports that with one
//! million credits "Hyper-Q ran out of memory and crashed"; here the same
//! condition is detected deterministically and surfaced as
//! [`OutOfMemory`], failing the job instead of the process.
//! The counts *are* the registry's `memory.{in_flight,peak}` series; a
//! [`MemGuard`] charged to a tenant holds its `memory_held` until it drops.

use std::fmt;

use crate::obs::{Gauge, MemoryObs, TenantObs};

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

/// Tracks in-flight bytes against a cap (0 = unlimited).
#[derive(Clone)]
pub struct MemoryGauge {
    obs: MemoryObs,
    cap: u64,
}

/// An accounted reservation; releases on drop.
#[derive(Debug)]
pub struct MemGuard {
    in_flight: Gauge,
    bytes: u64,
    /// The holder's gauge (a tenant's `memory_held`) the bytes are also
    /// charged to.
    holder: Option<Gauge>,
}

impl MemoryGauge {
    /// New gauge with `cap` bytes (0 disables the cap), counting into
    /// handles no registry exposes.
    pub fn new(cap: usize) -> MemoryGauge {
        let (in_flight, peak) = (Gauge::new(), Gauge::new());
        MemoryGauge::with_obs(cap, MemoryObs { in_flight, peak })
    }

    /// Gauge counting into pre-registered observability handles.
    pub fn with_obs(cap: usize, obs: MemoryObs) -> MemoryGauge {
        let cap = cap as u64;
        MemoryGauge { obs, cap }
    }

    /// Reserve `bytes`; fails if the cap would be exceeded.
    pub fn reserve(&self, bytes: usize) -> Result<MemGuard, OutOfMemory> {
        self.reserve_within(bytes, self.cap)
    }

    /// Reserve `bytes` for work done before anyone needs it; fails if it
    /// would take in-flight memory past half the cap, so such work never
    /// takes the headroom a job's own data needs.
    pub(crate) fn reserve_spare(&self, bytes: usize) -> Option<MemGuard> {
        self.reserve_within(bytes, self.cap.div_ceil(2)).ok()
    }

    /// Reserve `bytes` if in-flight memory stays within `cap` (0 = no
    /// limit).
    fn reserve_within(&self, bytes: usize, cap: u64) -> Result<MemGuard, OutOfMemory> {
        let (in_flight, bytes) = (&self.obs.in_flight, bytes as u64);
        match in_flight.add_within(bytes, cap) {
            Ok(now) => {
                self.obs.peak.fetch_max(now);
                let in_flight = in_flight.clone();
                Ok(MemGuard {
                    in_flight,
                    bytes,
                    holder: None,
                })
            }
            Err(in_flight) => Err(OutOfMemory {
                in_flight,
                requested: bytes,
                cap,
            }),
        }
    }

    /// Bytes currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.obs.in_flight.value()
    }

    /// Highest in-flight watermark observed.
    pub fn peak(&self) -> u64 {
        self.obs.peak.value()
    }

    /// The configured cap (0 = unlimited).
    pub fn cap(&self) -> u64 {
        self.cap
    }
}

impl MemGuard {
    /// Charge these bytes to `tenant`'s `memory_held` until the guard
    /// drops.
    pub(crate) fn charge(mut self, tenant: &TenantObs) -> MemGuard {
        debug_assert!(self.holder.is_none(), "reservation charged twice");
        tenant.memory_held.add(self.bytes);
        self.holder = Some(tenant.memory_held.clone());
        self
    }
}

impl Drop for MemGuard {
    fn drop(&mut self) {
        if let Some(holder) = &self.holder {
            holder.sub(self.bytes);
        }
        self.in_flight.sub(self.bytes);
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

    /// Work done ahead takes at most half the cap, and none of what the
    /// cap's other half holds; without a cap it takes what it asks for.
    #[test]
    fn spare_reservations_leave_half_the_cap() {
        let g = MemoryGauge::new(101);
        let a = g.reserve_spare(51).expect("half the cap, rounded up");
        assert!(g.reserve_spare(1).is_none());
        let _b = g.reserve(50).expect("the other half is left");
        drop(a);
        let _c = g.reserve(10).unwrap();
        assert!(g.reserve_spare(1).is_none(), "jobs' own data holds 60");
        assert!(MemoryGauge::new(0).reserve_spare(usize::MAX / 4).is_some());
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
