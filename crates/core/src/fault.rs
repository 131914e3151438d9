//! Deterministic fault injection and retry/backoff policy.
//!
//! Cloud acquisition pipelines fail in the middle: an object-store put
//! tears, the warehouse drops a statement, a client link dies between two
//! chunks. This module gives the virtualizer one seeded description of
//! such failures — a [`FaultPlan`] — and one runtime that applies it — a
//! [`FaultInjector`] — so every chaos scenario is reproducible: the same
//! seed yields the same injected-fault sequence, run after run.
//!
//! The injector itself lives above the fault sites. The lower crates each
//! expose a decision hook at their injection point (`ChaosStore` in
//! `etlv-cloudstore`, the transient hook on `etlv-cdw`'s engine,
//! `ChaosTransport` in `etlv-protocol`); [`FaultInjector`] manufactures
//! all of them from the single plan, keeping seeding and accounting in
//! one place.
//!
//! The consumer side is [`RetryPolicy::retry`], the one retry loop
//! (capped exponential backoff with deterministic jitter, shared with
//! the legacy client): the uploader runs its puts through it, and every
//! CDW statement runs through [`retry_cdw`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::obs::{Counter, FaultObs};

use etlv_cdw::error::CdwError;
use etlv_cdw::TransientFaultHook;
use etlv_cloudstore::{StoreFault, StoreFaultHook, StoreOp};
use etlv_protocol::frame::MsgKind;
use etlv_protocol::rng::splitmix64;
use etlv_protocol::transport::{TransportFault, TransportFaultHook};

// The retry schedule itself (policy + capped deterministic-jitter
// backoff) moved down to `etlv-protocol::backoff` so the legacy client
// can share it for `SERVER_BUSY` admission backoff; re-exported here so
// existing `etlv_core::fault::{RetryPolicy, Backoff}` paths keep working.
pub use etlv_protocol::backoff::{Backoff, RetryPolicy};

/// When a fault fires at one injection point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// Never fault.
    Never,
    /// Fault the first `n` operations, then behave normally — the classic
    /// "flaky then recovers" shape retry logic must absorb.
    FirstN(u32),
    /// Fault exactly the listed 0-based operation indices.
    AtOps(Vec<u64>),
    /// Fault each operation independently with probability
    /// `rate_ppm / 1_000_000`, decided by hashing (seed, point, index);
    /// at most `limit` faults fire (0 = unlimited).
    Random {
        /// Fault probability in parts per million.
        rate_ppm: u32,
        /// Cap on total faults at this point (0 = unlimited).
        limit: u32,
    },
}

/// How injected store-put faults present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorePutFailure {
    /// Clean error; nothing written.
    Error,
    /// Torn write: half the object lands, then the put errors.
    PartialWrite,
}

/// How injected transport faults present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFailure {
    /// The data frame vanishes; the sender only notices by timeout.
    Drop,
    /// Half the frame's bytes arrive, then the link is cut.
    Truncate,
    /// The link is cut before the frame leaves.
    Sever,
}

/// A seeded, deterministic description of which faults to inject where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for all randomized decisions and backoff jitter.
    pub seed: u64,
    /// Object-store writes (staged-file uploads).
    pub store_put: FaultSpec,
    /// Presentation of store-put faults.
    pub store_put_failure: StorePutFailure,
    /// Object-store reads (COPY pulling staged files).
    pub store_get: FaultSpec,
    /// CDW statement execution (COPY trigger, application DML, DDL).
    pub cdw_exec: FaultSpec,
    /// DataConverter worker failures.
    pub convert: FaultSpec,
    /// Client→server data-chunk frame delivery.
    pub transport: FaultSpec,
    /// Presentation of transport faults.
    pub transport_failure: TransportFailure,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::seeded(0)
    }
}

impl FaultPlan {
    /// A plan with every injection point disabled and the given seed.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            store_put: FaultSpec::Never,
            store_put_failure: StorePutFailure::Error,
            store_get: FaultSpec::Never,
            cdw_exec: FaultSpec::Never,
            convert: FaultSpec::Never,
            transport: FaultSpec::Never,
            transport_failure: TransportFailure::Drop,
        }
    }
}

/// The injection points a [`FaultInjector`] arbitrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionPoint {
    /// Object-store put.
    StorePut,
    /// Object-store get.
    StoreGet,
    /// CDW statement execution.
    CdwExec,
    /// Converter-worker chunk conversion.
    Convert,
    /// Transport data-frame delivery.
    Transport,
}

const POINT_COUNT: usize = 5;

impl InjectionPoint {
    fn index(self) -> usize {
        match self {
            InjectionPoint::StorePut => 0,
            InjectionPoint::StoreGet => 1,
            InjectionPoint::CdwExec => 2,
            InjectionPoint::Convert => 3,
            InjectionPoint::Transport => 4,
        }
    }

    /// Salt mixed into random decisions so points with equal specs fault
    /// on different op indices.
    fn salt(self) -> u64 {
        0x5157_0000 + self.index() as u64
    }
}

/// Faults injected so far, per point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Store-put faults fired.
    pub store_put: u64,
    /// Store-get faults fired.
    pub store_get: u64,
    /// CDW transient faults fired.
    pub cdw_exec: u64,
    /// Converter-worker faults fired.
    pub convert: u64,
    /// Transport frame faults fired.
    pub transport: u64,
}

impl FaultCounts {
    /// Total faults fired across all points.
    pub fn total(&self) -> u64 {
        self.store_put + self.store_get + self.cdw_exec + self.convert + self.transport
    }
}

/// Applies a [`FaultPlan`]: counts operations per injection point and
/// decides, deterministically, which ones fault. Each fault it fires is
/// added to that point's `fault.injected_*` counter, the one place the
/// count lives.
pub struct FaultInjector {
    plan: FaultPlan,
    ops: [AtomicU64; POINT_COUNT],
    injected: [Counter; POINT_COUNT],
}

impl FaultInjector {
    /// New injector for `plan`, counting into counters no registry
    /// exposes.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            ops: Default::default(),
            injected: std::array::from_fn(|_| Counter::new()),
        }
    }

    /// New injector for `plan`, counting into pre-registered counters.
    pub fn with_obs(plan: FaultPlan, obs: FaultObs) -> FaultInjector {
        FaultInjector {
            plan,
            ops: Default::default(),
            injected: [
                obs.injected_store_put,
                obs.injected_store_get,
                obs.injected_cdw_exec,
                obs.injected_convert,
                obs.injected_transport,
            ],
        }
    }

    /// The plan this injector applies.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn spec(&self, point: InjectionPoint) -> &FaultSpec {
        match point {
            InjectionPoint::StorePut => &self.plan.store_put,
            InjectionPoint::StoreGet => &self.plan.store_get,
            InjectionPoint::CdwExec => &self.plan.cdw_exec,
            InjectionPoint::Convert => &self.plan.convert,
            InjectionPoint::Transport => &self.plan.transport,
        }
    }

    /// Count one operation at `point` and decide whether it faults.
    pub fn decide(&self, point: InjectionPoint) -> bool {
        let spec = self.spec(point);
        let p = point.index();
        let index = self.ops[p].fetch_add(1, Ordering::Relaxed);
        let hit = match spec {
            FaultSpec::Never => false,
            FaultSpec::FirstN(n) => index < *n as u64,
            FaultSpec::AtOps(indices) => indices.contains(&index),
            FaultSpec::Random { rate_ppm, limit } => {
                (*limit == 0 || self.injected[p].value() < *limit as u64)
                    && splitmix64(self.plan.seed ^ point.salt() ^ index) % 1_000_000
                        < *rate_ppm as u64
            }
        };
        if hit {
            self.injected[p].inc();
        }
        hit
    }

    /// Snapshot of faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        let n = |point: InjectionPoint| self.injected[point.index()].value();
        FaultCounts {
            store_put: n(InjectionPoint::StorePut),
            store_get: n(InjectionPoint::StoreGet),
            cdw_exec: n(InjectionPoint::CdwExec),
            convert: n(InjectionPoint::Convert),
            transport: n(InjectionPoint::Transport),
        }
    }

    /// Hook for wrapping the object store in a
    /// [`ChaosStore`](etlv_cloudstore::ChaosStore).
    pub fn store_hook(self: &Arc<Self>) -> StoreFaultHook {
        let injector = Arc::clone(self);
        Arc::new(move |op| match op {
            StoreOp::Put => {
                if injector.decide(InjectionPoint::StorePut) {
                    match injector.plan.store_put_failure {
                        StorePutFailure::Error => StoreFault::Error,
                        StorePutFailure::PartialWrite => StoreFault::PartialWrite,
                    }
                } else {
                    StoreFault::None
                }
            }
            StoreOp::Get => {
                if injector.decide(InjectionPoint::StoreGet) {
                    StoreFault::Error
                } else {
                    StoreFault::None
                }
            }
        })
    }

    /// Hook for [`Cdw::set_transient_fault`](etlv_cdw::Cdw).
    pub fn cdw_hook(self: &Arc<Self>) -> TransientFaultHook {
        let injector = Arc::clone(self);
        Arc::new(move || injector.decide(InjectionPoint::CdwExec))
    }

    /// Hook for wrapping a client transport in a
    /// [`ChaosTransport`](etlv_protocol::transport::ChaosTransport). Only
    /// data-chunk frames are counted and faulted — control traffic
    /// (logon, begin/end load) always passes, so scenarios target the
    /// mid-load window.
    pub fn transport_hook(self: &Arc<Self>) -> TransportFaultHook {
        let injector = Arc::clone(self);
        Arc::new(move |_index, kind| {
            if kind != MsgKind::DataChunk {
                return TransportFault::Deliver;
            }
            if injector.decide(InjectionPoint::Transport) {
                match injector.plan.transport_failure {
                    TransportFailure::Drop => TransportFault::Drop,
                    TransportFailure::Truncate => TransportFault::Truncate,
                    TransportFailure::Sever => TransportFault::Sever,
                }
            } else {
                TransportFault::Deliver
            }
        })
    }
}

/// [`RetryPolicy::retry`] for CDW statements, counting into `retries`:
/// retries [`CdwError::is_retryable`] failures (transient + store I/O)
/// only. Bulk aborts and structural errors surface immediately so the
/// adaptive error handler still sees every per-tuple failure.
pub fn retry_cdw<T>(
    policy: RetryPolicy,
    seed: u64,
    retries: &mut u64,
    op: impl FnMut() -> Result<T, CdwError>,
) -> Result<T, CdwError> {
    policy.retry(seed, CdwError::is_retryable, || *retries += 1, op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_n_and_at_ops_specs() {
        let mut plan = FaultPlan::seeded(1);
        plan.store_put = FaultSpec::FirstN(2);
        plan.cdw_exec = FaultSpec::AtOps(vec![1, 3]);
        let injector = FaultInjector::new(plan);
        let puts: Vec<bool> = (0..4)
            .map(|_| injector.decide(InjectionPoint::StorePut))
            .collect();
        assert_eq!(puts, [true, true, false, false]);
        let execs: Vec<bool> = (0..5)
            .map(|_| injector.decide(InjectionPoint::CdwExec))
            .collect();
        assert_eq!(execs, [false, true, false, true, false]);
        let counts = injector.counts();
        assert_eq!(counts.store_put, 2);
        assert_eq!(counts.cdw_exec, 2);
        assert_eq!(counts.total(), 4);
    }

    #[test]
    fn random_spec_is_seed_deterministic_and_limited() {
        let mut plan = FaultPlan::seeded(42);
        plan.convert = FaultSpec::Random {
            rate_ppm: 250_000,
            limit: 3,
        };
        let run = |plan: FaultPlan| -> Vec<bool> {
            let injector = FaultInjector::new(plan);
            (0..64)
                .map(|_| injector.decide(InjectionPoint::Convert))
                .collect()
        };
        let a = run(plan.clone());
        let b = run(plan.clone());
        assert_eq!(a, b, "same seed, same fault sequence");
        assert_eq!(a.iter().filter(|h| **h).count(), 3, "limit respected");
        plan.seed = 43;
        assert_ne!(run(plan), a, "different seed, different sequence");
    }

    #[test]
    fn retry_cdw_passes_bulk_aborts_through() {
        use etlv_protocol::errcode::Cause;
        let mut retries = 0u64;
        let result: Result<(), CdwError> =
            retry_cdw(RetryPolicy::default(), 0, &mut retries, || {
                Err(CdwError::abort(Cause::Date, "bad date"))
            });
        assert!(result.unwrap_err().is_bulk_abort());
        assert_eq!(retries, 0, "per-tuple errors are not retried");
    }
}
