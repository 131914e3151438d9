//! Client-side admission backoff.
//!
//! A virtualizer node at its session or job limit answers logon /
//! `BeginLoad` / `BeginExport` with the retryable `SERVER_BUSY` code
//! instead of queueing the request. The legacy client absorbs that here:
//! the operation is re-attempted under the options' busy-retry policy
//! with capped, seeded-jitter backoff (the same deterministic schedule
//! the server uses for its cloud retries — `etlv_protocol::backoff`).
//! Any other error, and budget exhaustion, surface to the caller
//! unchanged.

use std::sync::atomic::{AtomicU64, Ordering};

use etlv_protocol::backoff::RetryPolicy;
use etlv_protocol::errcode::ErrCode;
use etlv_protocol::rng::splitmix64;

use crate::error::ClientError;

/// Process-wide seed counter for jobs that carry no trace id (exports):
/// each call yields a distinct, well-mixed jitter seed so concurrent
/// clients in one process don't retry in lockstep.
static SEED_COUNTER: AtomicU64 = AtomicU64::new(0);

pub(crate) fn next_seed() -> u64 {
    splitmix64(SEED_COUNTER.fetch_add(1, Ordering::Relaxed))
}

impl ClientError {
    /// Whether the server told us to back off and try again
    /// (`SERVER_BUSY` admission rejection).
    pub fn is_busy(&self) -> bool {
        matches!(self, ClientError::Server { code, .. } if ErrCode(*code).is_retryable())
    }
}

/// Run `op` through the one retry loop ([`RetryPolicy::retry`]),
/// retrying `SERVER_BUSY` rejections under `policy` and accumulating
/// every backed-off re-attempt into `retries`. The seed
/// decorrelates concurrent clients' schedules — pass something unique to
/// the job (the trace id) so a thundering herd spreads out. The counter
/// is atomic because a job's admission points span its control session
/// and all its parallel data-session threads; the per-job total lands in
/// `ImportResult`/`ExportResult` so the workload replay harness can
/// attribute admission pressure per job.
pub(crate) fn with_busy_retry_counted<T>(
    policy: RetryPolicy,
    seed: u64,
    retries: &AtomicU64,
    op: impl FnMut() -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let counted = || {
        retries.fetch_add(1, Ordering::Relaxed);
    };
    policy.retry(seed, ClientError::is_busy, counted, op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy() -> ClientError {
        ClientError::Server {
            code: ErrCode::SERVER_BUSY.0,
            message: "busy".into(),
        }
    }

    fn policy() -> RetryPolicy {
        RetryPolicy {
            budget: 3,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(100),
        }
    }

    /// The loop's own cases live with `RetryPolicy::retry`; this one
    /// pins which client errors it retries and what it counts.
    #[test]
    fn busy_is_retried_and_counted_other_errors_pass_through() {
        let retries = AtomicU64::new(0);
        let mut errors = vec![ClientError::Protocol("boom".into()), busy(), busy()];
        let result =
            with_busy_retry_counted(policy(), 7, &retries, || errors.pop().map_or(Ok(()), Err));
        assert!(matches!(result.unwrap_err(), ClientError::Protocol(_)));
        assert_eq!(
            errors.len(),
            0,
            "two busy replies retried, then the third call"
        );
        assert_eq!(retries.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn other_server_codes_are_not_busy() {
        assert!(!ClientError::Server {
            code: ErrCode::SHUTTING_DOWN.0,
            message: String::new()
        }
        .is_busy());
        assert!(!ClientError::Protocol("x".into()).is_busy());
        assert!(busy().is_busy());
    }
}
