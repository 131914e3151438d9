//! Capped exponential backoff with deterministic jitter.
//!
//! This is the retry schedule *and loop* shared by both sides of the
//! wire: the virtualizer's uploader and application phase retry transient
//! cloud failures through [`RetryPolicy::retry`], and the legacy client
//! runs the same loop to back off when the server answers `SERVER_BUSY`
//! at admission. It lives
//! in the protocol crate because the client links only against the
//! protocol layer, never the virtualizer core.
//!
//! Determinism is the point: jitter derives from a caller-supplied seed
//! and the attempt number, never from wall-clock or a global RNG, so a
//! chaos run replays the exact same schedule every time.

use std::time::Duration;

// The mixer moved to the shared seeded-RNG utility (`crate::rng`);
// re-exported here because the fault injector and the client's busy-retry
// historically import it from this path.
pub use crate::rng::splitmix64;

/// Retry policy: how many times to retry a failed operation and how to
/// space the attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries per operation (0 = fail on first error). This is
    /// the per-job budget each upload/statement draws from.
    pub budget: u32,
    /// First backoff delay.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            budget: 4,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// A backoff schedule for one operation, jittered by `seed`.
    pub fn backoff(&self, seed: u64) -> Backoff {
        Backoff {
            base: self.base,
            cap: self.cap,
            seed,
            attempt: 0,
            prev: Duration::ZERO,
        }
    }

    /// Run `op`, retrying the failures `retryable` accepts up to `budget`
    /// times, sleeping this policy's backoff (jittered by `seed`) before
    /// each retry and calling `counted` once per retry, so each caller
    /// keeps its own count. Returns the last result either way.
    pub fn retry<T, E>(
        &self,
        seed: u64,
        retryable: impl Fn(&E) -> bool,
        mut counted: impl FnMut(),
        mut op: impl FnMut() -> Result<T, E>,
    ) -> Result<T, E> {
        let mut backoff = self.backoff(seed);
        let mut attempts = 0u32;
        loop {
            match op() {
                Err(e) if attempts < self.budget && retryable(&e) => {
                    attempts += 1;
                    counted();
                    std::thread::sleep(backoff.next_delay());
                }
                result => return result,
            }
        }
    }
}

/// Capped exponential backoff with deterministic jitter.
///
/// The schedule is monotone non-decreasing (each delay is at least the
/// previous one) and never exceeds `cap`. Jitter adds up to 50% of the
/// un-jittered delay, derived from `seed` and the attempt number — the
/// same seed always produces the same schedule.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    seed: u64,
    attempt: u32,
    prev: Duration,
}

impl Backoff {
    /// The delay to sleep before the next attempt.
    pub fn next_delay(&mut self) -> Duration {
        let doubling = self.attempt.min(20);
        let raw = self.base.saturating_mul(1u32 << doubling);
        // 53-bit mantissa fraction in [0, 1).
        let frac = (splitmix64(self.seed ^ self.attempt as u64) >> 11) as f64 / (1u64 << 53) as f64;
        let jittered = raw.saturating_add(raw.mul_f64(0.5 * frac));
        let delay = jittered.min(self.cap).max(self.prev);
        self.prev = delay;
        self.attempt += 1;
        delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run the loop over an `op` that fails `failures` times with `err`
    /// (retryable when it is "busy"), then succeeds: (result, calls,
    /// retries counted).
    fn run(failures: u32, err: &'static str) -> (Result<u32, &'static str>, u32, u64) {
        let policy = RetryPolicy {
            budget: 3,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(100),
        };
        let (mut calls, mut retries) = (0, 0);
        let result = policy.retry(
            7,
            |e: &&str| *e == "busy",
            || retries += 1,
            || {
                calls += 1;
                if calls <= failures {
                    Err(err)
                } else {
                    Ok(calls)
                }
            },
        );
        (result, calls, retries)
    }

    #[test]
    fn retry_loop_budget_predicate_and_count() {
        // Succeeds on the third attempt, each retry counted once.
        assert_eq!(run(2, "busy"), (Ok(3), 3, 2));
        // Budget exhausted: the initial attempt plus three retries, then
        // the last error surfaces.
        assert_eq!(run(9, "busy"), (Err("busy"), 4, 3));
        // An error the predicate refuses passes through at once.
        assert_eq!(run(9, "fatal"), (Err("fatal"), 1, 0));
    }

    #[test]
    fn backoff_is_monotone_capped_and_deterministic() {
        let policy = RetryPolicy {
            budget: 10,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(40),
        };
        let schedule: Vec<Duration> = std::iter::repeat_with({
            let mut b = policy.backoff(7);
            move || b.next_delay()
        })
        .take(12)
        .collect();
        let again: Vec<Duration> = std::iter::repeat_with({
            let mut b = policy.backoff(7);
            move || b.next_delay()
        })
        .take(12)
        .collect();
        assert_eq!(schedule, again, "same seed, same schedule");
        for pair in schedule.windows(2) {
            assert!(pair[1] >= pair[0], "monotone: {schedule:?}");
        }
        assert!(schedule.iter().all(|d| *d <= policy.cap), "{schedule:?}");
        assert_eq!(*schedule.last().unwrap(), policy.cap, "reaches the cap");
        let other: Vec<Duration> = std::iter::repeat_with({
            let mut b = policy.backoff(8);
            move || b.next_delay()
        })
        .take(12)
        .collect();
        assert_ne!(schedule, other, "different seed, different jitter");
    }

    #[test]
    fn splitmix_is_a_bijective_looking_mixer() {
        // Smoke: distinct inputs map to distinct outputs and zero isn't a
        // fixed point — enough to catch a botched constant.
        let a = splitmix64(0);
        let b = splitmix64(1);
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert_eq!(splitmix64(12345), splitmix64(12345));
    }
}
