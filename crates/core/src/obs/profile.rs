//! Per-thread CPU clock behind the stage profiles ([`super::StageProf`]):
//! [`CpuTimer`] samples the calling thread's CPU clock
//! (`CLOCK_THREAD_CPUTIME_ID` on Linux) at span boundaries, so each
//! pipeline stage accumulates CPU microseconds in the
//! `profile.<stage>.{cpu_us,samples}` series beside its wall histogram
//! (the tenant's, or `adaptive.copy_us`). A stage whose CPU ≪ wall is
//! blocked (lock, I/O, sleep); CPU ≈ wall means compute-bound. Platforms
//! without the clock degrade to wall-only (samples stay 0, nothing
//! breaks).

use std::time::Duration;

/// Current thread's consumed CPU time, if the platform exposes a
/// per-thread CPU clock. Linux: `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`
/// via a direct libc call (the workspace carries no libc crate; the
/// symbol is in every glibc/musl the toolchain links anyway). Elsewhere:
/// `None`, and stage profiles stay wall-only.
#[cfg(target_os = "linux")]
fn thread_cpu_time() -> Option<Duration> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, initialized `struct timespec` with the C
    // layout (two 64-bit fields on the Linux targets this builds for); the
    // call writes it and keeps no pointer to it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        debug_assert!((0..1_000_000_000).contains(&ts.tv_nsec), "{}", ts.tv_nsec);
        Some(Duration::new(ts.tv_sec.max(0) as u64, ts.tv_nsec as u32))
    } else {
        None
    }
}

/// Non-Linux fallback: no per-thread CPU clock, stage profiles stay
/// wall-only.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_time() -> Option<Duration> {
    None
}

/// A started CPU-time measurement on the current thread. `start` samples
/// the thread CPU clock (or nothing when the clock is unavailable);
/// `elapsed` yields the CPU consumed since, `None` when
/// either sample failed. Must be read on the thread that started it.
pub struct CpuTimer(Option<Duration>);

impl CpuTimer {
    /// Sample the thread CPU clock now.
    #[inline]
    pub fn start() -> CpuTimer {
        CpuTimer(thread_cpu_time())
    }

    /// CPU time consumed by this thread since `start`.
    #[inline]
    pub fn elapsed(&self) -> Option<Duration> {
        let started = self.0?;
        thread_cpu_time().map(|now| now.saturating_sub(started))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_timer_is_monotone_or_absent() {
        let timer = CpuTimer::start();
        // Burn a little CPU so a working clock shows progress.
        let mut acc = 0u64;
        for i in 0..200_000u64 {
            acc = acc.wrapping_add(i * i);
        }
        std::hint::black_box(acc);
        match timer.elapsed() {
            Some(cpu) => assert!(cpu >= Duration::ZERO),
            None if cfg!(target_os = "linux") => {
                panic!("a linux build must expose the thread CPU clock")
            }
            None => {}
        }
    }
}
