//! What the benchmark knows about the machine and its own process: the
//! host fingerprint printed with every result, process CPU time and
//! rusage counters, and the fixed ALU loop that tells a reader whether
//! the machine moved between two results.

use std::process::Command;
use std::time::{Duration, Instant};

/// Concurrently active client threads / data sessions the load generator
/// allows itself: the benchmark is sized for a 2-core host, and on a
/// 1-core host a second active thread would only add scheduler noise.
pub fn concurrency_cap() -> usize {
    nproc().min(2)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Identifies the host class a result came from.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
    pub kernel: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Fingerprint {
    /// Collect the fingerprint. `rustc` and `git` are asked at run time;
    /// a checkout that is not a git repository reports `unknown`.
    pub fn collect() -> Fingerprint {
        let unknown = || "unknown".to_string();
        Fingerprint {
            nproc: nproc(),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(unknown),
            commit: command_line(
                "git",
                &[
                    "-C",
                    env!("CARGO_MANIFEST_DIR"),
                    "rev-parse",
                    "--short",
                    "HEAD",
                ],
            )
            .unwrap_or_else(unknown),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| unknown()),
        }
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nproc={} rustc=\"{}\" commit={} kernel={}",
            self.nproc, self.rustc, self.commit, self.kernel
        )
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

extern "C" {
    fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_SELF: i32 = 0;

/// CPU time consumed by every thread of this process so far.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the
    // duration of the call, and the clock id is a constant the kernel
    // defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec.max(0) as u64, ts.tv_nsec.max(0) as u32)
}

/// Context switches (voluntary + involuntary) of the whole process so
/// far, and its peak resident set in MiB.
pub fn ctx_switches_and_peak_rss_mb() -> (u64, f64) {
    // SAFETY: an all-zero `Rusage` is a valid value (plain integers), it
    // is writable for the duration of the call, and its layout matches
    // the kernel's `struct rusage` on 64-bit Linux.
    let usage = unsafe {
        let mut usage: Rusage = std::mem::zeroed();
        let rc = getrusage(RUSAGE_SELF, &mut usage);
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        usage
    };
    (
        (usage.ru_nvcsw + usage.ru_nivcsw).max(0) as u64,
        usage.ru_maxrss as f64 / 1024.0,
    )
}

/// CPU time the hypervisor has withheld from this machine's virtual CPUs
/// while they had work to run, summed over all of them, since boot: the
/// `steal` column of `/proc/stat` (in `USER_HZ` = 1/100 s units). Zero on
/// hardware that reports none.
pub fn steal() -> Duration {
    let ticks = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)
                .and_then(|v| v.parse::<u64>().ok())
        })
        .unwrap_or(0);
    Duration::from_millis(ticks * 10)
}

/// OS threads in this process right now.
pub fn threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// A fixed single-thread ALU loop (a few milliseconds). Its wall time is
/// reported beside the results and never used to normalise them: it says
/// whether the host's raw speed differed between two runs.
pub fn spin() -> Duration {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..2_000_000u64 {
        x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(31);
    }
    std::hint::black_box(x);
    started.elapsed()
}
