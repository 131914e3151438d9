//! Always-on continuous profiling: per-stage CPU vs wall accounting and
//! the collapsed-stack ("folded") flamegraph behind the `Profile`
//! introspection topic.
//!
//! Two data sources feed one report:
//!
//! 1. **Thread CPU clocks** — [`CpuTimer`] samples the calling thread's
//!    CPU clock (`CLOCK_THREAD_CPUTIME_ID` on Linux) at span boundaries,
//!    so each pipeline stage accumulates wall *and* CPU microseconds. A
//!    stage whose CPU ≪ wall is blocked (lock, I/O, sleep); CPU ≈ wall
//!    means compute-bound. Platforms without the clock degrade to
//!    wall-only (samples stay 0, nothing breaks).
//! 2. **The span journal** — completed jobs' critical-path attribution
//!    ([`crate::trace::JobTrace`]) is re-aggregated into folded
//!    flamegraph lines (`job;acquisition;convert 1234`), the input format
//!    of every flamegraph renderer (`obs_dump --profile` draws them as an
//!    ASCII flame tree).

use std::time::Duration;

use super::{Obs, SpanEvent};
use crate::trace::JobTrace;

// --------------------------------------------------------------- CPU clock

/// Current thread's consumed CPU time, if the platform exposes a
/// per-thread CPU clock. Linux: `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`
/// via a direct libc call (the workspace carries no libc crate; the
/// symbol is in every glibc/musl the toolchain links anyway). Elsewhere:
/// `None`, and stage profiles stay wall-only.
#[cfg(target_os = "linux")]
pub fn thread_cpu_time() -> Option<Duration> {
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
pub fn thread_cpu_time() -> Option<Duration> {
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

// ------------------------------------------------------- folded flamegraph

/// Map a trace attribution stage to its folded-stack path. The hierarchy
/// mirrors the job phases: acquisition (ack wait, queue, convert, upload,
/// COPY) and application (apply), with unattributed time under
/// `job;other`. Leaf values are the attribution values verbatim, so
/// folded per-stage totals reconcile exactly with `JobTrace`.
fn folded_path(stage: &str) -> &'static str {
    match stage {
        "ack_wait" => "job;acquisition;ack_wait",
        "queue_wait" => "job;acquisition;queue_wait",
        "convert" => "job;acquisition;convert",
        "upload" => "job;acquisition;upload",
        "copy" => "job;acquisition;copy",
        "apply" => "job;application;apply",
        _ => "job;other",
    }
}

/// Aggregate the journal's retained events into collapsed-stack
/// ("folded") flamegraph text: one `path value` line per stack, the
/// input format of standard flamegraph tooling. Returns the text plus
/// how many jobs contributed (jobs whose `job.begin` survives in the
/// ring). Values are microseconds of attributed wall time.
pub fn folded_flamegraph(events: &[SpanEvent]) -> (String, u64) {
    use std::collections::BTreeMap;
    let mut by_job: BTreeMap<u64, Vec<SpanEvent>> = BTreeMap::new();
    for ev in events {
        if ev.job != 0 {
            by_job.entry(ev.job).or_default().push(*ev);
        }
    }
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut jobs = 0u64;
    for evs in by_job.values() {
        let Some(trace) = JobTrace::assemble(evs) else {
            continue;
        };
        jobs += 1;
        for (stage, micros) in &trace.attribution {
            if *micros > 0 {
                *totals.entry(folded_path(stage)).or_default() += micros;
            }
        }
    }
    let mut out = String::new();
    for (path, micros) in &totals {
        out.push_str(&format!("{path} {micros}\n"));
    }
    (out, jobs)
}

// ----------------------------------------------------------- the report

/// One stage's CPU/wall accounting in a [`ProfileReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageCpuProfile {
    /// Stage name (`convert`/`upload`/`copy`/`apply`).
    pub stage: &'static str,
    /// Wall time accumulated across all sampled executions, µs.
    pub wall_us: u64,
    /// Thread CPU time accumulated across all sampled executions, µs.
    pub cpu_us: u64,
    /// Executions where a CPU sample pair succeeded.
    pub samples: u64,
}

/// Worker-pool utilization in a [`ProfileReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolProfile {
    /// Worker threads the runtime is sized to.
    pub workers: u64,
    /// Workers executing a chunk right now.
    pub busy_workers: u64,
    /// Worker wakeups that found no work.
    pub idle_wakeups: u64,
    /// Round-robin job slots scanned past while finding work.
    pub rr_skips: u64,
}

/// The full profiling view behind `Virtualizer::profile()` and the
/// `Profile` introspection topic: per-stage CPU/wall, pool utilization,
/// and the folded flamegraph.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Per-stage CPU/wall accounting.
    pub stages: Vec<StageCpuProfile>,
    /// Worker-pool utilization counters.
    pub pool: PoolProfile,
    /// Jobs whose traces contributed to the folded flamegraph.
    pub folded_jobs: u64,
    /// Collapsed-stack flamegraph text (`path value` lines, µs).
    pub folded: String,
}

impl ProfileReport {
    /// Collect the report from a node's hub: stage counters, pool
    /// gauges, and the journal.
    pub fn collect(obs: &Obs) -> ProfileReport {
        let stage = |name: &'static str, p: &super::StageProf| StageCpuProfile {
            stage: name,
            wall_us: p.wall_us.sum(),
            cpu_us: p.cpu_us.value(),
            samples: p.samples.value(),
        };
        let stages = vec![
            stage("convert", &obs.profile.convert),
            stage("upload", &obs.profile.upload),
            stage("copy", &obs.profile.copy),
            stage("apply", &obs.profile.apply),
        ];
        let pool = PoolProfile {
            workers: obs.runtime.workers.value(),
            busy_workers: obs.pool.busy_workers.value(),
            idle_wakeups: obs.pool.idle_wakeups.value(),
            rr_skips: obs.pool.rr_skips.value(),
        };
        let (folded, folded_jobs) = folded_flamegraph(&obs.journal.tail(obs.journal.retained()));
        ProfileReport {
            stages,
            pool,
            folded_jobs,
            folded,
        }
    }

    /// The report as one JSON document (the `Profile` wire reply body in
    /// JSON format).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        out.push_str("  \"stages\": [");
        for (i, s) in self.stages.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"stage\": \"{}\", \"wall_us\": {}, \"cpu_us\": {}, \"samples\": {}}}",
                s.stage, s.wall_us, s.cpu_us, s.samples
            ));
        }
        out.push_str("\n  ],\n");
        out.push_str(&format!(
            "  \"pool\": {{\"workers\": {}, \"busy_workers\": {}, \"idle_wakeups\": {}, \
             \"rr_skips\": {}}},\n",
            self.pool.workers, self.pool.busy_workers, self.pool.idle_wakeups, self.pool.rr_skips,
        ));
        out.push_str(&format!("  \"folded_jobs\": {},\n", self.folded_jobs));
        out.push_str(&format!(
            "  \"folded\": \"{}\"\n",
            super::render::json_escape(&self.folded)
        ));
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::SpanIds;
    use super::*;

    fn ev(kind: &'static str, span: u64, parent: u64, at: u64, dur: u64, job: u64) -> SpanEvent {
        SpanEvent {
            seq: span,
            at_micros: at,
            kind,
            ids: SpanIds {
                trace: 1,
                span,
                parent,
            },
            job,
            session: 0,
            chunk: 0,
            value: 0,
            dur_micros: dur,
        }
    }

    #[test]
    fn folded_flamegraph_reconciles_with_trace_attribution() {
        // job.begin at 0; convert completes at 400 (dur 300); apply
        // completes at 1000 (dur 500); job.end wall 1000.
        let events = vec![
            ev("job.begin", 1, 0, 0, 0, 9),
            ev("chunk.convert", 2, 1, 400, 300, 9),
            ev("apply", 3, 1, 1000, 500, 9),
            ev("job.end", 1, 0, 1000, 1000, 9),
        ];
        let (folded, jobs) = folded_flamegraph(&events);
        assert_eq!(jobs, 1);
        assert!(folded.contains("job;acquisition;convert 300"), "{folded}");
        assert!(folded.contains("job;application;apply 500"), "{folded}");
        assert!(folded.contains("job;other 200"), "{folded}");
        // Folded totals partition the wall exactly, like the trace.
        let trace = JobTrace::assemble(&events).unwrap();
        let folded_total: u64 = folded
            .lines()
            .filter_map(|l| l.rsplit_once(' '))
            .filter_map(|(_, v)| v.parse::<u64>().ok())
            .sum();
        assert_eq!(folded_total, trace.wall_micros);
    }

    #[test]
    fn folded_flamegraph_skips_jobs_without_begin() {
        let events = vec![ev("chunk.convert", 2, 1, 400, 300, 9)];
        let (folded, jobs) = folded_flamegraph(&events);
        assert_eq!(jobs, 0);
        assert!(folded.is_empty());
    }

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

    #[test]
    fn profile_report_json_shape() {
        let report = ProfileReport {
            stages: vec![StageCpuProfile {
                stage: "convert",
                wall_us: 100,
                cpu_us: 80,
                samples: 4,
            }],
            pool: PoolProfile {
                workers: 4,
                busy_workers: 2,
                ..Default::default()
            },
            folded_jobs: 1,
            folded: "job;other 5\n".into(),
        };
        let json = report.to_json();
        for needle in [
            "\"stage\": \"convert\"",
            "\"wall_us\": 100",
            "\"cpu_us\": 80",
            "\"pool\": {\"workers\": 4, \"busy_workers\": 2",
            "\"folded_jobs\": 1",
            "\"folded\": \"job;other 5\\n\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }
}
