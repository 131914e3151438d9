//! Always-on continuous profiling: per-stage CPU vs wall
//! accounting, instrumented lock primitives, and the collapsed-stack
//! ("folded") flamegraph behind the `Profile` introspection topic.
//!
//! Three data sources feed one report:
//!
//! 1. **Thread CPU clocks** — [`CpuTimer`] samples the calling thread's
//!    CPU clock (`CLOCK_THREAD_CPUTIME_ID` on Linux) at span boundaries,
//!    so each pipeline stage accumulates wall *and* CPU microseconds. A
//!    stage whose CPU ≪ wall is blocked (lock, I/O, sleep); CPU ≈ wall
//!    means compute-bound. Platforms without the clock degrade to
//!    wall-only (samples stay 0, nothing breaks).
//! 2. **Tracked locks** — [`TrackedMutex`]/[`TrackedCondvar`] wrap the
//!    parking_lot primitives with a static site name, counting
//!    acquisitions, contended acquisitions (the fast `try_lock` missed),
//!    wait-time and hold-time histograms.
//! 3. **The span journal** — completed jobs' critical-path attribution
//!    ([`crate::trace::JobTrace`]) is re-aggregated into folded
//!    flamegraph lines (`job;acquisition;convert 1234`), the input format
//!    of every flamegraph renderer (`obs_dump --profile` draws them as an
//!    ASCII flame tree).

use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use super::{Counter, Histogram, HistogramSnapshot, Obs, SpanEvent};
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

// ----------------------------------------------------------- lock sites

/// Per-site lock statistics: one block per static site name, interned in
/// the registry like tenants (bounded cardinality) — a typed view whose
/// handles are the registered `lock.site.*{site="<name>"}` series. Wait
/// time is how long a contended acquire blocked; hold time is how long
/// the guard lived.
/// Every record also bumps the registry-level `lock.*` aggregates so the
/// sampler can follow total contention as one rate series.
pub struct LockSiteObs {
    /// The static site name, e.g. `"runtime.state"` or `"cdw.table/T1"`.
    pub site: String,
    /// Total acquisitions (contended + uncontended).
    pub acquires: Counter,
    /// Acquisitions that missed the fast path and had to block.
    pub contended: Counter,
    /// Blocked time per contended acquire, µs.
    pub wait_us: Histogram,
    /// Guard lifetime per acquisition, µs.
    pub hold_us: Histogram,
    /// Registry-wide aggregate clones (`lock.acquires`, `lock.contended`,
    /// `lock.wait_us`) bumped alongside the per-site handles.
    pub(crate) agg_acquires: Counter,
    pub(crate) agg_contended: Counter,
    pub(crate) agg_wait_us: Counter,
}

impl LockSiteObs {
    /// Record an acquisition that took the fast path.
    #[inline]
    pub fn acquired_uncontended(&self) {
        self.acquires.inc();
        self.agg_acquires.inc();
    }

    /// Record an acquisition that blocked for `wait`.
    #[inline]
    pub fn acquired_after(&self, wait: Duration) {
        let us = wait.as_micros() as u64;
        self.acquires.inc();
        self.agg_acquires.inc();
        self.contended.inc();
        self.agg_contended.inc();
        self.wait_us.record(us);
        self.agg_wait_us.add(us);
    }

    /// Record how long a guard was held.
    #[inline]
    pub fn held(&self, dur: Duration) {
        self.hold_us.record_duration(dur);
    }

    /// Point-in-time view of this site.
    pub fn snapshot(&self) -> LockSiteSnapshot {
        LockSiteSnapshot {
            site: self.site.clone(),
            acquires: self.acquires.value(),
            contended: self.contended.value(),
            wait_us: self.wait_us.snapshot(),
            hold_us: self.hold_us.snapshot(),
        }
    }
}

/// Point-in-time view of one lock site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockSiteSnapshot {
    /// Site name.
    pub site: String,
    /// Total acquisitions.
    pub acquires: u64,
    /// Contended acquisitions.
    pub contended: u64,
    /// Blocked-time histogram, µs.
    pub wait_us: HistogramSnapshot,
    /// Hold-time histogram, µs.
    pub hold_us: HistogramSnapshot,
}

impl LockSiteSnapshot {
    /// One JSON object (embedded in the Profile document).
    pub fn to_json(&self) -> String {
        let h = super::render::histogram_json;
        format!(
            "{{\"site\": \"{}\", \"acquires\": {}, \"contended\": {}, \
             \"wait_us\": {}, \"hold_us\": {}}}",
            super::render::json_escape(&self.site),
            self.acquires,
            self.contended,
            h(&self.wait_us),
            h(&self.hold_us),
        )
    }
}

// --------------------------------------------------------- tracked locks

/// A `parking_lot::Mutex` that reports to a [`LockSiteObs`]. The fast
/// path is one `try_lock`; only a miss times the wait.
pub struct TrackedMutex<T> {
    inner: Mutex<T>,
    site: Arc<LockSiteObs>,
}

impl<T> TrackedMutex<T> {
    /// Wrap `value` under the given site.
    pub fn new(site: Arc<LockSiteObs>, value: T) -> TrackedMutex<T> {
        TrackedMutex {
            inner: Mutex::new(value),
            site,
        }
    }

    /// Acquire, recording contention and (on drop) hold time.
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        let guard = match self.inner.try_lock() {
            Some(guard) => {
                self.site.acquired_uncontended();
                guard
            }
            None => {
                let blocked = Instant::now();
                let guard = self.inner.lock();
                self.site.acquired_after(blocked.elapsed());
                guard
            }
        };
        TrackedMutexGuard {
            guard,
            site: &self.site,
            held_from: Instant::now(),
        }
    }

    /// The site this lock reports to.
    pub fn site(&self) -> &Arc<LockSiteObs> {
        &self.site
    }
}

/// Guard for [`TrackedMutex`]; records hold time on drop.
pub struct TrackedMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    site: &'a Arc<LockSiteObs>,
    held_from: Instant,
}

impl<T> Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.site.held(self.held_from.elapsed());
    }
}

/// A `parking_lot::Condvar` that reports wait time to a [`LockSiteObs`].
/// The guard's hold timer pauses across the wait, so `hold_us` measures
/// time actually holding the lock, not time asleep on the condvar.
pub struct TrackedCondvar {
    inner: Condvar,
    site: Arc<LockSiteObs>,
}

impl TrackedCondvar {
    /// New condvar reporting under `site`.
    pub fn new(site: Arc<LockSiteObs>) -> TrackedCondvar {
        TrackedCondvar {
            inner: Condvar::new(),
            site,
        }
    }

    /// Block until notified. Records the sleep as a contended acquire of
    /// the site (wait histogram + contended counter).
    pub fn wait<T>(&self, guard: &mut TrackedMutexGuard<'_, T>) {
        guard.site.held(guard.held_from.elapsed());
        let slept = Instant::now();
        self.inner.wait(&mut guard.guard);
        self.site.acquired_after(slept.elapsed());
        guard.held_from = Instant::now();
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// The site this condvar reports to.
    pub fn site(&self) -> &Arc<LockSiteObs> {
        &self.site
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

/// How many contended lock sites the Profile reply ranks.
pub const PROFILE_TOP_K: usize = 16;

/// The full profiling view behind `Virtualizer::profile()` and the
/// `Profile` introspection topic: per-stage CPU/wall, top-K contended lock
/// sites (ranked by total wait, contended-only), pool utilization, and
/// the folded flamegraph.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Per-stage CPU/wall accounting.
    pub stages: Vec<StageCpuProfile>,
    /// Top-K lock sites with at least one contended acquire, ranked by
    /// total blocked time descending. Uncontended sites never rank — a
    /// cold system reports an empty list.
    pub locks: Vec<LockSiteSnapshot>,
    /// Worker-pool utilization counters.
    pub pool: PoolProfile,
    /// Jobs whose traces contributed to the folded flamegraph.
    pub folded_jobs: u64,
    /// Collapsed-stack flamegraph text (`path value` lines, µs).
    pub folded: String,
}

impl ProfileReport {
    /// Collect the report from a node's hub: stage counters, the
    /// registry's interned lock sites, pool gauges, and the journal.
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
        let mut locks: Vec<LockSiteSnapshot> = obs
            .registry
            .lock_site_snapshots()
            .into_iter()
            .filter(|s| s.contended > 0)
            .collect();
        locks.sort_by(|a, b| {
            b.wait_us
                .sum
                .cmp(&a.wait_us.sum)
                .then_with(|| a.site.cmp(&b.site))
        });
        locks.truncate(PROFILE_TOP_K);
        let pool = PoolProfile {
            workers: obs.runtime.workers.value(),
            busy_workers: obs.pool.busy_workers.value(),
            idle_wakeups: obs.pool.idle_wakeups.value(),
            rr_skips: obs.pool.rr_skips.value(),
        };
        let (folded, folded_jobs) = folded_flamegraph(&obs.journal.tail(obs.journal.retained()));
        ProfileReport {
            stages,
            locks,
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
        out.push_str("  \"locks\": [");
        for (i, l) in self.locks.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            out.push_str(&l.to_json());
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

    fn site(registry: &super::super::MetricsRegistry, name: &str) -> Arc<LockSiteObs> {
        registry.lock_site(name)
    }

    #[test]
    fn tracked_mutex_counts_uncontended_acquires() {
        let reg = super::super::MetricsRegistry::new();
        let m = TrackedMutex::new(site(&reg, "test.m"), 7u64);
        {
            let mut guard = m.lock();
            *guard += 1;
        }
        assert_eq!(*m.lock(), 8);
        let snap = m.site().snapshot();
        assert_eq!(snap.acquires, 2);
        assert_eq!(snap.contended, 0);
        assert_eq!(snap.hold_us.count, 2, "hold recorded on both drops");
    }

    #[test]
    fn tracked_mutex_detects_contention() {
        let reg = super::super::MetricsRegistry::new();
        let m = Arc::new(TrackedMutex::new(site(&reg, "test.contended"), 0u64));
        let m2 = Arc::clone(&m);
        let guard = m.lock();
        let t = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g += 1;
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(guard);
        t.join().unwrap();
        let snap = m.site().snapshot();
        assert_eq!(snap.acquires, 2);
        assert_eq!(snap.contended, 1, "second acquire blocked");
        assert!(
            snap.wait_us.sum >= 10_000,
            "blocked ≥ 10ms, saw {}us",
            snap.wait_us.sum
        );
    }

    #[test]
    fn tracked_condvar_records_wait_and_pauses_hold() {
        let reg = super::super::MetricsRegistry::new();
        let m = Arc::new(TrackedMutex::new(site(&reg, "test.cv.lock"), false));
        let cv = Arc::new(TrackedCondvar::new(site(&reg, "test.cv")));
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let waiter = std::thread::spawn(move || {
            let mut guard = m2.lock();
            while !*guard {
                cv2.wait(&mut guard);
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        *m.lock() = true;
        cv.notify_all();
        waiter.join().unwrap();
        let cv_snap = cv.site().snapshot();
        assert!(cv_snap.contended >= 1, "condvar wait recorded");
        assert!(cv_snap.wait_us.sum >= 5_000, "slept ≥ 5ms");
        // The waiter held the lock across a 20ms sleep, but hold time
        // pauses during the wait — p99 hold must be far below the sleep.
        let lock_snap = m.site().snapshot();
        assert!(
            lock_snap.hold_us.max < 15_000,
            "hold timer paused during wait, saw {}us",
            lock_snap.hold_us.max
        );
    }

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
            locks: vec![LockSiteSnapshot {
                site: "cdw.table/\"T\"".into(),
                acquires: 10,
                contended: 3,
                ..Default::default()
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
            "\"site\": \"cdw.table/\\\"T\\\"\"",
            "\"contended\": 3",
            "\"pool\": {\"workers\": 4, \"busy_workers\": 2",
            "\"folded_jobs\": 1",
            "\"folded\": \"job;other 5\\n\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }
}
