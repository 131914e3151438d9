//! Background time-series sampler: snapshots selected counters and gauges
//! on a fixed tick into bounded per-metric rings, turning the registry's
//! monotonic totals into Fig. 8/9-style rate-over-time series.
//!
//! Design constraints:
//!
//! - The sampled subsystems never see the sampler: it reads the same
//!   [`MetricsRegistry`] snapshots the Stats topic does, so the hot
//!   path cost is zero regardless of tick rate.
//! - Rings are bounded (`capacity` points per metric); old points fall
//!   off the front, so a long-running node holds a sliding window rather
//!   than growing without bound.
//! - Rates are derived at render time from consecutive counter deltas
//!   (`rate_per_s`); gauges render their raw value with a zero rate.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use super::Obs;

/// Whether a sampled metric is a monotonic counter (rates are meaningful)
/// or a gauge (instantaneous level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SampleKind {
    Counter,
    Gauge,
}

/// One observation: the sampler-relative timestamp and the raw value.
#[derive(Debug, Clone, Copy)]
struct Point {
    t_micros: u64,
    value: u64,
}

struct Series {
    metric: &'static str,
    /// `None` for node-global series; `Some(name)` for a per-tenant ring
    /// discovered dynamically from registry snapshots.
    tenant: Option<String>,
    kind: SampleKind,
    points: VecDeque<Point>,
}

struct SamplerInner {
    epoch: Instant,
    tick: Duration,
    capacity: usize,
    /// Tenant-block metric names (e.g. `chunks`, `rows_applied`) to track
    /// per tenant; tenants themselves are discovered at snapshot time.
    tenant_metrics: &'static [&'static str],
    series: Mutex<Vec<Series>>,
    /// Set by [`Sampler::stop`], which also notifies `wake` so the
    /// thread leaves its between-ticks wait at once.
    stop: Mutex<bool>,
    wake: Condvar,
    thread: Mutex<Option<JoinHandle<()>>>,
}

/// Handle to the background sampling thread. Cloning shares the rings;
/// [`Sampler::stop`] joins the thread (also done on the owning node's
/// drop).
#[derive(Clone)]
pub struct Sampler {
    inner: Arc<SamplerInner>,
}

impl Sampler {
    /// Start sampling `metrics` (registry counter/gauge names) every
    /// `tick`, retaining up to `capacity` points per metric. `refresh` is
    /// invoked before each snapshot so gauge-backed values (credit
    /// occupancy, memory, fault totals) are current. `tenant_metrics`
    /// names tenant-block metrics sampled per tenant; tenant series are
    /// created lazily as tenants appear in snapshots.
    pub fn start(
        obs: Arc<Obs>,
        refresh: Box<dyn Fn() + Send + Sync>,
        tick: Duration,
        capacity: usize,
        metrics: &'static [&'static str],
        tenant_metrics: &'static [&'static str],
    ) -> Sampler {
        let inner = Arc::new(SamplerInner {
            epoch: Instant::now(),
            tick,
            capacity: capacity.max(2),
            tenant_metrics,
            series: Mutex::new(
                metrics
                    .iter()
                    .map(|&metric| Series {
                        metric,
                        tenant: None,
                        // Kind is resolved on first observation; counters
                        // dominate the default set, so start there.
                        kind: SampleKind::Counter,
                        points: VecDeque::new(),
                    })
                    .collect(),
            ),
            stop: Mutex::new(false),
            wake: Condvar::new(),
            thread: Mutex::new(None),
        });
        let sampler = Sampler {
            inner: Arc::clone(&inner),
        };
        let handle = std::thread::Builder::new()
            .name("etlv-sampler".into())
            .spawn(move || {
                // Sample first, then check for stop: even a sampler
                // stopped right after start() holds one point per metric.
                loop {
                    refresh();
                    let snap = obs.registry.snapshot();
                    let now = inner.epoch.elapsed().as_micros() as u64;
                    let mut series = inner.series.lock();
                    for s in series.iter_mut() {
                        let (value, kind) = if let Some((_, v)) =
                            snap.counters.iter().find(|(n, _)| *n == s.metric)
                        {
                            (Some(*v), SampleKind::Counter)
                        } else if let Some((_, v)) =
                            snap.gauges.iter().find(|(n, _)| *n == s.metric)
                        {
                            (Some(*v), SampleKind::Gauge)
                        } else {
                            (None, s.kind)
                        };
                        if let Some(value) = value {
                            s.kind = kind;
                            if s.points.len() == inner.capacity {
                                s.points.pop_front();
                            }
                            s.points.push_back(Point {
                                t_micros: now,
                                value,
                            });
                        }
                    }
                    // Tenant series: discovered from the snapshot so a
                    // tenant interned after start() still gets rings.
                    for t in &snap.tenants {
                        for &metric in inner.tenant_metrics {
                            let (value, kind) = if let Some((_, v)) =
                                t.counters.iter().find(|(n, _)| n == metric)
                            {
                                (*v, SampleKind::Counter)
                            } else if let Some((_, v)) = t.gauges.iter().find(|(n, _)| n == metric)
                            {
                                (*v, SampleKind::Gauge)
                            } else {
                                continue;
                            };
                            let s = match series.iter_mut().find(|s| {
                                s.metric == metric && s.tenant.as_deref() == Some(&t.tenant)
                            }) {
                                Some(s) => s,
                                None => {
                                    series.push(Series {
                                        metric,
                                        tenant: Some(t.tenant.clone()),
                                        kind,
                                        points: VecDeque::new(),
                                    });
                                    series.last_mut().expect("just pushed")
                                }
                            };
                            s.kind = kind;
                            if s.points.len() == inner.capacity {
                                s.points.pop_front();
                            }
                            s.points.push_back(Point {
                                t_micros: now,
                                value,
                            });
                        }
                    }
                    drop(series);
                    let deadline = Instant::now() + inner.tick;
                    let mut stop = inner.stop.lock();
                    while !*stop && Instant::now() < deadline {
                        inner.wake.wait_until(&mut stop, deadline);
                    }
                    if *stop {
                        break;
                    }
                }
            })
            .expect("spawn sampler thread");
        *sampler.inner.thread.lock() = Some(handle);
        sampler
    }

    /// Stop the sampling thread and join it. Idempotent; the rings stay
    /// readable afterwards.
    pub fn stop(&self) {
        *self.inner.stop.lock() = true;
        self.inner.wake.notify_all();
        if let Some(handle) = self.inner.thread.lock().take() {
            let _ = handle.join();
        }
    }

    /// Render every ring as a JSON document. Counters get a derived
    /// `rate_per_s` from consecutive deltas (first point rates 0); gauges
    /// report their raw level.
    pub fn series_json(&self) -> String {
        let series = self.inner.series.lock();
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"enabled\": true, \"tick_micros\": {}, \"series\": [",
            self.inner.tick.as_micros()
        ));
        for (i, s) in series.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let tenant = match &s.tenant {
                Some(t) => format!("\"tenant\": \"{}\", ", super::render::json_escape(t)),
                None => String::new(),
            };
            out.push_str(&format!(
                "  {{\"metric\": \"{}\", {tenant}\"kind\": \"{}\", \"points\": [",
                s.metric,
                match s.kind {
                    SampleKind::Counter => "counter",
                    SampleKind::Gauge => "gauge",
                }
            ));
            let mut prev: Option<Point> = None;
            for (j, p) in s.points.iter().enumerate() {
                let rate = match (s.kind, prev) {
                    (SampleKind::Counter, Some(q)) if p.t_micros > q.t_micros => {
                        (p.value.saturating_sub(q.value)) as f64
                            / ((p.t_micros - q.t_micros) as f64 / 1e6)
                    }
                    _ => 0.0,
                };
                out.push_str(if j == 0 { "" } else { ", " });
                out.push_str(&format!(
                    "{{\"t_micros\": {}, \"value\": {}, \"rate_per_s\": {rate:.3}}}",
                    p.t_micros, p.value
                ));
                prev = Some(*p);
            }
            out.push_str("]}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Number of points currently held for the node-global `metric`
    /// (0 if unknown).
    pub fn points_for(&self, metric: &str) -> usize {
        self.inner
            .series
            .lock()
            .iter()
            .find(|s| s.metric == metric && s.tenant.is_none())
            .map_or(0, |s| s.points.len())
    }

    /// Number of points currently held for `metric` under `tenant`
    /// (0 if that series does not exist).
    pub fn tenant_points_for(&self, metric: &str, tenant: &str) -> usize {
        self.inner
            .series
            .lock()
            .iter()
            .find(|s| s.metric == metric && s.tenant.as_deref() == Some(tenant))
            .map_or(0, |s| s.points.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_counters_into_bounded_rings() {
        let obs = Arc::new(Obs::new(64, None));
        let sampler = Sampler::start(
            Arc::clone(&obs),
            Box::new(|| {}),
            Duration::from_millis(5),
            4,
            &[
                "pipeline.convert_rows",
                "credit.in_flight",
                "no.such.metric",
            ],
            &[],
        );
        for i in 0..10 {
            obs.pipeline.convert_rows.add(100 + i);
            obs.credit.in_flight.set(3);
            std::thread::sleep(Duration::from_millis(5));
        }
        sampler.stop();
        assert!(sampler.points_for("pipeline.convert_rows") >= 2);
        assert!(
            sampler.points_for("pipeline.convert_rows") <= 4,
            "ring bounded"
        );
        assert_eq!(sampler.points_for("no.such.metric"), 0);

        let json = sampler.series_json();
        assert!(json.contains("\"enabled\": true"), "{json}");
        assert!(
            json.contains("\"metric\": \"pipeline.convert_rows\", \"kind\": \"counter\""),
            "{json}"
        );
        assert!(
            json.contains("\"metric\": \"credit.in_flight\", \"kind\": \"gauge\""),
            "{json}"
        );
        assert!(json.contains("\"rate_per_s\""), "{json}");
    }

    #[test]
    fn ring_wraps_and_points_for_saturates_at_capacity() {
        let obs = Arc::new(Obs::new(64, None));
        let sampler = Sampler::start(
            Arc::clone(&obs),
            Box::new(|| {}),
            Duration::from_millis(2),
            3,
            &["pipeline.convert_rows"],
            &[],
        );
        // Run for many more ticks than the ring holds so it wraps several
        // times over.
        for i in 0..30 {
            obs.pipeline.convert_rows.add(i);
            std::thread::sleep(Duration::from_millis(2));
        }
        sampler.stop();
        assert_eq!(
            sampler.points_for("pipeline.convert_rows"),
            3,
            "after overflow the ring reports exactly its capacity"
        );
        // The retained window is the *newest* points: the oldest surviving
        // value must already reflect growth past the first few samples.
        let json = sampler.series_json();
        assert!(
            !json.contains("\"value\": 0,"),
            "oldest points fell off: {json}"
        );
    }

    #[test]
    fn tenant_series_are_discovered_and_bounded() {
        let obs = Arc::new(Obs::new(64, None));
        let sampler = Sampler::start(
            Arc::clone(&obs),
            Box::new(|| {}),
            Duration::from_millis(2),
            4,
            &[],
            &["rows_applied", "active_jobs"],
        );
        // Tenant interned *after* the sampler starts: discovered from the
        // snapshot on the next tick.
        let t = obs.registry.tenant("alice");
        for i in 0..20 {
            t.rows_applied.add(10 + i);
            t.active_jobs.set(2);
            std::thread::sleep(Duration::from_millis(2));
        }
        sampler.stop();
        let n = sampler.tenant_points_for("rows_applied", "alice");
        assert!((2..=4).contains(&n), "bounded tenant ring, got {n}");
        assert_eq!(sampler.tenant_points_for("rows_applied", "bob"), 0);
        assert_eq!(sampler.points_for("rows_applied"), 0, "tenant-only series");

        let json = sampler.series_json();
        assert!(
            json.contains(
                "\"metric\": \"rows_applied\", \"tenant\": \"alice\", \"kind\": \"counter\""
            ),
            "{json}"
        );
        assert!(
            json.contains(
                "\"metric\": \"active_jobs\", \"tenant\": \"alice\", \"kind\": \"gauge\""
            ),
            "{json}"
        );
    }

    #[test]
    fn profile_series_sample_pool_and_lock_wait_with_wraparound() {
        let obs = Arc::new(Obs::new(64, None));
        let sampler = Sampler::start(
            Arc::clone(&obs),
            Box::new(|| {}),
            Duration::from_millis(2),
            3,
            &["pool.busy_workers", "lock.wait_us"],
            &[],
        );
        // Drive both sources long enough for the 3-point rings to wrap:
        // the busy-worker gauge through the pool block, the aggregate
        // wait-time counter through a lock site's contended acquires.
        let site = obs.registry.lock_site("test.site");
        for i in 0..25 {
            obs.pool.busy_workers.set(1 + (i % 3));
            site.acquired_after(Duration::from_micros(150));
            std::thread::sleep(Duration::from_millis(2));
        }
        sampler.stop();
        assert_eq!(
            sampler.points_for("pool.busy_workers"),
            3,
            "gauge ring wrapped to exactly its capacity"
        );
        assert_eq!(
            sampler.points_for("lock.wait_us"),
            3,
            "counter ring wrapped to exactly its capacity"
        );
        let json = sampler.series_json();
        assert!(
            json.contains("\"metric\": \"pool.busy_workers\", \"kind\": \"gauge\""),
            "{json}"
        );
        assert!(
            json.contains("\"metric\": \"lock.wait_us\", \"kind\": \"counter\""),
            "{json}"
        );
    }

    #[test]
    fn stop_is_idempotent_and_fast() {
        let obs = Arc::new(Obs::new(16, None));
        let sampler = Sampler::start(
            obs,
            Box::new(|| {}),
            Duration::from_secs(3600),
            8,
            &["gateway.chunks_received"],
            &[],
        );
        let t0 = Instant::now();
        sampler.stop();
        sampler.stop();
        assert!(t0.elapsed() < Duration::from_secs(2), "stop joins promptly");
        // One sample was taken on entry before the long sleep.
        assert!(sampler.points_for("gateway.chunks_received") >= 1);
    }
}
