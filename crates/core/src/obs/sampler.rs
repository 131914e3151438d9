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

use super::{Obs, SeriesValue};

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
    /// The sampled series' label, if it has one (e.g. the tenant).
    label: Option<(&'static str, String)>,
    kind: SampleKind,
    points: VecDeque<Point>,
}

struct SamplerInner {
    epoch: Instant,
    tick: Duration,
    capacity: usize,
    /// Series names to track, under whatever labels they are registered.
    metrics: &'static [&'static str],
    /// One ring per (metric, label) seen in a snapshot so far.
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
    /// Start sampling the counters and gauges named in `metrics` every
    /// `tick`, retaining up to `capacity` points per series. A name
    /// matches every label it is registered under, and rings are created
    /// as series appear in snapshots, so a tenant interned after `start`
    /// still gets its own. `refresh` is invoked before each snapshot so
    /// gauge-backed values (credit occupancy, memory, fault totals) are
    /// current.
    pub fn start(
        obs: Arc<Obs>,
        refresh: Box<dyn Fn() + Send + Sync>,
        tick: Duration,
        capacity: usize,
        metrics: &'static [&'static str],
    ) -> Sampler {
        let inner = Arc::new(SamplerInner {
            epoch: Instant::now(),
            tick,
            capacity: capacity.max(2),
            metrics,
            series: Mutex::new(Vec::new()),
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
                    for sampled in &snap.series {
                        let Some(&metric) = inner.metrics.iter().find(|m| **m == sampled.name)
                        else {
                            continue;
                        };
                        let (value, kind) = match sampled.value {
                            SeriesValue::Counter(v) => (v, SampleKind::Counter),
                            SeriesValue::Gauge(v) => (v, SampleKind::Gauge),
                            SeriesValue::Histogram(_) => continue,
                        };
                        let at = series
                            .iter()
                            .position(|s| s.metric == metric && s.label == sampled.label)
                            .unwrap_or_else(|| {
                                series.push(Series {
                                    metric,
                                    label: sampled.label.clone(),
                                    kind,
                                    points: VecDeque::new(),
                                });
                                series.len() - 1
                            });
                        let points = &mut series[at].points;
                        if points.len() == inner.capacity {
                            points.pop_front();
                        }
                        points.push_back(Point {
                            t_micros: now,
                            value,
                        });
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
            let label = match &s.label {
                Some((key, v)) => format!("\"{key}\": \"{}\", ", super::render::json_escape(v)),
                None => String::new(),
            };
            out.push_str(&format!(
                "  {{\"metric\": \"{}\", {label}\"kind\": \"{}\", \"points\": [",
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

    /// Number of points currently held for `metric` under label value
    /// `label` (`None` for an unlabelled series; 0 if no such ring).
    pub fn points_for(&self, metric: &str, label: Option<&str>) -> usize {
        self.inner
            .series
            .lock()
            .iter()
            .find(|s| s.metric == metric && s.label.as_ref().map(|(_, v)| v.as_str()) == label)
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
        );
        for i in 0..10 {
            obs.pipeline.convert_rows.add(100 + i);
            obs.credit.in_flight.set(3);
            std::thread::sleep(Duration::from_millis(5));
        }
        sampler.stop();
        assert!(sampler.points_for("pipeline.convert_rows", None) >= 2);
        assert!(
            sampler.points_for("pipeline.convert_rows", None) <= 4,
            "ring bounded"
        );
        assert_eq!(sampler.points_for("no.such.metric", None), 0);

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
        );
        // Run for many more ticks than the ring holds so it wraps several
        // times over.
        for i in 0..30 {
            obs.pipeline.convert_rows.add(i);
            std::thread::sleep(Duration::from_millis(2));
        }
        sampler.stop();
        assert_eq!(
            sampler.points_for("pipeline.convert_rows", None),
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
            &["tenant.rows_applied", "tenant.active_jobs"],
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
        let n = sampler.points_for("tenant.rows_applied", Some("alice"));
        assert!((2..=4).contains(&n), "bounded tenant ring, got {n}");
        assert_eq!(sampler.points_for("tenant.rows_applied", Some("bob")), 0);
        assert_eq!(
            sampler.points_for("tenant.rows_applied", None),
            0,
            "tenant-only series"
        );

        let json = sampler.series_json();
        assert!(
            json.contains(
                "\"metric\": \"tenant.rows_applied\", \"tenant\": \"alice\", \"kind\": \"counter\""
            ),
            "{json}"
        );
        assert!(
            json.contains(
                "\"metric\": \"tenant.active_jobs\", \"tenant\": \"alice\", \"kind\": \"gauge\""
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
            sampler.points_for("pool.busy_workers", None),
            3,
            "gauge ring wrapped to exactly its capacity"
        );
        assert_eq!(
            sampler.points_for("lock.wait_us", None),
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
        );
        let t0 = Instant::now();
        sampler.stop();
        sampler.stop();
        assert!(t0.elapsed() < Duration::from_secs(2), "stop joins promptly");
        // One sample was taken on entry before the long sleep.
        assert!(sampler.points_for("gateway.chunks_received", None) >= 1);
    }
}
