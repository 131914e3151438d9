//! The live metrics registry: sharded counters, gauges, and log-linear
//! histograms.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use super::{HistogramSnapshot, RegistrySnapshot, SeriesSnapshot, SeriesValue, TenantObs};

/// Cap on distinct tenant label values: tenants interned past it share
/// the `~overflow` block, so label cardinality stays bounded no matter
/// how many usernames connect.
const TENANT_LIMIT: usize = 64;

/// Shards per counter. Converter pools top out well below this on the
/// testbed; more shards only pad the (cheap) snapshot merge.
const SHARDS: usize = 16;

/// One cache line per shard so two workers bumping the same counter never
/// write the same line.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCell(AtomicU64);

static NEXT_THREAD_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread gets a sticky shard index assigned round-robin on
    /// first use, spreading steady-state workers evenly.
    static THREAD_SHARD: usize =
        NEXT_THREAD_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

fn thread_shard() -> usize {
    THREAD_SHARD.with(|s| *s)
}

/// A monotonically increasing counter, sharded per thread. `add` is one
/// relaxed `fetch_add` on a thread-private cache line; `value` merges the
/// shards.
#[derive(Clone)]
pub struct Counter {
    shards: Arc<[PaddedCell; SHARDS]>,
}

impl Counter {
    pub(crate) fn new() -> Counter {
        Counter {
            shards: Arc::new(std::array::from_fn(|_| PaddedCell::default())),
        }
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[thread_shard()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Merged value across shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A last-writer-wins gauge.
#[derive(Clone, Debug)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    pub(crate) fn new() -> Gauge {
        Gauge {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Set the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Raise the value to at least `v`.
    #[inline]
    pub fn fetch_max(&self, v: u64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Add `n` — for up/down gauges (resources currently held).
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` unless the sum would exceed `cap` (0 = no cap): the new
    /// value, or the value that left no room.
    pub(crate) fn add_within(&self, n: u64, cap: u64) -> Result<u64, u64> {
        let fits = |v: u64| (cap == 0 || v + n <= cap).then_some(v + n);
        let prev = self
            .cell
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, fits)?;
        Ok(prev + n)
    }

    /// Subtract `n`, saturating at zero so a release racing a snapshot
    /// can never wrap the gauge to u64::MAX.
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .cell
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Log-linear bucket layout: values 0–3 get exact buckets; above that,
/// each power of two is split into 4 linear sub-buckets (≤ 12.5% relative
/// width). The full u64 range needs `(63 - 1) * 4 + 4 = 252` buckets.
const BUCKETS: usize = 252;

fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // ≥ 2
    let sub = ((v >> (msb - 2)) & 3) as usize;
    (msb - 1) * 4 + sub
}

/// Inclusive upper bound of bucket `idx` — the value quantiles report, so
/// estimates never undershoot the true quantile by more than the bucket
/// width.
fn bucket_upper_bound(idx: usize) -> u64 {
    if idx < 4 {
        return idx as u64;
    }
    let msb = idx / 4 + 1;
    let sub = (idx % 4) as u128;
    // The topmost bucket's bound exceeds u64::MAX; widen then saturate.
    let bound = ((4 + sub + 1) << (msb - 2)) - 1;
    bound.min(u64::MAX as u128) as u64
}

struct HistInner {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

/// A fixed-footprint latency histogram. `record` is three relaxed atomic
/// ops and never allocates.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Histogram {
    pub(crate) fn new() -> Histogram {
        Histogram {
            inner: Arc::new(HistInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
        self.inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration in microseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Summarize as count/sum/max plus p50/p95/p99.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (idx, n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return bucket_upper_bound(idx);
                }
            }
            bucket_upper_bound(BUCKETS - 1)
        };
        HistogramSnapshot {
            count,
            sum: self.sum(),
            max: self.inner.max.load(Ordering::Relaxed),
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }
}

/// The live handle of one registered series.
#[derive(Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// One row of the series table: a family name, at most one label, and
/// the handle the record path writes through.
struct Series {
    name: String,
    label: Option<(&'static str, String)>,
    handle: Handle,
}

#[derive(Default)]
struct RegistryInner {
    /// Every registered series — the one place a metric's value lives.
    series: Mutex<Vec<Series>>,
    /// Interned per-tenant views over `tenant.*{tenant=…}` series.
    tenants: Mutex<Vec<Arc<TenantObs>>>,
}

/// Owns every registered series; handles stay valid for the registry's
/// lifetime. A series is a family name plus at most one label, and
/// registration is idempotent by that pair, so subsystems can share a
/// metric without coordinating. [`MetricsRegistry::labelled`] yields a
/// view that registers under one label; everything else acts on the whole
/// registry whichever view it is called on.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
    label: Option<(&'static str, String)>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// A view of this registry whose `counter`/`gauge`/`histogram`
    /// register under the label `key="value"`.
    pub fn labelled(&self, key: &'static str, value: &str) -> MetricsRegistry {
        MetricsRegistry {
            inner: Arc::clone(&self.inner),
            label: Some((key, value.to_string())),
        }
    }

    fn register(&self, name: &str, new: fn() -> Handle) -> Handle {
        let mut series = self.inner.series.lock();
        if let Some(s) = series
            .iter()
            .find(|s| s.name == name && s.label == self.label)
        {
            return s.handle.clone();
        }
        // Prometheus forbids one family carrying both labelled and
        // unlabelled samples.
        debug_assert!(
            series
                .iter()
                .all(|s| s.name != name || s.label.is_some() == self.label.is_some()),
            "series {name} registered both with and without a label"
        );
        let handle = new();
        series.push(Series {
            name: name.to_string(),
            label: self.label.clone(),
            handle: handle.clone(),
        });
        handle
    }

    /// Register (or fetch) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        match self.register(name, || Handle::Counter(Counter::new())) {
            Handle::Counter(c) => c,
            _ => panic!("series {name} is not a counter"),
        }
    }

    /// Register (or fetch) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.register(name, || Handle::Gauge(Gauge::new())) {
            Handle::Gauge(g) => g,
            _ => panic!("series {name} is not a gauge"),
        }
    }

    /// Register (or fetch) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.register(name, || Handle::Histogram(Histogram::new())) {
            Handle::Histogram(h) => h,
            _ => panic!("series {name} is not a histogram"),
        }
    }

    /// Intern (or fetch) the per-tenant handle block for `name`. The
    /// distinct-label cardinality is bounded: once `TENANT_LIMIT` blocks
    /// exist, further names all share the `~overflow` block, so a hostile
    /// stream of logon usernames cannot grow the registry without bound.
    pub fn tenant(&self, name: &str) -> Arc<TenantObs> {
        let mut tenants = self.inner.tenants.lock();
        if let Some(t) = tenants.iter().find(|t| t.name == name) {
            return Arc::clone(t);
        }
        let effective = if tenants.len() < TENANT_LIMIT {
            name
        } else {
            super::TENANT_OVERFLOW
        };
        if let Some(t) = tenants.iter().find(|t| t.name == effective) {
            return Arc::clone(t);
        }
        // The one list of tenant metrics: each is the `tenant.*` series
        // carrying this tenant's label.
        let r = self.labelled("tenant", effective);
        let t = Arc::new(TenantObs {
            name: effective.to_string(),
            jobs_started: r.counter("tenant.jobs_started"),
            jobs_completed: r.counter("tenant.jobs_completed"),
            jobs_failed: r.counter("tenant.jobs_failed"),
            jobs_aborted: r.counter("tenant.jobs_aborted"),
            admission_rejections: r.counter("tenant.admission_rejections"),
            idle_timeouts: r.counter("tenant.idle_timeouts"),
            chunks: r.counter("tenant.chunks"),
            chunk_bytes: r.counter("tenant.chunk_bytes"),
            rows_applied: r.counter("tenant.rows_applied"),
            errors_et: r.counter("tenant.errors_et"),
            errors_uv: r.counter("tenant.errors_uv"),
            retries: r.counter("tenant.retries"),
            slow_jobs: r.counter("tenant.slow_jobs"),
            active_jobs: r.gauge("tenant.active_jobs"),
            credit_held: r.gauge("tenant.credit_held"),
            memory_held: r.gauge("tenant.memory_held"),
            job_us: r.histogram("tenant.job_us"),
            queue_wait_us: r.histogram("tenant.queue_wait_us"),
            convert_us: r.histogram("tenant.convert_us"),
            upload_us: r.histogram("tenant.upload_us"),
            apply_us: r.histogram("tenant.apply_us"),
        });
        tenants.push(Arc::clone(&t));
        t
    }

    /// Live handles of every interned tenant (the SLO engine walks these
    /// directly rather than going through a full snapshot).
    pub fn tenant_handles(&self) -> Vec<Arc<TenantObs>> {
        self.inner.tenants.lock().clone()
    }

    /// Snapshot every series, sorted by name then label.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut series: Vec<SeriesSnapshot> = self
            .inner
            .series
            .lock()
            .iter()
            .map(|s| SeriesSnapshot {
                name: s.name.clone(),
                label: s.label.clone(),
                value: match &s.handle {
                    Handle::Counter(c) => SeriesValue::Counter(c.value()),
                    Handle::Gauge(g) => SeriesValue::Gauge(g.value()),
                    Handle::Histogram(h) => SeriesValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        series.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        RegistrySnapshot { series }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_monotone_and_bounded() {
        let mut last = 0usize;
        for shift in 0..64 {
            let v = 1u64 << shift;
            for probe in [v, v + v / 4, v + v / 2, v.wrapping_mul(2).wrapping_sub(1)] {
                let idx = bucket_index(probe);
                assert!(idx < BUCKETS, "v={probe} idx={idx}");
                assert!(idx >= last || probe < v, "non-monotone at {probe}");
                last = last.max(idx);
                // The bucket's upper bound must not undershoot the value.
                assert!(
                    bucket_upper_bound(idx) >= probe,
                    "upper bound {} < value {probe}",
                    bucket_upper_bound(idx)
                );
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn small_values_exact() {
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper_bound(v as usize), v);
        }
        // 4..8 land in distinct exact buckets too (sub-bucket width 1).
        for v in 4..8u64 {
            assert_eq!(bucket_upper_bound(bucket_index(v)), v);
        }
    }

    #[test]
    fn histogram_quantiles_with_known_distribution() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("t");
        // 100 values: 1..=100.
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum, 5050);
        assert_eq!(snap.max, 100);
        // Log-linear error ≤ 12.5%: p50 ∈ [50, 57], p99 ∈ [99, 112].
        assert!((50..=57).contains(&snap.p50), "p50={}", snap.p50);
        assert!((95..=108).contains(&snap.p95), "p95={}", snap.p95);
        assert!((99..=112).contains(&snap.p99), "p99={}", snap.p99);
    }

    #[test]
    fn counter_merges_shards_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("n");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn registration_is_idempotent() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("same");
        let b = reg.counter("same");
        a.add(2);
        b.add(3);
        assert_eq!(reg.counter("same").value(), 5);
        let snap = reg.snapshot();
        assert_eq!(snap.series.len(), 1);
        assert_eq!(snap.get("same", None), Some(&SeriesValue::Counter(5)));
    }

    #[test]
    fn gauge_set_and_max() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("g");
        g.set(10);
        g.fetch_max(7);
        assert_eq!(g.value(), 10);
        g.fetch_max(12);
        assert_eq!(g.value(), 12);
    }

    #[test]
    fn gauge_add_sub_saturates_at_zero() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("held");
        g.add(5);
        g.add(3);
        assert_eq!(g.value(), 8);
        g.sub(6);
        assert_eq!(g.value(), 2);
        g.sub(10); // over-release must clamp, not wrap
        assert_eq!(g.value(), 0);
    }

    #[test]
    fn tenant_interning_is_idempotent_and_bounded() {
        let reg = MetricsRegistry::new();
        let a = reg.tenant("alice");
        let a2 = reg.tenant("alice");
        assert!(Arc::ptr_eq(&a, &a2), "same name, same block");
        let b = reg.tenant("bob");
        assert!(!Arc::ptr_eq(&a, &b));
        for i in 2..TENANT_LIMIT {
            reg.tenant(&format!("filler{i:02}"));
        }
        // Limit reached: every further name shares the overflow block.
        let c = reg.tenant("carol");
        let d = reg.tenant("dave");
        assert_eq!(c.name, crate::obs::TENANT_OVERFLOW);
        assert!(Arc::ptr_eq(&c, &d));
        c.jobs_started.inc();
        d.jobs_started.inc();
        assert_eq!(c.jobs_started.value(), 2);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap
            .series
            .iter()
            .filter(|s| s.name == "tenant.jobs_started")
            .map(|s| {
                s.label
                    .as_ref()
                    .expect("tenant series are labelled")
                    .1
                    .as_str()
            })
            .collect();
        assert_eq!(names.len(), TENANT_LIMIT + 1, "the limit + ~overflow");
        // `~` sorts after ASCII lowercase, so overflow renders last.
        assert_eq!(names[..2], ["alice", "bob"]);
        assert_eq!(names[TENANT_LIMIT], crate::obs::TENANT_OVERFLOW);
    }

    #[test]
    fn tenant_snapshot_carries_counters_gauges_histograms() {
        let reg = MetricsRegistry::new();
        let t = reg.tenant("wg_t00");
        t.rows_applied.add(100);
        t.errors_et.add(3);
        t.active_jobs.add(2);
        t.active_jobs.sub(1);
        t.job_us.record(5000);
        let snap = reg.snapshot();
        let get = |name: &str| {
            snap.get(name, Some("wg_t00"))
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(get("tenant.rows_applied"), &SeriesValue::Counter(100));
        assert_eq!(get("tenant.errors_et"), &SeriesValue::Counter(3));
        assert_eq!(get("tenant.active_jobs"), &SeriesValue::Gauge(1));
        let SeriesValue::Histogram(h) = get("tenant.job_us") else {
            panic!("job_us is a histogram")
        };
        assert_eq!(h.count, 1);
        assert_eq!(h.max, 5000);
        assert_eq!(
            snap.series
                .iter()
                .find(|s| s.name == "tenant.job_us")
                .and_then(|s| s.label.clone()),
            Some(("tenant", "wg_t00".to_string()))
        );
    }

    #[test]
    fn quantile_estimates_stay_within_log_linear_error_bound() {
        // The SLO engine reads p99 straight from these bins: pin the
        // quantile error bound across magnitudes. A value v lands in a
        // bucket [lo, hi] with hi/lo ≤ 5/4, and quantiles report hi, so
        // the estimate never undershoots and overshoots by < 25%.
        for scale in [1u64, 10, 1_000, 1_000_000, 50_000_000] {
            let reg = MetricsRegistry::new();
            let h = reg.histogram("q");
            for v in 1..=1000u64 {
                h.record(v * scale);
            }
            let snap = h.snapshot();
            for (q, exact) in [
                (snap.p50, 500 * scale),
                (snap.p95, 950 * scale),
                (snap.p99, 990 * scale),
            ] {
                assert!(
                    q >= exact,
                    "quantile {q} undershoots exact {exact} at scale {scale}"
                );
                let rel = (q - exact) as f64 / exact as f64;
                assert!(rel < 0.25, "relative error {rel} ≥ 25% at scale {scale}");
            }
        }
    }

    #[test]
    fn snapshot_sorted_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("z");
        reg.counter("a");
        reg.histogram("m");
        reg.histogram("b");
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "m", "z"]);
    }

    #[test]
    fn one_family_many_label_values() {
        let reg = MetricsRegistry::new();
        reg.labelled("tenant", "bob").counter("t.rows").add(2);
        reg.labelled("tenant", "alice").counter("t.rows").add(1);
        reg.labelled("tenant", "alice").counter("t.rows").add(4);
        let snap = reg.snapshot();
        let rows: Vec<_> = snap.series.iter().filter(|s| s.name == "t.rows").collect();
        assert_eq!(rows.len(), 2, "one entry per label value");
        assert_eq!(rows[0].label, Some(("tenant", "alice".to_string())));
        assert_eq!(
            rows[0].value,
            SeriesValue::Counter(5),
            "same pair, same series"
        );
        assert_eq!(rows[1].label, Some(("tenant", "bob".to_string())));
        let text = crate::obs::stats_prometheus(&snap, 0, 0);
        assert_eq!(text.matches("# TYPE etlv_t_rows counter\n").count(), 1);
        assert!(text.contains("etlv_t_rows{tenant=\"alice\"} 5\n"), "{text}");
        assert!(text.contains("etlv_t_rows{tenant=\"bob\"} 2\n"), "{text}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "both with and without a label")]
    fn family_cannot_be_both_labelled_and_unlabelled() {
        let reg = MetricsRegistry::new();
        reg.labelled("tenant", "alice").counter("mixed");
        reg.counter("mixed");
    }
}
