//! Zero-size no-op stand-ins for the metrics and journal types, compiled
//! when the `obs` feature is off. Same API as the live versions in
//! `metrics.rs`/`journal.rs`, so instrumentation call sites stay
//! unconditional and the compiler deletes them entirely.

use std::path::Path;
use std::time::Duration;

use super::{HistogramSnapshot, RegistrySnapshot, SpanEvent, SpanIds};

/// No-op counter.
#[derive(Clone, Copy, Default)]
pub struct Counter;

impl Counter {
    /// No-op.
    #[inline(always)]
    pub fn add(&self, _n: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn inc(&self) {}

    /// Always 0.
    pub fn value(&self) -> u64 {
        0
    }
}

/// No-op gauge.
#[derive(Clone, Copy, Default)]
pub struct Gauge;

impl Gauge {
    /// No-op.
    #[inline(always)]
    pub fn set(&self, _v: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn fetch_max(&self, _v: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn add(&self, _n: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn sub(&self, _n: u64) {}

    /// Always 0.
    pub fn value(&self) -> u64 {
        0
    }
}

/// No-op histogram.
#[derive(Clone, Copy, Default)]
pub struct Histogram;

impl Histogram {
    /// No-op.
    #[inline(always)]
    pub fn record(&self, _v: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn record_duration(&self, _d: Duration) {}

    /// Empty snapshot.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            ..Default::default()
        }
    }
}

/// No-op registry: hands out stub handles, snapshots empty.
#[derive(Clone, Copy, Default)]
pub struct MetricsRegistry;

impl MetricsRegistry {
    /// New stub registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry
    }

    /// Stub counter.
    pub fn counter(&self, _name: &str) -> Counter {
        Counter
    }

    /// Stub gauge.
    pub fn gauge(&self, _name: &str) -> Gauge {
        Gauge
    }

    /// Stub histogram.
    pub fn histogram(&self, _name: &str) -> Histogram {
        Histogram
    }

    /// Stub tenant block: fresh ZST handles under the requested name, so
    /// call sites hold and use the block unconditionally. Nothing is
    /// retained — the compiled-out build tracks no tenant state.
    pub fn tenant(&self, name: &str) -> std::sync::Arc<super::TenantObs> {
        std::sync::Arc::new(super::TenantObs {
            id: super::TenantId(0),
            name: name.to_string(),
            jobs_started: Counter,
            jobs_completed: Counter,
            jobs_failed: Counter,
            jobs_aborted: Counter,
            admission_rejections: Counter,
            idle_timeouts: Counter,
            chunks: Counter,
            chunk_bytes: Counter,
            rows_applied: Counter,
            errors_et: Counter,
            errors_uv: Counter,
            retries: Counter,
            slow_jobs: Counter,
            active_jobs: Gauge,
            credit_held: Gauge,
            memory_held: Gauge,
            job_us: Histogram,
            queue_wait_us: Histogram,
            convert_us: Histogram,
            upload_us: Histogram,
            apply_us: Histogram,
        })
    }

    /// Always empty.
    pub fn tenant_handles(&self) -> Vec<std::sync::Arc<super::TenantObs>> {
        Vec::new()
    }

    /// Stub lock-site block: ZST handles under the requested name, so the
    /// tracked-lock wrappers construct unconditionally. Nothing is
    /// retained or counted.
    pub fn lock_site(&self, name: &str) -> std::sync::Arc<super::LockSiteObs> {
        std::sync::Arc::new(super::LockSiteObs {
            site: name.to_string(),
            acquires: Counter,
            contended: Counter,
            wait_us: Histogram,
            hold_us: Histogram,
            agg_acquires: Counter,
            agg_contended: Counter,
            agg_wait_us: Counter,
        })
    }

    /// Always empty.
    pub fn lock_site_snapshots(&self) -> Vec<super::LockSiteSnapshot> {
        Vec::new()
    }

    /// Always empty.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot::default()
    }
}

/// No-op journal: drops every event.
#[derive(Clone, Copy, Default)]
pub struct Journal;

impl Journal {
    /// Stub journal; `jsonl` is ignored.
    pub fn new(_capacity: usize, _jsonl: Option<&Path>) -> Journal {
        Journal
    }

    /// No-op.
    #[inline(always)]
    pub fn emit(
        &self,
        _kind: &'static str,
        _job: u64,
        _session: u64,
        _chunk: u64,
        _value: u64,
        _dur: Duration,
    ) {
    }

    /// No-op.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub fn emit_span(
        &self,
        _kind: &'static str,
        _ids: SpanIds,
        _job: u64,
        _session: u64,
        _chunk: u64,
        _value: u64,
        _dur: Duration,
    ) {
    }

    /// Always 0 — with tracing compiled out there are no span identities.
    #[inline(always)]
    pub fn next_span_id(&self) -> u64 {
        0
    }

    /// Always 0.
    pub fn dropped(&self) -> u64 {
        0
    }

    /// Always empty.
    pub fn events_for_job(&self, _job: u64) -> Vec<SpanEvent> {
        Vec::new()
    }

    /// Always 0.
    pub fn now_micros(&self) -> u64 {
        0
    }

    /// Always empty.
    pub fn tail(&self, _n: usize) -> Vec<SpanEvent> {
        Vec::new()
    }

    /// Always 0.
    pub fn emitted(&self) -> u64 {
        0
    }

    /// Always 0.
    pub fn retained(&self) -> usize {
        0
    }

    /// No-op.
    pub fn flush(&self) {}
}

/// No-op time-series sampler: never spawns a thread, yields an empty
/// (disabled) series document.
#[derive(Clone, Copy, Default)]
pub struct Sampler;

impl Sampler {
    /// Stub sampler; every argument is dropped.
    pub fn start(
        _obs: std::sync::Arc<super::Obs>,
        _refresh: Box<dyn Fn() + Send + Sync>,
        _tick: Duration,
        _capacity: usize,
        _metrics: &'static [&'static str],
        _tenant_metrics: &'static [&'static str],
    ) -> Sampler {
        Sampler
    }

    /// A valid-but-disabled series document.
    pub fn series_json(&self) -> String {
        "{\"enabled\": false, \"tick_micros\": 0, \"series\": []}".to_string()
    }

    /// Always 0.
    pub fn points_for(&self, _metric: &str) -> usize {
        0
    }

    /// Always 0.
    pub fn tenant_points_for(&self, _metric: &str, _tenant: &str) -> usize {
        0
    }

    /// No-op.
    pub fn stop(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handles_are_zero_sized() {
        assert_eq!(std::mem::size_of::<Counter>(), 0);
        assert_eq!(std::mem::size_of::<Gauge>(), 0);
        assert_eq!(std::mem::size_of::<Histogram>(), 0);
        assert_eq!(std::mem::size_of::<MetricsRegistry>(), 0);
        assert_eq!(std::mem::size_of::<Journal>(), 0);
        assert_eq!(std::mem::size_of::<Sampler>(), 0);
    }

    #[test]
    fn noop_lock_sites_record_nothing() {
        let reg = MetricsRegistry::new();
        let site = reg.lock_site("runtime.state");
        site.acquired_uncontended();
        site.acquired_after(Duration::from_micros(50));
        site.held(Duration::from_micros(10));
        let snap = site.snapshot();
        assert_eq!(snap.site, "runtime.state");
        assert_eq!(snap.acquires, 0);
        assert_eq!(snap.contended, 0);
        assert!(reg.lock_site_snapshots().is_empty());
    }

    #[test]
    fn noop_journal_reports_nothing() {
        let j = Journal::new(64, None);
        j.emit("t", 1, 0, 0, 0, Duration::ZERO);
        j.emit_span("t", SpanIds::default(), 1, 0, 0, 0, Duration::ZERO);
        assert_eq!(j.emitted(), 0);
        assert_eq!(j.dropped(), 0);
        assert_eq!(j.next_span_id(), 0);
        assert!(j.events_for_job(1).is_empty());
    }
}
