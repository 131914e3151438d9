//! Per-tenant SLO evaluation: declarative objectives, multi-window
//! burn-rate alerting, and node overload signals.
//!
//! The engine is deliberately passive: it never spawns a thread. Cheap
//! cumulative-counter samples are pushed into bounded per-tenant rings by
//! [`SloEngine::observe`] — called from every `Health` evaluation, its
//! only feed — and burn rates are derived on demand from the ring. These
//! rings are the node's one time-series store. A burn rate is the
//! SRE-style ratio `bad_fraction_over_window / error_budget` where the
//! budget is `1 - objective`: burn 1.0 consumes the budget exactly at the
//! rate the objective allows, burn 14.4 exhausts a 30-day budget in 2
//! days. An alert fires only when **both** the fast and the slow window
//! burn exceed their thresholds — the fast window gives detection latency,
//! the slow window keeps a short blip from paging.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use super::render::{json_escape, prom_escape_label};
use super::Obs;

/// Burn values are clamped here so JSON/Prometheus renderings never see
/// `inf` (an objective of ~1.0 makes the error budget ~0).
const MAX_BURN: f64 = 1e6;

/// Hard cap on ring points per tenant, a backstop over time-based
/// pruning.
const MAX_POINTS: usize = 8192;

/// Declarative per-tenant service-level objectives plus the burn-rate
/// alerting windows evaluated over them. One policy applies to every
/// tenant (per-tenant overrides would layer on top of this).
#[derive(Debug, Clone, PartialEq)]
pub struct SloPolicy {
    /// End-to-end import-job latency target; a job slower than this is a
    /// "slow job" against `latency_objective`.
    pub latency_target: Duration,
    /// Fraction of finished jobs that must meet `latency_target`
    /// (e.g. 0.99 — the p99 latency objective).
    pub latency_objective: f64,
    /// Fraction of ingested rows that must apply cleanly (not land in
    /// ET/UV error tables).
    pub error_rate_objective: f64,
    /// Fraction of job attempts that must be admitted and complete
    /// (rejections, failures, and aborts all spend this budget).
    pub availability_objective: f64,
    /// Fast detection window (classic 5m, scaled down for benches).
    pub fast_window: Duration,
    /// Slow confirmation window (classic 1h).
    pub slow_window: Duration,
    /// Burn-rate threshold on the fast window.
    pub fast_burn: f64,
    /// Burn-rate threshold on the slow window.
    pub slow_burn: f64,
    /// Resource saturation (jobs/sessions/credits/memory, 0..1) at or
    /// above which the node reports overload.
    pub overload_ratio: f64,
}

impl Default for SloPolicy {
    fn default() -> SloPolicy {
        SloPolicy {
            latency_target: Duration::from_secs(2),
            latency_objective: 0.99,
            error_rate_objective: 0.999,
            availability_objective: 0.999,
            fast_window: Duration::from_secs(300),
            slow_window: Duration::from_secs(3600),
            fast_burn: 14.4,
            slow_burn: 6.0,
            overload_ratio: 0.9,
        }
    }
}

/// One objective's burn-rate evaluation for one tenant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloStatus {
    /// Objective name: `latency`, `error_rate`, or `availability`.
    pub objective: &'static str,
    /// Burn rate over the fast window.
    pub burn_fast: f64,
    /// Burn rate over the slow window.
    pub burn_slow: f64,
    /// Budget-spending events in the fast window (numerator).
    pub bad_fast: u64,
    /// Total events in the fast window (denominator).
    pub total_fast: u64,
    /// Budget-spending events in the slow window.
    pub bad_slow: u64,
    /// Total events in the slow window.
    pub total_slow: u64,
    /// Both windows exceed their burn thresholds.
    pub alerting: bool,
}

/// One tenant's SLO standing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantHealth {
    /// Tenant (logon username).
    pub tenant: String,
    /// Per-objective evaluations, fixed order (latency, error_rate,
    /// availability).
    pub objectives: Vec<SloStatus>,
    /// Names of objectives currently alerting.
    pub alerts: Vec<&'static str>,
}

/// Node-level resource pressure, evaluated from the same snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverloadState {
    /// active jobs / max_concurrent_jobs.
    pub job_saturation: f64,
    /// active sessions / max_sessions.
    pub session_saturation: f64,
    /// credits in flight / credit pool size.
    pub credit_saturation: f64,
    /// staging memory in flight / memory cap (0 when uncapped).
    pub memory_saturation: f64,
    /// Admission rejections within the fast window.
    pub recent_rejections: u64,
    /// Any saturation at/above the policy's overload ratio, or any
    /// recent rejection.
    pub overloaded: bool,
}

/// Raw node occupancy the gateway feeds into [`SloEngine::evaluate`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OverloadInput {
    /// Import/export jobs currently registered.
    pub active_jobs: u64,
    /// Configured `max_concurrent_jobs`.
    pub max_jobs: u64,
    /// Sessions currently registered.
    pub active_sessions: u64,
    /// Configured `max_sessions`.
    pub max_sessions: u64,
    /// Back-pressure credits currently held.
    pub credit_in_flight: u64,
    /// Credit pool size.
    pub credit_capacity: u64,
    /// Staging memory currently reserved, bytes.
    pub memory_in_flight: u64,
    /// Staging memory cap, bytes (0 = uncapped).
    pub memory_cap: u64,
}

/// The full health document behind the `Health` introspection topic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthReport {
    /// Node overload standing.
    pub overload: OverloadState,
    /// Per-tenant SLO standings, sorted by tenant name.
    pub tenants: Vec<TenantHealth>,
}

/// Render a finite f64 as a JSON/Prometheus-safe number.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        format!("{MAX_BURN:.6}")
    }
}

impl HealthReport {
    /// JSON rendering (the `Health` wire body in JSON format).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\n  \"overload\": {{\"overloaded\": {}, \
             \"job_saturation\": {}, \"session_saturation\": {}, \
             \"credit_saturation\": {}, \"memory_saturation\": {}, \
             \"recent_rejections\": {}}},\n  \"tenants\": [",
            self.overload.overloaded,
            num(self.overload.job_saturation),
            num(self.overload.session_saturation),
            num(self.overload.credit_saturation),
            num(self.overload.memory_saturation),
            self.overload.recent_rejections,
        ));
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"tenant\": \"{}\", \"alerts\": [{}], \"objectives\": [",
                json_escape(&t.tenant),
                t.alerts
                    .iter()
                    .map(|a| format!("\"{a}\""))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            for (j, s) in t.objectives.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n      {{\"objective\": \"{}\", \"alerting\": {}, \
                     \"burn_fast\": {}, \"burn_slow\": {}, \
                     \"bad_fast\": {}, \"total_fast\": {}, \
                     \"bad_slow\": {}, \"total_slow\": {}}}",
                    s.objective,
                    s.alerting,
                    num(s.burn_fast),
                    num(s.burn_slow),
                    s.bad_fast,
                    s.total_fast,
                    s.bad_slow,
                    s.total_slow,
                ));
            }
            out.push_str("\n    ]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Prometheus text-exposition rendering (same conformance rules as
    /// the stats surface: one `# TYPE` per family, labels escaped).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("# TYPE etlv_slo_burn gauge\n");
        for t in &self.tenants {
            let tenant = prom_escape_label(&t.tenant);
            for s in &t.objectives {
                out.push_str(&format!(
                    "etlv_slo_burn{{tenant=\"{tenant}\",objective=\"{}\",window=\"fast\"}} {}\n",
                    s.objective,
                    num(s.burn_fast)
                ));
                out.push_str(&format!(
                    "etlv_slo_burn{{tenant=\"{tenant}\",objective=\"{}\",window=\"slow\"}} {}\n",
                    s.objective,
                    num(s.burn_slow)
                ));
            }
        }
        out.push_str("# TYPE etlv_slo_alert gauge\n");
        for t in &self.tenants {
            let tenant = prom_escape_label(&t.tenant);
            for s in &t.objectives {
                out.push_str(&format!(
                    "etlv_slo_alert{{tenant=\"{tenant}\",objective=\"{}\"}} {}\n",
                    s.objective,
                    u8::from(s.alerting)
                ));
            }
        }
        out.push_str("# TYPE etlv_node_saturation gauge\n");
        for (resource, v) in [
            ("jobs", self.overload.job_saturation),
            ("sessions", self.overload.session_saturation),
            ("credits", self.overload.credit_saturation),
            ("memory", self.overload.memory_saturation),
        ] {
            out.push_str(&format!(
                "etlv_node_saturation{{resource=\"{resource}\"}} {}\n",
                num(v)
            ));
        }
        out.push_str("# TYPE etlv_node_recent_rejections gauge\n");
        out.push_str(&format!(
            "etlv_node_recent_rejections {}\n",
            self.overload.recent_rejections
        ));
        out.push_str("# TYPE etlv_node_overloaded gauge\n");
        out.push_str(&format!(
            "etlv_node_overloaded {}\n",
            u8::from(self.overload.overloaded)
        ));
        out
    }
}

/// Cumulative counter values sampled from one tenant block — the raw
/// material the burn rates are derived from. All monotone.
#[derive(Debug, Clone, Copy, Default)]
struct CumCounts {
    completed: u64,
    failed: u64,
    aborted: u64,
    rejections: u64,
    slow: u64,
    errors: u64,
    rows: u64,
}

struct TenantRing {
    name: String,
    points: VecDeque<(Instant, CumCounts)>,
}

struct EngineInner {
    policy: SloPolicy,
    /// Points closer together than this update the ring tail in place
    /// instead of growing it, bounding ring size in tight health loops.
    min_gap: Duration,
    rings: Mutex<Vec<TenantRing>>,
}

/// The burn-rate engine. Cloneable handle; all state is shared.
#[derive(Clone)]
pub struct SloEngine {
    inner: Arc<EngineInner>,
}

/// Locate the cumulative counts at `now - window`: the newest point no
/// younger than the window start, else the implicit zero origin (every
/// counter was zero when the tenant first appeared).
fn at_window_start(
    points: &VecDeque<(Instant, CumCounts)>,
    now: Instant,
    window: Duration,
) -> CumCounts {
    let start = now.checked_sub(window);
    let mut origin = CumCounts::default();
    if let Some(start) = start {
        for (at, value) in points {
            if *at <= start {
                origin = *value;
            } else {
                break;
            }
        }
    }
    origin
}

/// `bad/total` as a fraction, 0 when the window saw no events.
fn frac(bad: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        bad as f64 / total as f64
    }
}

fn burn(bad_frac: f64, objective: f64) -> f64 {
    let budget = (1.0 - objective).max(1.0 / MAX_BURN);
    (bad_frac / budget).min(MAX_BURN)
}

impl SloEngine {
    /// New engine evaluating `policy`.
    pub fn new(policy: SloPolicy) -> SloEngine {
        let min_gap = (policy.fast_window / 32).max(Duration::from_millis(1));
        SloEngine {
            inner: Arc::new(EngineInner {
                policy,
                min_gap,
                rings: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The policy this engine evaluates.
    pub fn policy(&self) -> &SloPolicy {
        &self.inner.policy
    }

    /// Sample every interned tenant's counters into the rings. Called
    /// from every health evaluation; cost is a handful of relaxed loads
    /// per tenant.
    pub fn observe(&self, obs: &Obs) {
        let now = Instant::now();
        let keep = self
            .inner
            .policy
            .slow_window
            .saturating_mul(2)
            .max(Duration::from_secs(1));
        let mut rings = self.inner.rings.lock();
        for t in obs.registry.tenant_handles() {
            let counts = CumCounts {
                completed: t.jobs_completed.value(),
                failed: t.jobs_failed.value(),
                aborted: t.jobs_aborted.value(),
                rejections: t.admission_rejections.value(),
                slow: t.slow_jobs.value(),
                errors: t.errors_et.value() + t.errors_uv.value(),
                rows: t.rows_applied.value() + t.errors_et.value() + t.errors_uv.value(),
            };
            let ring = match rings.iter_mut().find(|r| r.name == t.name) {
                Some(ring) => ring,
                None => {
                    rings.push(TenantRing {
                        name: t.name.clone(),
                        points: VecDeque::new(),
                    });
                    rings.last_mut().expect("just pushed")
                }
            };
            match ring.points.back_mut() {
                Some((at, tail)) if now.duration_since(*at) < self.inner.min_gap => {
                    *tail = counts;
                }
                _ => ring.points.push_back((now, counts)),
            }
            while ring.points.len() > MAX_POINTS
                || ring
                    .points
                    .front()
                    .is_some_and(|(at, _)| now.duration_since(*at) > keep)
            {
                ring.points.pop_front();
            }
        }
    }

    fn tenant_health(&self, ring: &TenantRing, now: Instant) -> TenantHealth {
        let policy = &self.inner.policy;
        let latest = ring.points.back().map(|(_, c)| *c).unwrap_or_default();
        let fast = at_window_start(&ring.points, now, policy.fast_window);
        let slow = at_window_start(&ring.points, now, policy.slow_window);

        // (objective name, target, bad(c), total(c))
        type Extract = fn(&CumCounts) -> (u64, u64);
        let latency: Extract = |c| (c.slow, c.completed + c.failed);
        let error_rate: Extract = |c| (c.errors, c.rows);
        let availability: Extract = |c| {
            (
                c.rejections + c.failed + c.aborted,
                c.completed + c.failed + c.aborted + c.rejections,
            )
        };
        let objectives: [(&'static str, f64, Extract); 3] = [
            ("latency", policy.latency_objective, latency),
            ("error_rate", policy.error_rate_objective, error_rate),
            ("availability", policy.availability_objective, availability),
        ];

        let mut statuses = Vec::with_capacity(3);
        let mut alerts = Vec::new();
        for (name, objective, extract) in objectives {
            let (bad_now, total_now) = extract(&latest);
            let (bad_f0, total_f0) = extract(&fast);
            let (bad_s0, total_s0) = extract(&slow);
            let bad_fast = bad_now.saturating_sub(bad_f0);
            let total_fast = total_now.saturating_sub(total_f0);
            let bad_slow = bad_now.saturating_sub(bad_s0);
            let total_slow = total_now.saturating_sub(total_s0);
            let burn_fast = burn(frac(bad_fast, total_fast), objective);
            let burn_slow = burn(frac(bad_slow, total_slow), objective);
            let alerting = burn_fast >= policy.fast_burn && burn_slow >= policy.slow_burn;
            if alerting {
                alerts.push(name);
            }
            statuses.push(SloStatus {
                objective: name,
                burn_fast,
                burn_slow,
                bad_fast,
                total_fast,
                bad_slow,
                total_slow,
                alerting,
            });
        }
        TenantHealth {
            tenant: ring.name.clone(),
            objectives: statuses,
            alerts,
        }
    }

    /// Evaluate every tenant's burn rates plus node overload from the
    /// samples collected so far.
    pub fn evaluate(&self, input: &OverloadInput) -> HealthReport {
        let now = Instant::now();
        let policy = &self.inner.policy;
        let rings = self.inner.rings.lock();
        let mut tenants: Vec<TenantHealth> = rings
            .iter()
            .map(|ring| self.tenant_health(ring, now))
            .collect();
        // The node's rejections are the sum over its tenants: every
        // refused logon or job has one.
        let recent_rejections = rings
            .iter()
            .map(|ring| {
                let latest = ring.points.back().map_or(0, |(_, c)| c.rejections);
                let origin = at_window_start(&ring.points, now, policy.fast_window);
                latest.saturating_sub(origin.rejections)
            })
            .sum();
        drop(rings);
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));

        let ratio = |used: u64, cap: u64| {
            if cap == 0 {
                0.0
            } else {
                used as f64 / cap as f64
            }
        };
        let job_saturation = ratio(input.active_jobs, input.max_jobs);
        let session_saturation = ratio(input.active_sessions, input.max_sessions);
        let credit_saturation = ratio(input.credit_in_flight, input.credit_capacity);
        let memory_saturation = ratio(input.memory_in_flight, input.memory_cap);
        let overloaded = recent_rejections > 0
            || [
                job_saturation,
                session_saturation,
                credit_saturation,
                memory_saturation,
            ]
            .iter()
            .any(|s| *s >= policy.overload_ratio);

        HealthReport {
            overload: OverloadState {
                job_saturation,
                session_saturation,
                credit_saturation,
                memory_saturation,
                recent_rejections,
                overloaded,
            },
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy_ms(fast_ms: u64, slow_ms: u64) -> SloPolicy {
        SloPolicy {
            latency_target: Duration::from_millis(50),
            fast_window: Duration::from_millis(fast_ms),
            slow_window: Duration::from_millis(slow_ms),
            ..SloPolicy::default()
        }
    }

    #[test]
    fn burn_math_scales_with_budget() {
        // 10% bad against a 0.1% budget burns at 100x.
        assert!((burn(0.10, 0.999) - 100.0).abs() < 1e-9);
        // Exactly on budget burns at 1.0.
        assert!((burn(0.001, 0.999) - 1.0).abs() < 1e-9);
        // Zero budget clamps instead of inf.
        assert!(burn(0.5, 1.0) <= MAX_BURN);
    }

    #[test]
    fn window_origin_prefers_newest_point_before_start() {
        let mut points = VecDeque::new();
        let now = Instant::now();
        let at = |ms: u64| now.checked_sub(Duration::from_millis(ms)).unwrap();
        let c = |completed: u64| CumCounts {
            completed,
            ..CumCounts::default()
        };
        points.push_back((at(300), c(1)));
        points.push_back((at(200), c(5)));
        points.push_back((at(50), c(9)));
        let origin = at_window_start(&points, now, Duration::from_millis(100));
        assert_eq!(origin.completed, 5, "newest point at or before now-100ms");
        let origin = at_window_start(&points, now, Duration::from_millis(400));
        assert_eq!(origin.completed, 0, "window predates all points");
    }

    #[test]
    fn heavy_error_tenant_alerts_light_tenant_stays_green() {
        let obs = Obs::default();
        let engine = SloEngine::new(policy_ms(40, 120));
        let heavy = obs.tenant("heavy");
        let light = obs.tenant("light");
        // Seed the zero origin, then burn error budget on one tenant
        // across both windows.
        engine.observe(&obs);
        for _ in 0..6 {
            heavy.jobs_completed.add(5);
            heavy.rows_applied.add(900);
            heavy.errors_et.add(80);
            heavy.errors_uv.add(20);
            light.jobs_completed.add(5);
            light.rows_applied.add(1000);
            std::thread::sleep(Duration::from_millis(25));
            engine.observe(&obs);
        }
        let report = engine.evaluate(&OverloadInput::default());
        let tenant = |name: &str| {
            report
                .tenants
                .iter()
                .find(|t| t.tenant == name)
                .unwrap_or_else(|| panic!("missing tenant {name}"))
                .clone()
        };
        let heavy_health = tenant("heavy");
        assert!(
            heavy_health.alerts.contains(&"error_rate"),
            "10% errors against 0.1% budget must alert: {heavy_health:?}"
        );
        let light_health = tenant("light");
        assert!(
            light_health.alerts.is_empty(),
            "clean tenant must stay green: {light_health:?}"
        );
        for s in &light_health.objectives {
            assert_eq!(s.burn_fast, 0.0, "{s:?}");
        }
    }

    #[test]
    fn latency_objective_burns_on_slow_jobs() {
        let obs = Obs::default();
        let engine = SloEngine::new(policy_ms(40, 120));
        let t = obs.tenant("lag");
        engine.observe(&obs);
        for _ in 0..4 {
            t.jobs_completed.add(10);
            t.slow_jobs.add(5); // 50% slow vs 1% budget → burn 50
            std::thread::sleep(Duration::from_millis(30));
            engine.observe(&obs);
        }
        let report = engine.evaluate(&OverloadInput::default());
        let health = &report.tenants[0];
        let latency = &health.objectives[0];
        assert_eq!(latency.objective, "latency");
        assert!(latency.alerting, "{latency:?}");
        assert!(health.alerts.contains(&"latency"));
    }

    #[test]
    fn alert_clears_after_bad_window_passes() {
        let obs = Obs::default();
        let engine = SloEngine::new(policy_ms(30, 60));
        let t = obs.tenant("recovering");
        engine.observe(&obs);
        t.jobs_completed.add(10);
        t.slow_jobs.add(10);
        std::thread::sleep(Duration::from_millis(35));
        engine.observe(&obs);
        let mid = engine.evaluate(&OverloadInput::default());
        assert!(
            mid.tenants[0].alerts.contains(&"latency"),
            "alert while the bad minutes are inside both windows: {mid:?}"
        );
        // Only clean traffic from here; once both windows roll past the
        // bad burst the alert must clear.
        for _ in 0..5 {
            t.jobs_completed.add(50);
            std::thread::sleep(Duration::from_millis(20));
            engine.observe(&obs);
        }
        let after = engine.evaluate(&OverloadInput::default());
        assert!(
            after.tenants[0].alerts.is_empty(),
            "alert must clear after recovery: {after:?}"
        );
    }

    #[test]
    fn overload_tracks_saturation_and_rejections() {
        let obs = Obs::default();
        let engine = SloEngine::new(policy_ms(50, 100));
        engine.observe(&obs);
        let calm = engine.evaluate(&OverloadInput {
            active_jobs: 2,
            max_jobs: 8,
            active_sessions: 3,
            max_sessions: 100,
            credit_in_flight: 1,
            credit_capacity: 64,
            memory_in_flight: 0,
            memory_cap: 0,
        });
        assert!(!calm.overload.overloaded, "{:?}", calm.overload);
        assert!((calm.overload.job_saturation - 0.25).abs() < 1e-9);
        assert_eq!(calm.overload.memory_saturation, 0.0, "uncapped memory");
        let hot = engine.evaluate(&OverloadInput {
            active_jobs: 8,
            max_jobs: 8,
            ..OverloadInput::default()
        });
        assert!(hot.overload.overloaded, "job saturation 1.0");
    }

    #[test]
    fn node_rejections_mark_overload_within_fast_window() {
        let obs = Obs::default();
        let engine = SloEngine::new(policy_ms(60, 120));
        engine.observe(&obs);
        obs.tenant("a").admission_rejections.add(2);
        obs.tenant("b").admission_rejections.add(1);
        std::thread::sleep(Duration::from_millis(5));
        engine.observe(&obs);
        let report = engine.evaluate(&OverloadInput::default());
        assert_eq!(report.overload.recent_rejections, 3);
        assert!(report.overload.overloaded);
    }

    #[test]
    fn health_report_renders_valid_json_and_prometheus() {
        let report = HealthReport {
            overload: OverloadState {
                job_saturation: 0.5,
                recent_rejections: 2,
                overloaded: true,
                ..OverloadState::default()
            },
            tenants: vec![TenantHealth {
                tenant: "we\"ird\\name".into(),
                objectives: vec![SloStatus {
                    objective: "latency",
                    burn_fast: 14.5,
                    burn_slow: 7.0,
                    bad_fast: 3,
                    total_fast: 10,
                    bad_slow: 3,
                    total_slow: 40,
                    alerting: true,
                }],
                alerts: vec!["latency"],
            }],
        };
        let json = report.to_json();
        assert!(
            json.contains("\"overload\": {\"overloaded\": true"),
            "{json}"
        );
        assert!(json.contains("\"tenant\": \"we\\\"ird\\\\name\""), "{json}");
        assert!(json.contains("\"alerts\": [\"latency\"]"), "{json}");
        let prom = report.to_prometheus();
        assert!(
            prom.contains("etlv_slo_alert{tenant=\"we\\\"ird\\\\name\",objective=\"latency\"} 1"),
            "{prom}"
        );
        assert!(prom.contains("etlv_node_overloaded 1"), "{prom}");
        // One TYPE line per family.
        for family in [
            "etlv_slo_burn",
            "etlv_slo_alert",
            "etlv_node_saturation",
            "etlv_node_recent_rejections",
            "etlv_node_overloaded",
        ] {
            let types = prom
                .lines()
                .filter(|l| *l == format!("# TYPE {family} gauge"))
                .count();
            assert_eq!(types, 1, "{family}");
        }
    }
}
