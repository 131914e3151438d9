//! Scenario definition and its on-disk text form.
//!
//! A scenario is the *complete* input to synthesis: every knob plus the
//! seed. The serialized form is line-oriented `key = value` text (no
//! external formats, reviewable in a diff), and `parse(render(s)) == s`
//! holds exactly — the regression suite pins it — so a committed scenario
//! file reproduces its trace byte-for-byte on any machine.

use std::fmt;

/// Arrival process shape for job start times over the horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Homogeneous Poisson: arrivals are uniform order statistics over
    /// the horizon (the exact distribution of a Poisson process
    /// conditioned on its event count).
    Steady,
    /// Burst mixture: most jobs land inside `bursts` narrow windows whose
    /// width shrinks with `burst_factor`; a `1/burst_factor` fraction
    /// stays as background noise across the whole horizon.
    Bursty,
    /// Sinusoidal intensity over one simulated day: rate peaks mid-
    /// horizon and sags to `diurnal_trough` of peak at the edges.
    Diurnal,
}

impl ArrivalKind {
    fn as_str(self) -> &'static str {
        match self {
            ArrivalKind::Steady => "steady",
            ArrivalKind::Bursty => "bursty",
            ArrivalKind::Diurnal => "diurnal",
        }
    }

    fn from_str(s: &str) -> Option<ArrivalKind> {
        match s {
            "steady" => Some(ArrivalKind::Steady),
            "bursty" => Some(ArrivalKind::Bursty),
            "diurnal" => Some(ArrivalKind::Diurnal),
            _ => None,
        }
    }
}

/// Error from [`Scenario::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioParseError(pub String);

impl fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario parse error: {}", self.0)
    }
}

impl std::error::Error for ScenarioParseError {}

/// All knobs for one synthetic workload. See module docs for the file
/// form; field order here matches line order there.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (labels the replay's [`SloSummary`](crate::SloSummary)).
    pub name: String,
    /// Master seed — the only source of randomness anywhere downstream.
    pub seed: u64,
    /// Tenant (session-population) count; each tenant replays its own
    /// job timeline on its own connection.
    pub tenants: u16,
    /// Total jobs across all tenants.
    pub jobs: u32,
    /// Simulated-time horizon the arrivals are spread over.
    pub horizon_ms: u32,
    /// Arrival process shape.
    pub arrival: ArrivalKind,
    /// Bursty: how much tighter a burst window is than its even share of
    /// the horizon (also sets the background fraction to `1/factor`).
    pub burst_factor: u32,
    /// Bursty: number of burst windows.
    pub bursts: u32,
    /// Diurnal: off-peak intensity as a fraction of peak, in `[0, 1]`.
    pub diurnal_trough: f64,
    /// Tables per tenant; job targets are Zipf-ranked over them.
    pub tables_per_tenant: u16,
    /// Zipf exponent for table popularity and job sizing (0 = uniform).
    pub zipf_s: f64,
    /// Rows for a job against the coldest table (before ±25% jitter).
    pub rows_base: u32,
    /// Rows for a job against the hottest (rank-1) table.
    pub rows_hot: u32,
    /// Approximate bytes per generated record.
    pub row_bytes: u32,
    /// Percent of jobs that are imports.
    pub import_pct: u8,
    /// Percent of jobs that are exports (the remainder are interactive
    /// SQL probes).
    pub export_pct: u8,
    /// Per-row probability (ppm) of a malformed date → ET error table.
    pub date_error_ppm: u32,
    /// Per-row probability (ppm) of a duplicate key → UV error table.
    pub dup_key_ppm: u32,
    /// Parallel data sessions per import job.
    pub sessions_per_import: u16,
}

impl Scenario {
    /// Steady homogeneous load: the control case every other scenario is
    /// read against.
    pub fn steady(seed: u64) -> Scenario {
        Scenario {
            name: "steady".into(),
            seed,
            tenants: 4,
            jobs: 24,
            horizon_ms: 1200,
            arrival: ArrivalKind::Steady,
            burst_factor: 1,
            bursts: 1,
            diurnal_trough: 1.0,
            tables_per_tenant: 6,
            zipf_s: 0.0,
            rows_base: 120,
            rows_hot: 120,
            row_bytes: 96,
            import_pct: 70,
            export_pct: 20,
            date_error_ppm: 0,
            dup_key_ppm: 0,
            sessions_per_import: 1,
        }
    }

    /// Bursty arrivals with Zipf-skewed tables and job sizes — the
    /// production shape: thundering herds into a few hot tables.
    pub fn bursty_zipf(seed: u64) -> Scenario {
        Scenario {
            name: "bursty_zipf".into(),
            seed,
            tenants: 6,
            jobs: 36,
            horizon_ms: 900,
            arrival: ArrivalKind::Bursty,
            burst_factor: 6,
            bursts: 3,
            diurnal_trough: 1.0,
            tables_per_tenant: 10,
            zipf_s: 1.2,
            rows_base: 40,
            rows_hot: 900,
            row_bytes: 96,
            import_pct: 75,
            export_pct: 15,
            date_error_ppm: 0,
            dup_key_ppm: 0,
            sessions_per_import: 2,
        }
    }

    /// Dirty feeds: a meaningful fraction of every import lands in the
    /// error tables (bad dates → ET, duplicate keys → UV).
    ///
    /// Sized with care: isolating each dirty row costs the adaptive
    /// apply a bisection of JOIN-scan uniqueness probes, and in the
    /// naive local CDW engine those scans grow with the target table
    /// (see ROADMAP: indexed uniqueness probes). Batches stay small and
    /// spread across enough tables that repeat imports don't pile a hot
    /// table into quadratic territory.
    pub fn error_heavy(seed: u64) -> Scenario {
        Scenario {
            name: "error_heavy".into(),
            seed,
            tenants: 4,
            jobs: 16,
            horizon_ms: 1000,
            arrival: ArrivalKind::Steady,
            burst_factor: 1,
            bursts: 1,
            diurnal_trough: 1.0,
            tables_per_tenant: 6,
            zipf_s: 0.5,
            rows_base: 60,
            rows_hot: 150,
            row_bytes: 96,
            import_pct: 100,
            export_pct: 0,
            date_error_ppm: 60_000,
            dup_key_ppm: 40_000,
            sessions_per_import: 1,
        }
    }

    /// Serialize to the canonical text form. Round-trips exactly through
    /// [`Scenario::parse`].
    pub fn render(&self) -> String {
        format!(
            "# etlv-workloadgen scenario v1\n\
             name = {}\n\
             seed = {}\n\
             tenants = {}\n\
             jobs = {}\n\
             horizon_ms = {}\n\
             arrival = {}\n\
             burst_factor = {}\n\
             bursts = {}\n\
             diurnal_trough = {}\n\
             tables_per_tenant = {}\n\
             zipf_s = {}\n\
             rows_base = {}\n\
             rows_hot = {}\n\
             row_bytes = {}\n\
             import_pct = {}\n\
             export_pct = {}\n\
             date_error_ppm = {}\n\
             dup_key_ppm = {}\n\
             sessions_per_import = {}\n",
            self.name,
            self.seed,
            self.tenants,
            self.jobs,
            self.horizon_ms,
            self.arrival.as_str(),
            self.burst_factor,
            self.bursts,
            self.diurnal_trough,
            self.tables_per_tenant,
            self.zipf_s,
            self.rows_base,
            self.rows_hot,
            self.row_bytes,
            self.import_pct,
            self.export_pct,
            self.date_error_ppm,
            self.dup_key_ppm,
            self.sessions_per_import,
        )
    }

    /// Parse the text form. Strict: every key must appear exactly once,
    /// unknown keys are errors — a scenario file either reproduces its
    /// run or is rejected, never silently reinterpreted.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioParseError> {
        let mut s = Scenario::steady(0);
        let mut seen: Vec<String> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| ScenarioParseError(format!("line {}: no '='", lineno + 1)))?;
            let (key, value) = (key.trim(), value.trim());
            if seen.iter().any(|k| k == key) {
                return Err(ScenarioParseError(format!("duplicate key '{key}'")));
            }
            seen.push(key.to_string());
            let bad = |what: &str| ScenarioParseError(format!("key '{key}': bad {what} '{value}'"));
            match key {
                "name" => s.name = value.to_string(),
                "seed" => s.seed = value.parse().map_err(|_| bad("u64"))?,
                "tenants" => s.tenants = value.parse().map_err(|_| bad("u16"))?,
                "jobs" => s.jobs = value.parse().map_err(|_| bad("u32"))?,
                "horizon_ms" => s.horizon_ms = value.parse().map_err(|_| bad("u32"))?,
                "arrival" => {
                    s.arrival = ArrivalKind::from_str(value).ok_or_else(|| bad("arrival kind"))?
                }
                "burst_factor" => s.burst_factor = value.parse().map_err(|_| bad("u32"))?,
                "bursts" => s.bursts = value.parse().map_err(|_| bad("u32"))?,
                "diurnal_trough" => s.diurnal_trough = value.parse().map_err(|_| bad("f64"))?,
                "tables_per_tenant" => {
                    s.tables_per_tenant = value.parse().map_err(|_| bad("u16"))?
                }
                "zipf_s" => s.zipf_s = value.parse().map_err(|_| bad("f64"))?,
                "rows_base" => s.rows_base = value.parse().map_err(|_| bad("u32"))?,
                "rows_hot" => s.rows_hot = value.parse().map_err(|_| bad("u32"))?,
                "row_bytes" => s.row_bytes = value.parse().map_err(|_| bad("u32"))?,
                "import_pct" => s.import_pct = value.parse().map_err(|_| bad("u8"))?,
                "export_pct" => s.export_pct = value.parse().map_err(|_| bad("u8"))?,
                "date_error_ppm" => s.date_error_ppm = value.parse().map_err(|_| bad("u32"))?,
                "dup_key_ppm" => s.dup_key_ppm = value.parse().map_err(|_| bad("u32"))?,
                "sessions_per_import" => {
                    s.sessions_per_import = value.parse().map_err(|_| bad("u16"))?
                }
                _ => return Err(ScenarioParseError(format!("unknown key '{key}'"))),
            }
        }
        const KEYS: [&str; 19] = [
            "name",
            "seed",
            "tenants",
            "jobs",
            "horizon_ms",
            "arrival",
            "burst_factor",
            "bursts",
            "diurnal_trough",
            "tables_per_tenant",
            "zipf_s",
            "rows_base",
            "rows_hot",
            "row_bytes",
            "import_pct",
            "export_pct",
            "date_error_ppm",
            "dup_key_ppm",
            "sessions_per_import",
        ];
        for key in KEYS {
            if !seen.iter().any(|k| k == key) {
                return Err(ScenarioParseError(format!("missing key '{key}'")));
            }
        }
        if s.tenants == 0 || s.jobs == 0 || s.tables_per_tenant == 0 {
            return Err(ScenarioParseError(
                "tenants, jobs, tables_per_tenant must be positive".into(),
            ));
        }
        if u32::from(s.import_pct) + u32::from(s.export_pct) > 100 {
            return Err(ScenarioParseError("import_pct + export_pct > 100".into()));
        }
        Ok(s)
    }

    /// The three named regression scenarios `tests/workload.rs` replays.
    pub fn presets(seed: u64) -> Vec<Scenario> {
        vec![
            Scenario::steady(seed),
            Scenario::bursty_zipf(seed),
            Scenario::error_heavy(seed),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_round_trip_exactly() {
        for s in Scenario::presets(1234) {
            let text = s.render();
            let back = Scenario::parse(&text).unwrap();
            assert_eq!(back, s, "{}", s.name);
            assert_eq!(back.render(), text, "render is canonical");
        }
    }

    #[test]
    fn parse_rejects_unknown_duplicate_and_missing_keys() {
        let good = Scenario::steady(1).render();
        assert!(Scenario::parse(&format!("{good}mystery = 1\n"))
            .unwrap_err()
            .0
            .contains("unknown"));
        assert!(Scenario::parse(&format!("{good}seed = 2\n"))
            .unwrap_err()
            .0
            .contains("duplicate"));
        let truncated = good.lines().take(5).collect::<Vec<_>>().join("\n");
        assert!(Scenario::parse(&truncated)
            .unwrap_err()
            .0
            .contains("missing"));
    }

    #[test]
    fn parse_rejects_inconsistent_mix() {
        let text = Scenario::steady(1)
            .render()
            .replace("import_pct = 70", "import_pct = 90");
        assert!(Scenario::parse(&text).unwrap_err().0.contains("> 100"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = format!(
            "# header\n\n{}\n# trailer\n",
            Scenario::bursty_zipf(9).render()
        );
        assert_eq!(Scenario::parse(&text).unwrap(), Scenario::bursty_zipf(9));
    }
}
