//! Snapshot renderers: the JSON document and the Prometheus text
//! exposition behind the `Stats` introspection topic.
//! Hand-rolled (the workspace carries no serialization dependency).

use super::{HistogramSnapshot, RegistrySnapshot, SeriesSnapshot, SeriesValue};

/// Escape a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One histogram summary as a JSON object.
pub(crate) fn histogram_json(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
        h.count, h.sum, h.max, h.p50, h.p95, h.p99
    )
}

/// Render the full stats snapshot as a JSON document. `series` holds one
/// object per registered series: its name keyed to its value (a number,
/// or a histogram summary), its kind, and its label when it has one.
pub(crate) fn stats_json(
    snap: &RegistrySnapshot,
    journal_emitted: u64,
    journal_retained: usize,
    journal_dropped: u64,
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"series\": [");
    for (i, s) in snap.series.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let (kind, value) = match &s.value {
            SeriesValue::Counter(v) => ("counter", v.to_string()),
            SeriesValue::Gauge(v) => ("gauge", v.to_string()),
            SeriesValue::Histogram(h) => ("histogram", histogram_json(h)),
        };
        out.push_str(&format!(
            "    {{\"{}\": {value}, \"kind\": \"{kind}\"",
            s.name
        ));
        if let Some((key, label)) = &s.label {
            out.push_str(&format!(", \"{key}\": \"{}\"", json_escape(label)));
        }
        out.push('}');
    }
    out.push_str("\n  ],\n");

    out.push_str(&format!(
        "  \"journal\": {{\"emitted\": {journal_emitted}, \"retained\": {journal_retained}, \
         \"dropped\": {journal_dropped}}}\n"
    ));
    out.push_str("}\n");
    out
}

fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("etlv_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double quote, and newline must be escaped inside the
/// quoted value.
pub(crate) fn prom_escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Render the stats snapshot as Prometheus text exposition: counters and
/// gauges as single samples, histograms as `summary` families with
/// `_count`/`_sum`/`_max` plus `quantile`-labelled samples. Metric-major:
/// the snapshot is name-sorted, so a family's label values are adjacent
/// and it gets exactly one `# TYPE` line however many there are.
pub(crate) fn stats_prometheus(
    snap: &RegistrySnapshot,
    journal_emitted: u64,
    journal_dropped: u64,
) -> String {
    let journal_series = [
        ("journal.events_emitted", journal_emitted),
        ("journal.events_dropped", journal_dropped),
    ]
    .map(|(name, v)| SeriesSnapshot {
        name: name.to_string(),
        label: None,
        value: SeriesValue::Counter(v),
    });

    let mut out = String::with_capacity(4096);
    let mut family = "";
    for s in snap.series.iter().chain(&journal_series) {
        let base = prom_name(&s.name);
        if s.name != family {
            let kind = match s.value {
                SeriesValue::Counter(_) => "counter",
                SeriesValue::Gauge(_) => "gauge",
                SeriesValue::Histogram(_) => "summary",
            };
            out.push_str(&format!("# TYPE {base} {kind}\n"));
            family = &s.name;
        }
        let label = s
            .label
            .as_ref()
            .map(|(key, v)| format!("{key}=\"{}\"", prom_escape_label(v)));
        let mut sample = |suffix: &str, quantile: Option<&str>, v: u64| {
            let labels: Vec<String> = label
                .iter()
                .cloned()
                .chain(quantile.map(|q| format!("quantile=\"{q}\"")))
                .collect();
            out.push_str(&base);
            out.push_str(suffix);
            if !labels.is_empty() {
                out.push_str(&format!("{{{}}}", labels.join(",")));
            }
            out.push_str(&format!(" {v}\n"));
        };
        match &s.value {
            SeriesValue::Counter(v) | SeriesValue::Gauge(v) => sample("", None, *v),
            SeriesValue::Histogram(h) => {
                sample("_count", None, h.count);
                sample("_sum", None, h.sum);
                sample("_max", None, h.max);
                for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                    sample("", Some(q), v);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> RegistrySnapshot {
        let hist = |count, sum, max, p50, p95, p99| {
            SeriesValue::Histogram(HistogramSnapshot {
                count,
                sum,
                max,
                p50,
                p95,
                p99,
            })
        };
        let mut series = Vec::new();
        let mut push = |name: &str, label: Option<(&'static str, &str)>, value| {
            series.push(SeriesSnapshot {
                name: name.to_string(),
                label: label.map(|(k, v)| (k, v.to_string())),
                value,
            })
        };
        push("pipeline.convert_chunks", None, SeriesValue::Counter(12));
        push("pipeline.convert_rows", None, SeriesValue::Counter(480));
        push("credit.in_flight", None, SeriesValue::Gauge(3));
        push("cdw.exec_us", None, hist(12, 600, 90, 47, 85, 90));
        for (tenant, rows) in [("alice", 400), ("bo\"b", 80)] {
            let t = Some(("tenant", tenant));
            push("tenant.jobs_started", t, SeriesValue::Counter(3));
            push("tenant.rows_applied", t, SeriesValue::Counter(rows));
            push("tenant.active_jobs", t, SeriesValue::Gauge(1));
            push("tenant.job_us", t, hist(3, 9000, 4000, 3000, 4000, 4000));
        }
        // Name-then-label order, as `MetricsRegistry::snapshot` yields it.
        series.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        RegistrySnapshot { series }
    }

    #[test]
    fn json_document_contains_all_sections() {
        let doc = stats_json(&sample_snapshot(), 40, 30, 10);
        for needle in [
            "\"pipeline.convert_chunks\": 12",
            "\"credit.in_flight\": 3",
            "\"cdw.exec_us\": {\"count\": 12",
            "\"p95\": 85",
            "\"journal\": {\"emitted\": 40, \"retained\": 30, \"dropped\": 10}",
            "\"tenant\": \"alice\"",
            "\"tenant\": \"bo\\\"b\"",
            "\"series\": [",
            "\"tenant.rows_applied\": 400, \"kind\": \"counter\", \"tenant\": \"alice\"",
            "\"tenant.job_us\": {\"count\": 3",
        ] {
            assert!(doc.contains(needle), "missing {needle} in:\n{doc}");
        }
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = stats_prometheus(&sample_snapshot(), 40, 10);
        for needle in [
            "etlv_pipeline_convert_chunks 12\n",
            "etlv_credit_in_flight 3\n",
            "etlv_journal_events_emitted 40\n",
            "etlv_journal_events_dropped 10\n",
            "etlv_cdw_exec_us_count 12\n",
            "etlv_cdw_exec_us{quantile=\"0.95\"} 85\n",
            "etlv_tenant_rows_applied{tenant=\"alice\"} 400\n",
            "etlv_tenant_rows_applied{tenant=\"bo\\\"b\"} 80\n",
            "etlv_tenant_active_jobs{tenant=\"alice\"} 1\n",
            "etlv_tenant_job_us_count{tenant=\"alice\"} 3\n",
            "etlv_tenant_job_us{tenant=\"alice\",quantile=\"0.95\"} 4000\n",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        // Tenant families are metric-major: one TYPE line even with two
        // tenants present.
        assert_eq!(
            text.matches("# TYPE etlv_tenant_rows_applied counter\n")
                .count(),
            1
        );
        assert_eq!(
            text.matches("# TYPE etlv_tenant_job_us summary\n").count(),
            1
        );
    }

    #[test]
    fn prometheus_conformance() {
        // Every sample line must parse as `name{labels} value` or
        // `name value` with a sane metric name, and every metric family
        // must be preceded by exactly one `# TYPE` line naming it.
        let text = stats_prometheus(&sample_snapshot(), 1, 0);
        let mut typed: std::collections::HashSet<String> = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().expect("TYPE line has a name");
                let kind = parts.next().expect("TYPE line has a kind");
                assert!(
                    matches!(kind, "counter" | "gauge" | "summary" | "histogram"),
                    "bad TYPE kind: {line}"
                );
                assert!(typed.insert(name.to_string()), "duplicate TYPE for {name}");
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad value in {line}"));
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in {line}"
            );
            // The family (name minus _count/_sum/_max suffix) must have
            // been announced by a TYPE line.
            let family = ["_count", "_sum", "_max"]
                .iter()
                .find_map(|s| name.strip_suffix(s))
                .unwrap_or(name);
            assert!(
                typed.contains(family) || typed.contains(name),
                "sample {name} missing TYPE metadata"
            );
        }
        // Histograms are announced as summaries.
        assert!(text.contains("# TYPE etlv_cdw_exec_us summary\n"));
    }

    #[test]
    fn label_escaping() {
        assert_eq!(prom_escape_label("plain"), "plain");
        assert_eq!(prom_escape_label("a\\b"), "a\\\\b");
        assert_eq!(prom_escape_label("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(prom_escape_label("line1\nline2"), "line1\\nline2");
        assert_eq!(
            prom_escape_label("\\\"\n"),
            "\\\\\\\"\\n",
            "all three escapes compose"
        );
    }
}
