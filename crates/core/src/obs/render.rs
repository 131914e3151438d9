//! Snapshot renderers: the JSON document and the Prometheus text
//! exposition behind the `Stats` introspection topic.
//! Hand-rolled (the workspace carries no serialization dependency).

use crate::report::{JobReport, NodeMetrics};

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

/// The node-level totals, named once for both renderings (the JSON
/// `node` object's keys, the `etlv_node_*` gauges).
fn node_fields(node: &NodeMetrics) -> [(&'static str, u64); 10] {
    [
        ("jobs_completed", node.jobs_completed),
        ("jobs_failed", node.jobs_failed),
        ("jobs_aborted", node.jobs_aborted),
        ("exports_completed", node.exports_completed),
        ("rows_ingested", node.rows_ingested),
        ("rows_exported", node.rows_exported),
        ("bytes_exported", node.bytes_exported),
        ("credit_stalls", node.credit_stalls),
        (
            "credit_stall_micros",
            node.credit_stall_time.as_micros() as u64,
        ),
        ("peak_memory", node.peak_memory),
    ]
}

/// One histogram summary as a JSON object.
pub(crate) fn histogram_json(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
        h.count, h.sum, h.max, h.p50, h.p95, h.p99
    )
}

fn push_job(out: &mut String, job: &JobReport) {
    out.push_str(&format!(
        "{{\"rows_received\": {}, \"rows_applied\": {}, \"errors_et\": {}, \
         \"errors_uv\": {}, \"acquisition_micros\": {}, \"application_micros\": {}, \
         \"other_micros\": {}, \"files_staged\": {}, \"bytes_staged\": {}, \
         \"upload_retries\": {}, \"cdw_retries\": {}, \"faults_injected\": {}, \
         \"aborted\": {}}}",
        job.rows_received,
        job.rows_applied,
        job.errors_et,
        job.errors_uv,
        job.acquisition.as_micros(),
        job.application.as_micros(),
        job.other.as_micros(),
        job.files_staged,
        job.bytes_staged,
        job.upload_retries,
        job.cdw_retries,
        job.faults_injected,
        job.aborted,
    ));
}

/// Render the full stats snapshot as a JSON document. `series` holds one
/// object per registered series: its name keyed to its value (a number,
/// or a histogram summary), its kind, and its label when it has one.
pub fn stats_json(
    node: &NodeMetrics,
    snap: &RegistrySnapshot,
    recent_jobs: &[JobReport],
    journal_emitted: u64,
    journal_retained: usize,
    journal_dropped: u64,
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"node\": {");
    for (i, (name, value)) in node_fields(node).iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!("    \"{name}\": {value}"));
    }
    out.push_str("\n  },\n");

    out.push_str("  \"series\": [");
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

    out.push_str("  \"recent_jobs\": [");
    for (i, job) in recent_jobs.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        push_job(&mut out, job);
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
pub fn prom_escape_label(value: &str) -> String {
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
pub fn stats_prometheus(
    node: &NodeMetrics,
    snap: &RegistrySnapshot,
    journal_emitted: u64,
    journal_dropped: u64,
) -> String {
    let scalar = |name: String, value: SeriesValue| SeriesSnapshot {
        name,
        label: None,
        value,
    };
    let node_series =
        node_fields(node).map(|(name, v)| scalar(format!("node.{name}"), SeriesValue::Gauge(v)));
    let journal_series = [
        ("journal.events_emitted", journal_emitted),
        ("journal.events_dropped", journal_dropped),
    ]
    .map(|(name, v)| scalar(name.to_string(), SeriesValue::Counter(v)));

    let mut out = String::with_capacity(4096);
    let mut family = "";
    for s in node_series
        .iter()
        .chain(&snap.series)
        .chain(&journal_series)
    {
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
    use std::time::Duration;

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
        push("gateway.chunks_received", None, SeriesValue::Counter(12));
        push("pipeline.convert_rows", None, SeriesValue::Counter(480));
        push("credit.in_flight", None, SeriesValue::Gauge(3));
        push("pipeline.convert_us", None, hist(12, 600, 90, 47, 85, 90));
        for (tenant, rows) in [("alice", 400), ("bo\"b", 80)] {
            let t = Some(("tenant", tenant));
            push("tenant.jobs_started", t, SeriesValue::Counter(3));
            push("tenant.rows_applied", t, SeriesValue::Counter(rows));
            push("tenant.active_jobs", t, SeriesValue::Gauge(1));
            push("tenant.job_us", t, hist(3, 9000, 4000, 3000, 4000, 4000));
        }
        let hot = Some(("site", "cdw.table/or\"ders"));
        push("lock.site.acquires", hot, SeriesValue::Counter(20));
        push("lock.site.contended", hot, SeriesValue::Counter(5));
        push("lock.site.wait_us", hot, hist(5, 750, 300, 100, 280, 300));
        push("lock.site.hold_us", hot, hist(20, 400, 60, 15, 50, 60));
        let quiet = Some(("site", "runtime.state"));
        push("lock.site.acquires", quiet, SeriesValue::Counter(100));
        push("lock.site.contended", quiet, SeriesValue::Counter(2));
        push("lock.site.wait_us", quiet, hist(0, 0, 0, 0, 0, 0));
        push("lock.site.hold_us", quiet, hist(0, 0, 0, 0, 0, 0));
        // Name-then-label order, as `MetricsRegistry::snapshot` yields it.
        series.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        RegistrySnapshot { series }
    }

    fn sample_node() -> NodeMetrics {
        NodeMetrics {
            jobs_completed: 2,
            jobs_aborted: 1,
            rows_ingested: 480,
            credit_stalls: 5,
            credit_stall_time: Duration::from_micros(1500),
            peak_memory: 65536,
            ..Default::default()
        }
    }

    #[test]
    fn json_document_contains_all_sections() {
        let job = JobReport {
            rows_received: 240,
            upload_retries: 1,
            cdw_retries: 2,
            aborted: true,
            ..Default::default()
        };
        let doc = stats_json(&sample_node(), &sample_snapshot(), &[job], 40, 30, 10);
        for needle in [
            "\"jobs_completed\": 2",
            "\"jobs_aborted\": 1",
            "\"aborted\": true",
            "\"credit_stalls\": 5",
            "\"credit_stall_micros\": 1500",
            "\"gateway.chunks_received\": 12",
            "\"credit.in_flight\": 3",
            "\"pipeline.convert_us\": {\"count\": 12",
            "\"p95\": 85",
            "\"upload_retries\": 1",
            "\"cdw_retries\": 2",
            "\"journal\": {\"emitted\": 40, \"retained\": 30, \"dropped\": 10}",
            "\"tenant\": \"alice\"",
            "\"tenant\": \"bo\\\"b\"",
            "\"series\": [",
            "\"tenant.rows_applied\": 400, \"kind\": \"counter\", \"tenant\": \"alice\"",
            "\"tenant.job_us\": {\"count\": 3",
            "\"site\": \"cdw.table/or\\\"ders\"",
            "\"lock.site.contended\": 5",
            "\"lock.site.wait_us\": {\"count\": 5, \"sum\": 750",
            "\"site\": \"runtime.state\"",
        ] {
            assert!(doc.contains(needle), "missing {needle} in:\n{doc}");
        }
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = stats_prometheus(&sample_node(), &sample_snapshot(), 40, 10);
        for needle in [
            "etlv_node_jobs_completed 2\n",
            "etlv_node_jobs_aborted 1\n",
            "etlv_node_peak_memory 65536\n",
            "etlv_gateway_chunks_received 12\n",
            "etlv_credit_in_flight 3\n",
            "etlv_journal_events_emitted 40\n",
            "etlv_journal_events_dropped 10\n",
            "etlv_pipeline_convert_us_count 12\n",
            "etlv_pipeline_convert_us{quantile=\"0.95\"} 85\n",
            "etlv_tenant_rows_applied{tenant=\"alice\"} 400\n",
            "etlv_tenant_rows_applied{tenant=\"bo\\\"b\"} 80\n",
            "etlv_tenant_active_jobs{tenant=\"alice\"} 1\n",
            "etlv_tenant_job_us_count{tenant=\"alice\"} 3\n",
            "etlv_tenant_job_us{tenant=\"alice\",quantile=\"0.95\"} 4000\n",
            "etlv_lock_site_acquires{site=\"cdw.table/or\\\"ders\"} 20\n",
            "etlv_lock_site_contended{site=\"cdw.table/or\\\"ders\"} 5\n",
            "etlv_lock_site_acquires{site=\"runtime.state\"} 100\n",
            "etlv_lock_site_wait_us_sum{site=\"cdw.table/or\\\"ders\"} 750\n",
            "etlv_lock_site_wait_us{site=\"cdw.table/or\\\"ders\",quantile=\"0.99\"} 300\n",
            "etlv_lock_site_hold_us_count{site=\"cdw.table/or\\\"ders\"} 20\n",
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
        // Lock-site families likewise: one TYPE line across two sites.
        assert_eq!(
            text.matches("# TYPE etlv_lock_site_acquires counter\n")
                .count(),
            1
        );
        assert_eq!(
            text.matches("# TYPE etlv_lock_site_wait_us summary\n")
                .count(),
            1
        );
    }

    #[test]
    fn prometheus_conformance() {
        // Every sample line must parse as `name{labels} value` or
        // `name value` with a sane metric name, and every metric family
        // must be preceded by exactly one `# TYPE` line naming it.
        let text = stats_prometheus(&sample_node(), &sample_snapshot(), 1, 0);
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
        assert!(text.contains("# TYPE etlv_pipeline_convert_us summary\n"));
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
