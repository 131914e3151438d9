//! Snapshot renderers: the JSON document and the Prometheus text
//! exposition behind the `Stats` introspection topic.
//! Hand-rolled (the workspace carries no serialization dependency).

use crate::report::{JobReport, NodeMetrics};

use super::RegistrySnapshot;

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

fn push_node_fields(out: &mut String, node: &NodeMetrics, indent: &str) {
    out.push_str(&format!(
        "{indent}\"jobs_completed\": {},\n\
         {indent}\"jobs_failed\": {},\n\
         {indent}\"jobs_aborted\": {},\n\
         {indent}\"exports_completed\": {},\n\
         {indent}\"rows_ingested\": {},\n\
         {indent}\"rows_exported\": {},\n\
         {indent}\"bytes_exported\": {},\n\
         {indent}\"credit_stalls\": {},\n\
         {indent}\"credit_stall_micros\": {},\n\
         {indent}\"peak_memory\": {}\n",
        node.jobs_completed,
        node.jobs_failed,
        node.jobs_aborted,
        node.exports_completed,
        node.rows_ingested,
        node.rows_exported,
        node.bytes_exported,
        node.credit_stalls,
        node.credit_stall_time.as_micros(),
        node.peak_memory,
    ));
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

/// Render the full stats snapshot as a JSON document.
pub fn stats_json(
    node: &NodeMetrics,
    snap: &RegistrySnapshot,
    recent_jobs: &[JobReport],
    journal_emitted: u64,
    journal_retained: usize,
    journal_dropped: u64,
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str("  \"node\": {\n");
    push_node_fields(&mut out, node, "    ");
    out.push_str("  },\n");

    out.push_str("  \"counters\": {");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!("    \"{name}\": {value}"));
    }
    out.push_str("\n  },\n");

    out.push_str("  \"gauges\": {");
    for (i, (name, value)) in snap.gauges.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!("    \"{name}\": {value}"));
    }
    out.push_str("\n  },\n");

    out.push_str("  \"histograms\": {");
    for (i, h) in snap.histograms.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \
             \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
            h.name, h.count, h.sum, h.max, h.p50, h.p95, h.p99
        ));
    }
    out.push_str("\n  },\n");

    out.push_str("  \"tenants\": [");
    for (i, t) in snap.tenants.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"tenant\": \"{}\", \"counters\": {{",
            json_escape(&t.tenant)
        ));
        for (j, (name, value)) in t.counters.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": {value}"));
        }
        out.push_str("}, \"gauges\": {");
        for (j, (name, value)) in t.gauges.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": {value}"));
        }
        out.push_str("}, \"histograms\": {");
        for (j, h) in t.histograms.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                h.name, h.count, h.sum, h.max, h.p50, h.p95, h.p99
            ));
        }
        out.push_str("}}");
    }
    out.push_str("\n  ],\n");

    out.push_str("  \"lock_sites\": [");
    for (i, s) in snap.lock_sites.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        out.push_str(&s.to_json());
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
/// gauges as single samples (with `# TYPE` metadata), histograms as
/// `summary` families with `_count`/`_sum`/`_max` plus
/// `quantile`-labelled samples.
pub fn stats_prometheus(
    node: &NodeMetrics,
    snap: &RegistrySnapshot,
    journal_emitted: u64,
    journal_dropped: u64,
) -> String {
    let mut out = String::with_capacity(4096);
    let node_samples: [(&str, u64); 10] = [
        ("node.jobs_completed", node.jobs_completed),
        ("node.jobs_failed", node.jobs_failed),
        ("node.jobs_aborted", node.jobs_aborted),
        ("node.exports_completed", node.exports_completed),
        ("node.rows_ingested", node.rows_ingested),
        ("node.rows_exported", node.rows_exported),
        ("node.bytes_exported", node.bytes_exported),
        ("node.credit_stalls", node.credit_stalls),
        (
            "node.credit_stall_micros",
            node.credit_stall_time.as_micros() as u64,
        ),
        ("node.peak_memory", node.peak_memory),
    ];
    for (name, value) in node_samples {
        let base = prom_name(name);
        out.push_str(&format!("# TYPE {base} gauge\n{base} {value}\n"));
    }
    for (name, value) in &snap.counters {
        let base = prom_name(name);
        out.push_str(&format!("# TYPE {base} counter\n{base} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        let base = prom_name(name);
        out.push_str(&format!("# TYPE {base} gauge\n{base} {value}\n"));
    }
    for (name, value) in [
        ("journal.events_emitted", journal_emitted),
        ("journal.events_dropped", journal_dropped),
    ] {
        let base = prom_name(name);
        out.push_str(&format!("# TYPE {base} counter\n{base} {value}\n"));
    }
    for h in &snap.histograms {
        let base = prom_name(&h.name);
        out.push_str(&format!("# TYPE {base} summary\n"));
        out.push_str(&format!("{base}_count {}\n", h.count));
        out.push_str(&format!("{base}_sum {}\n", h.sum));
        out.push_str(&format!("{base}_max {}\n", h.max));
        for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
            out.push_str(&format!(
                "{base}{{quantile=\"{}\"}} {v}\n",
                prom_escape_label(q)
            ));
        }
    }
    // Tenant-labelled families, metric-major: one `# TYPE` per family,
    // then one `tenant`-labelled sample per tenant, so the conformance
    // contract (exactly one TYPE line per family) holds no matter how
    // many tenants are interned.
    use std::collections::BTreeSet;
    let counter_names: BTreeSet<&str> = snap
        .tenants
        .iter()
        .flat_map(|t| t.counters.iter().map(|(n, _)| n.as_str()))
        .collect();
    for name in counter_names {
        let base = prom_name(&format!("tenant.{name}"));
        out.push_str(&format!("# TYPE {base} counter\n"));
        for t in &snap.tenants {
            if let Some((_, v)) = t.counters.iter().find(|(n, _)| n == name) {
                out.push_str(&format!(
                    "{base}{{tenant=\"{}\"}} {v}\n",
                    prom_escape_label(&t.tenant)
                ));
            }
        }
    }
    let gauge_names: BTreeSet<&str> = snap
        .tenants
        .iter()
        .flat_map(|t| t.gauges.iter().map(|(n, _)| n.as_str()))
        .collect();
    for name in gauge_names {
        let base = prom_name(&format!("tenant.{name}"));
        out.push_str(&format!("# TYPE {base} gauge\n"));
        for t in &snap.tenants {
            if let Some((_, v)) = t.gauges.iter().find(|(n, _)| n == name) {
                out.push_str(&format!(
                    "{base}{{tenant=\"{}\"}} {v}\n",
                    prom_escape_label(&t.tenant)
                ));
            }
        }
    }
    let hist_names: BTreeSet<&str> = snap
        .tenants
        .iter()
        .flat_map(|t| t.histograms.iter().map(|h| h.name.as_str()))
        .collect();
    for name in hist_names {
        let base = prom_name(&format!("tenant.{name}"));
        out.push_str(&format!("# TYPE {base} summary\n"));
        for t in &snap.tenants {
            let Some(h) = t.histograms.iter().find(|h| h.name == name) else {
                continue;
            };
            let tenant = prom_escape_label(&t.tenant);
            out.push_str(&format!(
                "{base}_count{{tenant=\"{tenant}\"}} {}\n",
                h.count
            ));
            out.push_str(&format!("{base}_sum{{tenant=\"{tenant}\"}} {}\n", h.sum));
            out.push_str(&format!("{base}_max{{tenant=\"{tenant}\"}} {}\n", h.max));
            for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                out.push_str(&format!(
                    "{base}{{tenant=\"{tenant}\",quantile=\"{q}\"}} {v}\n"
                ));
            }
        }
    }
    // Lock-site families, metric-major like tenants: one TYPE per
    // family, one `site`-labelled sample per interned site.
    if !snap.lock_sites.is_empty() {
        for (name, pick) in [("lock.site.acquires", 0usize), ("lock.site.contended", 1)] {
            let base = prom_name(name);
            out.push_str(&format!("# TYPE {base} counter\n"));
            for s in &snap.lock_sites {
                let v = if pick == 0 { s.acquires } else { s.contended };
                out.push_str(&format!(
                    "{base}{{site=\"{}\"}} {v}\n",
                    prom_escape_label(&s.site)
                ));
            }
        }
        for (name, wait) in [("lock.site.wait_us", true), ("lock.site.hold_us", false)] {
            let base = prom_name(name);
            out.push_str(&format!("# TYPE {base} summary\n"));
            for s in &snap.lock_sites {
                let h = if wait { &s.wait_us } else { &s.hold_us };
                let site = prom_escape_label(&s.site);
                out.push_str(&format!("{base}_count{{site=\"{site}\"}} {}\n", h.count));
                out.push_str(&format!("{base}_sum{{site=\"{site}\"}} {}\n", h.sum));
                out.push_str(&format!("{base}_max{{site=\"{site}\"}} {}\n", h.max));
                for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                    out.push_str(&format!("{base}{{site=\"{site}\",quantile=\"{q}\"}} {v}\n"));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::HistogramSnapshot;
    use std::time::Duration;

    fn sample_snapshot() -> RegistrySnapshot {
        let tenant = |name: &str, rows: u64| super::super::TenantSnapshot {
            tenant: name.into(),
            counters: vec![("jobs_started".into(), 3), ("rows_applied".into(), rows)],
            gauges: vec![("active_jobs".into(), 1)],
            histograms: vec![HistogramSnapshot {
                name: "job_us".into(),
                count: 3,
                sum: 9000,
                max: 4000,
                p50: 3000,
                p95: 4000,
                p99: 4000,
            }],
        };
        RegistrySnapshot {
            counters: vec![
                ("gateway.chunks_received".into(), 12),
                ("pipeline.convert_rows".into(), 480),
            ],
            gauges: vec![("credit.in_flight".into(), 3)],
            histograms: vec![HistogramSnapshot {
                name: "pipeline.convert_us".into(),
                count: 12,
                sum: 600,
                max: 90,
                p50: 47,
                p95: 85,
                p99: 90,
            }],
            tenants: vec![tenant("alice", 400), tenant("bo\"b", 80)],
            lock_sites: vec![
                super::super::LockSiteSnapshot {
                    site: "cdw.table/or\"ders".into(),
                    acquires: 20,
                    contended: 5,
                    wait_us: HistogramSnapshot {
                        name: "wait_us".into(),
                        count: 5,
                        sum: 750,
                        max: 300,
                        p50: 100,
                        p95: 280,
                        p99: 300,
                    },
                    hold_us: HistogramSnapshot {
                        name: "hold_us".into(),
                        count: 20,
                        sum: 400,
                        max: 60,
                        p50: 15,
                        p95: 50,
                        p99: 60,
                    },
                },
                super::super::LockSiteSnapshot {
                    site: "runtime.state".into(),
                    acquires: 100,
                    contended: 2,
                    ..Default::default()
                },
            ],
        }
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
            "\"rows_applied\": 400",
            "\"job_us\": {\"count\": 3",
            "\"lock_sites\": [",
            "\"site\": \"cdw.table/or\\\"ders\"",
            "\"contended\": 5",
            "\"wait_us\": {\"count\": 5, \"sum\": 750",
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
