//! The metric contract: every number the benchmark reports, with its
//! unit, which direction is better, and — for end-to-end metrics — the
//! share by which it may worsen before a change counts as a regression.
//! `BENCHMARK.json` is generated from these tables (`--describe`), and a
//! test holds the committed file to them.

use crate::workloads::{ALL, DEFAULT_SECONDS};

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (jobs, blocks or repetitions).
    pub samples: usize,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Whether the spread between runs of one commit is held to the
    /// bound as well as the gap between their medians. Set-up is short,
    /// so single timings of it scatter; only its median is gated.
    pub spread_gated: bool,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    spread_gated: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        spread_gated,
    }
}

/// What a user of the system sees.
///
/// The issue that defined the benchmark asked for 10% on the timings (15%
/// on `setup_s`, 1% on the byte ratio). The ratio has it: it repeats
/// exactly for a seed and within 0.1% across seeds. The timings cannot:
/// the reference host's two CPUs are the two hardware threads of one
/// core, that core's speed shifts by a quarter from one ten-minute
/// stretch to the next, and the hypervisor takes up to a sixth of it away
/// — ten runs of one commit spread (quartile to quartile) by 5–24% of
/// their median, whatever is measured inside a run.
/// `REPEATABILITY.md` has the observations. The driver rejects a benchmark
/// whose same-commit spread exceeds a bound, and asks for bounds of three
/// times the spread seen, at most 0.25; so the timings carry 0.25.
pub const END_TO_END: [EndToEnd; 6] = [
    end_to_end("setup_s", "s", Better::Lower, 0.25, false),
    end_to_end("rows_per_s", "rows/s", Better::Higher, 0.25, true),
    end_to_end("import_p50_ms", "ms", Better::Lower, 0.25, true),
    end_to_end("export_p50_ms", "ms", Better::Lower, 0.25, true),
    end_to_end("cpu_s_per_mrow", "s/Mrow", Better::Lower, 0.25, true),
    end_to_end(
        "staged_bytes_per_input_byte",
        "ratio",
        Better::Lower,
        0.01,
        true,
    ),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric(s) a change of this number should move,
    /// comma-separated; empty for a diagnostic that predicts nothing.
    pub moves: &'static str,
    /// The workload(s) it should move them on; everywhere else the
    /// prediction is no change.
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

use Better::{Higher, Lower};

/// One entry per layer number, in the order the traced run prints them,
/// each with the prediction the issue that defined the benchmark wrote
/// down before anything was measured. The traced run prints the
/// prediction beside the number; `BENCHMARK.json` cannot carry it (the
/// driver's contract fixes the keys of a `per_layer` entry).
pub const PER_LAYER: [PerLayer; 56] = [
    layer(
        "client.acquire_ms",
        "ms",
        Lower,
        "import_p50_ms",
        "bulk_narrow",
    ),
    layer(
        "client.apply_wait_ms",
        "ms",
        Lower,
        "import_p50_ms",
        "bulk_narrow",
    ),
    layer(
        "client.other_ms",
        "ms",
        Lower,
        "import_p50_ms",
        "bulk_narrow",
    ),
    layer("client.import_tail_ms", "ms", Lower, "", ""),
    layer("client.import_tail_pct", "%", Higher, "", ""),
    layer("client.export_tail_ms", "ms", Lower, "", ""),
    layer("client.export_tail_pct", "%", Higher, "", ""),
    layer(
        "gateway.acquisition_ms",
        "ms",
        Lower,
        "rows_per_s",
        "tenant_mix",
    ),
    layer(
        "gateway.application_ms",
        "ms",
        Lower,
        "rows_per_s",
        "tenant_mix",
    ),
    layer("gateway.other_ms", "ms", Lower, "rows_per_s", "tenant_mix"),
    layer(
        "gateway.wire_gap_ms",
        "ms",
        Lower,
        "rows_per_s",
        "tenant_mix",
    ),
    layer(
        "credit.stalls_per_job",
        "count",
        Lower,
        "import_p50_ms",
        "bulk_wide",
    ),
    layer(
        "credit.stall_ms_per_job",
        "ms",
        Lower,
        "import_p50_ms",
        "bulk_wide",
    ),
    layer(
        "memory.peak_inflight_mb",
        "MB",
        Lower,
        "import_p50_ms",
        "bulk_wide",
    ),
    layer(
        "cdw.index_seeks_per_job",
        "count",
        Lower,
        "import_p50_ms",
        "bulk_narrow,bulk_wide",
    ),
    layer(
        "cdw.full_scans_per_job",
        "count",
        Lower,
        "import_p50_ms",
        "bulk_narrow,bulk_wide",
    ),
    layer(
        "cdw.index_maintains_per_job",
        "count",
        Lower,
        "import_p50_ms",
        "bulk_narrow,bulk_wide",
    ),
    layer(
        "process.allocs_per_row",
        "count",
        Lower,
        "cpu_s_per_mrow",
        "bulk_narrow",
    ),
    layer(
        "process.alloc_bytes_per_row",
        "B",
        Lower,
        "cpu_s_per_mrow",
        "bulk_narrow",
    ),
    layer(
        "process.ctx_switches_per_krow",
        "count",
        Lower,
        "cpu_s_per_mrow",
        "bulk_narrow",
    ),
    layer(
        "process.threads",
        "count",
        Lower,
        "cpu_s_per_mrow",
        "tenant_mix",
    ),
    layer("process.peak_rss_mb", "MB", Lower, "", ""),
    layer("bench.trace_overhead_pct", "%", Lower, "", ""),
    layer("host.spin_ms", "ms", Lower, "", ""),
    layer("host.steal_pct", "%", Lower, "", ""),
    layer("budget.unattributed_pct", "%", Lower, "", ""),
    layer(
        "reactor.keepalive_rtt_us",
        "us",
        Lower,
        "import_p50_ms,export_p50_ms",
        "tenant_mix",
    ),
    layer(
        "reactor.sql_rtt_us",
        "us",
        Lower,
        "import_p50_ms,export_p50_ms",
        "tenant_mix",
    ),
    layer(
        "gateway.empty_job_ms",
        "ms",
        Lower,
        "rows_per_s",
        "tenant_mix",
    ),
    layer(
        "protocol.encode_mb_s",
        "MB/s",
        Higher,
        "cpu_s_per_mrow",
        "bulk_wide",
    ),
    layer(
        "protocol.decode_mb_s",
        "MB/s",
        Higher,
        "cpu_s_per_mrow",
        "bulk_wide",
    ),
    layer(
        "client.split_mrows_s",
        "Mrows/s",
        Higher,
        "import_p50_ms",
        "bulk_narrow",
    ),
    layer(
        "pipeline.rows_per_s",
        "rows/s",
        Higher,
        "rows_per_s",
        "bulk_narrow",
    ),
    layer(
        "pipeline.busy_ms_per_job",
        "ms",
        Lower,
        "rows_per_s",
        "bulk_narrow",
    ),
    layer(
        "pipeline.files_per_job",
        "count",
        Lower,
        "rows_per_s",
        "bulk_narrow",
    ),
    layer(
        "pipeline.handoff_ratio",
        "ratio",
        Lower,
        "cpu_s_per_mrow",
        "tenant_mix",
    ),
    layer(
        "convert.rows_per_s",
        "rows/s",
        Higher,
        "cpu_s_per_mrow",
        "bulk_narrow",
    ),
    layer(
        "convert.mb_s",
        "MB/s",
        Higher,
        "cpu_s_per_mrow",
        "bulk_wide",
    ),
    layer(
        "convert.busy_ms_per_job",
        "ms",
        Lower,
        "cpu_s_per_mrow",
        "bulk_narrow,bulk_wide",
    ),
    layer("convert.error_rows_per_job", "count", Lower, "", ""),
    layer(
        "cloudstore.compress_mb_s",
        "MB/s",
        Higher,
        "import_p50_ms",
        "bulk_wide",
    ),
    layer(
        "cloudstore.put_mb_s",
        "MB/s",
        Higher,
        "import_p50_ms",
        "bulk_wide",
    ),
    layer(
        "cloudstore.busy_ms_per_job",
        "ms",
        Lower,
        "import_p50_ms",
        "bulk_wide",
    ),
    layer(
        "cloudstore.bytes_put_per_job",
        "B",
        Lower,
        "staged_bytes_per_input_byte",
        "bulk_wide",
    ),
    layer(
        "cdw.copy_rows_per_s",
        "rows/s",
        Higher,
        "import_p50_ms",
        "bulk_narrow,bulk_wide",
    ),
    layer(
        "cdw.copy_ms_per_job",
        "ms",
        Lower,
        "import_p50_ms",
        "bulk_narrow,bulk_wide",
    ),
    layer(
        "apply.rows_per_s",
        "rows/s",
        Higher,
        "import_p50_ms",
        "bulk_narrow,bulk_wide",
    ),
    layer(
        "apply.ms_per_job",
        "ms",
        Lower,
        "import_p50_ms",
        "bulk_narrow,bulk_wide",
    ),
    layer(
        "adaptive.stmts_per_job",
        "count",
        Lower,
        "rows_per_s,import_p50_ms",
        "dirty_feed",
    ),
    layer(
        "adaptive.splits_per_job",
        "count",
        Lower,
        "rows_per_s,import_p50_ms",
        "dirty_feed",
    ),
    layer(
        "adaptive.stmts_per_error_row",
        "count",
        Lower,
        "rows_per_s,import_p50_ms",
        "dirty_feed",
    ),
    layer(
        "emulate.probe_ms_per_job",
        "ms",
        Lower,
        "rows_per_s,import_p50_ms",
        "dirty_feed",
    ),
    layer(
        "cursor.open_ms",
        "ms",
        Lower,
        "export_p50_ms",
        "bulk_narrow,bulk_wide",
    ),
    layer(
        "cursor.chunk_rows_per_s",
        "rows/s",
        Higher,
        "export_p50_ms",
        "bulk_narrow,bulk_wide",
    ),
    layer(
        "xcompile.compile_us_per_job",
        "us",
        Lower,
        "import_p50_ms",
        "tenant_mix",
    ),
    layer("budget.replay_coverage_pct", "%", Higher, "", ""),
];

/// The text of `BENCHMARK.json`, generated from the tables above.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = ALL
        .into_iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"etlv-bench/run.sh\"],\n  \"paths\": [\"etlv-bench\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        DEFAULT_SECONDS as u64,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
