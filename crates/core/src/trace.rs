//! Per-job causal traces: assembling journal events into a span tree and
//! attributing the job's wall time to pipeline stages.
//!
//! The journal (see [`crate::obs`]) records flat [`SpanEvent`]s; each
//! carries [`SpanIds`] naming its trace, its own span, and the span that
//! caused it. [`JobTrace::assemble`] rebuilds the tree for one job and
//! runs **critical-path attribution**: the interval `[job.begin,
//! job.begin + wall]` is decomposed segment by segment, each segment
//! charged to the highest-priority stage active during it (`copy` >
//! `apply` > `upload` > `convert` > `queue_wait` > `ack_wait`), with
//! uncovered segments charged to `other`. Because the decomposition is a
//! partition of the wall interval, the per-stage totals sum *exactly* to
//! the measured wall time — no double counting under parallelism, which a
//! naive sum of span durations would suffer from the moment two converter
//! workers overlap.

use crate::obs::{SpanEvent, SpanIds};

/// Pipeline stages wall time is attributed to, in *ascending* charge
/// priority (later variants win overlapping segments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Client ack turnaround (aggregate, lowest priority).
    AckWait,
    /// Chunk time spent queued between gateway intake and a converter.
    QueueWait,
    /// Record conversion (vartext/binary → staged columnar text).
    Convert,
    /// Staged-part upload to the object store.
    Upload,
    /// Whole-application phase (COPY + DML + bisection).
    Apply,
    /// CDW COPY INTO specifically (highest priority).
    Copy,
}

impl Stage {
    /// Stage label used in JSON and rendered output.
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Convert => "convert",
            Stage::Upload => "upload",
            Stage::Copy => "copy",
            Stage::Apply => "apply",
            Stage::AckWait => "ack_wait",
        }
    }

    /// Map a journal event kind to the stage it represents, if any.
    pub fn classify(kind: &str) -> Option<Stage> {
        Some(match kind {
            "chunk.queue" => Stage::QueueWait,
            "chunk.convert" => Stage::Convert,
            "file.upload" => Stage::Upload,
            "copy" => Stage::Copy,
            "apply" => Stage::Apply,
            "ack.wait" => Stage::AckWait,
            _ => return None,
        })
    }

    /// All stages, priority ascending.
    pub const ALL: [Stage; 6] = [
        Stage::AckWait,
        Stage::QueueWait,
        Stage::Convert,
        Stage::Upload,
        Stage::Apply,
        Stage::Copy,
    ];
}

/// One node of the assembled span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// This node's span id (0 for synthesized orphan anchors).
    pub span: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Journal event kind.
    pub kind: &'static str,
    /// Event timestamp (journal epoch µs; timed events stamp completion).
    pub at_micros: u64,
    /// Span duration, µs (0 for instantaneous events).
    pub dur_micros: u64,
    /// Originating session (0 = internal worker).
    pub session: u64,
    /// Kind-specific: chunk seq / part number / range start.
    pub chunk: u64,
    /// Kind-specific: rows / bytes / range end.
    pub value: u64,
    /// Child node indices into [`JobTrace::nodes`].
    pub children: Vec<usize>,
}

/// A job's assembled trace: the span tree plus wall-time attribution.
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// The job's load token.
    pub job: u64,
    /// Trace id every span shares.
    pub trace_id: u64,
    /// Index of the root (`job.begin`) node in [`Self::nodes`].
    pub root: usize,
    /// All nodes, journal order.
    pub nodes: Vec<SpanNode>,
    /// Journal timestamp of `job.begin`, µs.
    pub begin_micros: u64,
    /// Measured job wall time, µs.
    pub wall_micros: u64,
    /// Which terminal event ended the job: `"end"` (completed), `"fail"`
    /// or `"abort"`; `None` while the job is still running or when the
    /// ring evicted the event.
    pub outcome: Option<&'static str>,
    /// Events whose parent span was not retained (evicted or untraced);
    /// they are re-anchored under the root.
    pub orphans: u64,
    /// Wall-time decomposition: `(stage_name, micros)` for every stage
    /// plus `"other"`, summing exactly to `wall_micros`.
    pub attribution: Vec<(&'static str, u64)>,
    /// The stage with the largest attributed share (the critical stage).
    pub critical_stage: &'static str,
}

impl JobTrace {
    /// Assemble one job's events (as returned by
    /// `Journal::events_for_job`, oldest first) into a trace. Returns
    /// `None` when no `job.begin` event survives — without the root there
    /// is no tree to hang anything on.
    pub fn assemble(events: &[SpanEvent]) -> Option<JobTrace> {
        let begin = events.iter().find(|e| e.kind == "job.begin")?;
        let root_ids: SpanIds = begin.ids;
        let job = begin.job;

        // The terminal event — emitted with the root's own ids, whichever
        // way the job ended — folds into the root rather than becoming a
        // node. It carries the measured wall time; fall back to the latest
        // event timestamp for in-flight jobs.
        let terminal = |e: &SpanEvent| {
            let outcome = match e.kind {
                "job.end" => "end",
                "job.fail" => "fail",
                "job.abort" => "abort",
                _ => return None,
            };
            (e.ids.span == root_ids.span).then_some(outcome)
        };
        let end = events.iter().find(|e| terminal(e).is_some());
        let last_at = events
            .iter()
            .map(|e| e.at_micros)
            .max()
            .unwrap_or(begin.at_micros);
        let wall_micros = match end {
            Some(e) if e.dur_micros > 0 => e.dur_micros,
            Some(e) => e.at_micros.saturating_sub(begin.at_micros),
            None => last_at.saturating_sub(begin.at_micros),
        };

        // First pass: one node per non-terminal event.
        let mut nodes: Vec<SpanNode> = Vec::with_capacity(events.len());
        let mut root = 0usize;
        for e in events {
            if terminal(e).is_some() {
                continue;
            }
            if e.kind == "job.begin" {
                root = nodes.len();
            }
            nodes.push(SpanNode {
                span: e.ids.span,
                parent: if e.kind == "job.begin" {
                    0
                } else {
                    e.ids.parent
                },
                kind: e.kind,
                at_micros: e.at_micros,
                dur_micros: e.dur_micros,
                session: e.session,
                chunk: e.chunk,
                value: e.value,
                children: Vec::new(),
            });
        }

        // Second pass: link children. Untraced events (parent 0, e.g.
        // session.logon) anchor under the root directly; a *nonzero*
        // parent that is no longer retained re-anchors too but counts as
        // an orphan — evidence the ring evicted part of the tree.
        let index_of_span: std::collections::HashMap<u64, usize> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.span != 0)
            .map(|(i, n)| (n.span, i))
            .collect();
        let mut orphans = 0u64;
        let mut links: Vec<(usize, usize)> = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            if i == root {
                continue;
            }
            let parent_idx = if node.parent == 0 {
                root
            } else {
                match index_of_span.get(&node.parent) {
                    Some(&p) if p != i => p,
                    _ => {
                        orphans += 1;
                        root
                    }
                }
            };
            links.push((parent_idx, i));
        }
        for (p, c) in links {
            nodes[p].children.push(c);
        }

        // Attribution: partition [t0, t0+wall] by charge priority.
        let t0 = begin.at_micros;
        let t1 = t0 + wall_micros;
        let mut intervals: Vec<(u64, u64, Stage)> = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            if i == root || node.dur_micros == 0 {
                continue;
            }
            let Some(stage) = Stage::classify(node.kind) else {
                continue;
            };
            // Timed events stamp completion; the aggregate ack.wait span
            // has no single placement, so anchor it at job begin where
            // every higher-priority stage can shadow it.
            let (lo, hi) = if stage == Stage::AckWait {
                (t0, t0.saturating_add(node.dur_micros))
            } else {
                (
                    node.at_micros.saturating_sub(node.dur_micros),
                    node.at_micros,
                )
            };
            let lo = lo.clamp(t0, t1);
            let hi = hi.clamp(t0, t1);
            if hi > lo {
                intervals.push((lo, hi, stage));
            }
        }
        let mut cuts: Vec<u64> = vec![t0, t1];
        for &(lo, hi, _) in &intervals {
            cuts.push(lo);
            cuts.push(hi);
        }
        cuts.sort_unstable();
        cuts.dedup();
        let mut totals = [0u64; 6];
        let mut other = 0u64;
        for w in cuts.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if hi <= lo {
                continue;
            }
            let winner = intervals
                .iter()
                .filter(|&&(ilo, ihi, _)| ilo <= lo && hi <= ihi)
                .map(|&(_, _, s)| s)
                .max();
            match winner {
                Some(stage) => {
                    totals[Stage::ALL.iter().position(|&s| s == stage).unwrap()] += hi - lo;
                }
                None => other += hi - lo,
            }
        }
        let mut attribution: Vec<(&'static str, u64)> = Stage::ALL
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name(), totals[i]))
            .collect();
        attribution.push(("other", other));
        let critical_stage = attribution
            .iter()
            .max_by_key(|(_, micros)| *micros)
            .map(|(name, _)| *name)
            .unwrap_or("other");

        Some(JobTrace {
            job,
            trace_id: root_ids.trace,
            root,
            nodes,
            begin_micros: t0,
            wall_micros,
            outcome: end.and_then(terminal),
            orphans,
            attribution,
            critical_stage,
        })
    }

    /// Whether the job's terminal event was observed.
    pub fn complete(&self) -> bool {
        self.outcome.is_some()
    }

    /// Sum of all attributed buckets — equals `wall_micros` by
    /// construction.
    pub fn attributed_total(&self) -> u64 {
        self.attribution.iter().map(|(_, m)| m).sum()
    }

    /// Render the trace as a JSON document (the `Trace` introspection body).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 + self.nodes.len() * 128);
        out.push_str(&format!(
            "{{\n  \"job\": {}, \"trace_id\": {}, \"complete\": {}, \"outcome\": {}, \
             \"wall_micros\": {}, \"orphans\": {},\n",
            self.job,
            self.trace_id,
            self.complete(),
            self.outcome
                .map_or("null".to_string(), |o| format!("\"{o}\"")),
            self.wall_micros,
            self.orphans
        ));
        out.push_str("  \"attribution\": {");
        for (i, (name, micros)) in self.attribution.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { ", " });
            out.push_str(&format!("\"{name}\": {micros}"));
        }
        out.push_str("},\n");
        out.push_str(&format!(
            "  \"critical_stage\": \"{}\",\n  \"spans\": [",
            self.critical_stage
        ));
        for (i, n) in self.nodes.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"span\": {}, \"parent\": {}, \"kind\": \"{}\", \
                 \"at_micros\": {}, \"dur_micros\": {}, \"session\": {}, \
                 \"chunk\": {}, \"value\": {}}}",
                n.span, n.parent, n.kind, n.at_micros, n.dur_micros, n.session, n.chunk, n.value
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Render the span tree as indented ASCII, critical-path stages
    /// marked with `*` (used by `examples/obs_dump.rs --trace`).
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "job {} trace {:#x} wall {}us ({})\n",
            self.job,
            self.trace_id,
            self.wall_micros,
            self.outcome.unwrap_or("incomplete")
        ));
        out.push_str("attribution:\n");
        for (name, micros) in &self.attribution {
            let pct = if self.wall_micros > 0 {
                *micros as f64 * 100.0 / self.wall_micros as f64
            } else {
                0.0
            };
            let mark = if *name == self.critical_stage {
                " *"
            } else {
                ""
            };
            out.push_str(&format!("  {name:<10} {micros:>10}us {pct:5.1}%{mark}\n"));
        }
        out.push_str("spans:\n");
        self.render_node(&mut out, self.root, 1);
        out
    }

    fn render_node(&self, out: &mut String, idx: usize, depth: usize) {
        let n = &self.nodes[idx];
        let critical = Stage::classify(n.kind)
            .map(|s| s.name() == self.critical_stage)
            .unwrap_or(false);
        out.push_str(&format!(
            "{}{} {}{} [span {}]",
            "  ".repeat(depth),
            if critical { "*" } else { "-" },
            n.kind,
            if n.chunk != 0 || n.kind.starts_with("chunk") {
                format!(" #{}", n.chunk)
            } else {
                String::new()
            },
            n.span,
        ));
        if n.dur_micros > 0 {
            out.push_str(&format!(" {}us", n.dur_micros));
        }
        if n.value > 0 {
            out.push_str(&format!(" ({})", n.value));
        }
        out.push('\n');
        // Children in journal (time) order.
        for &c in &n.children {
            self.render_node(out, c, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        kind: &'static str,
        ids: SpanIds,
        at: u64,
        dur: u64,
        chunk: u64,
        value: u64,
    ) -> SpanEvent {
        SpanEvent {
            seq: at,
            at_micros: at,
            kind,
            ids,
            job: 7,
            session: 0,
            chunk,
            value,
            dur_micros: dur,
        }
    }

    fn root_ids() -> SpanIds {
        SpanIds {
            trace: 0xABC,
            span: 1,
            parent: 0,
        }
    }

    #[test]
    fn assembles_tree_and_partitions_wall_time() {
        let r = root_ids();
        let events = vec![
            ev("job.begin", r, 1000, 0, 0, 2),
            // Two overlapping converts: 1000..1400 and 1200..1600.
            ev("chunk.convert", r.child(2), 1400, 400, 1, 100),
            ev("chunk.convert", r.child(3), 1600, 400, 2, 100),
            // Upload 1600..1900.
            ev("file.upload", r.child(4), 1900, 300, 1, 4096),
            // COPY 1900..2100, apply phase 1900..2500.
            ev("copy", r.child(5), 2100, 200, 0, 0),
            ev("apply", r.child(6), 2500, 600, 0, 0),
            // Aggregate ack wait, anchored at begin.
            ev("ack.wait", r.child(7), 2500, 350, 0, 0),
            ev("job.end", r, 2500, 1500, 0, 200),
        ];
        let t = JobTrace::assemble(&events).expect("trace assembles");
        assert_eq!(t.job, 7);
        assert_eq!(t.trace_id, 0xABC);
        assert!(t.complete());
        assert_eq!(t.outcome, Some("end"));
        assert_eq!(t.wall_micros, 1500);
        assert_eq!(t.orphans, 0);
        assert_eq!(t.nodes[t.root].children.len(), 6);

        // Exact partition: buckets sum to the wall time.
        assert_eq!(t.attributed_total(), t.wall_micros);
        let get = |name: &str| {
            t.attribution
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, m)| *m)
                .unwrap()
        };
        // Converts cover 1000..1600 = 600, but ack.wait (1000..1350) is
        // lower priority so convert keeps it all.
        assert_eq!(get("convert"), 600);
        // Upload 1600..1900 = 300.
        assert_eq!(get("upload"), 300);
        // Apply covers 1900..2500 but copy (1900..2100) outranks it.
        assert_eq!(get("copy"), 200);
        assert_eq!(get("apply"), 400);
        assert_eq!(get("ack_wait"), 0, "fully shadowed by convert");
        assert_eq!(get("other"), 0);
        assert_eq!(t.critical_stage, "convert");
    }

    #[test]
    fn failed_job_folds_its_terminal_event_into_the_root() {
        let r = root_ids();
        let events = vec![
            ev("job.begin", r, 1000, 0, 0, 1),
            ev("chunk.convert", r.child(2), 1400, 400, 1, 100),
            ev("file.upload", r.child(3), 1700, 300, 1, 4096),
            // Emitted with the root's own ids, like job.end.
            ev("job.fail", r, 1800, 800, 0, 3707),
        ];
        let t = JobTrace::assemble(&events).expect("trace assembles");
        assert!(t.complete(), "a failed job is over");
        assert_eq!(t.outcome, Some("fail"));
        assert_eq!(t.wall_micros, 800);
        assert_eq!(t.orphans, 0);
        assert_eq!(t.nodes.len(), 3, "job.fail is not a node");
        let kinds: Vec<&str> = t.nodes[t.root]
            .children
            .iter()
            .map(|&c| t.nodes[c].kind)
            .collect();
        assert_eq!(
            kinds,
            ["chunk.convert", "file.upload"],
            "stage spans stay under job.begin"
        );
        assert_eq!(t.attributed_total(), t.wall_micros);
        assert!(t.to_json().contains("\"outcome\": \"fail\""));
        assert!(t.render_ascii().contains("(fail)"));

        let aborted = vec![events[0], ev("job.abort", r, 1500, 500, 0, 0)];
        let t = JobTrace::assemble(&aborted).unwrap();
        assert_eq!(t.outcome, Some("abort"));
    }

    #[test]
    fn orphan_events_anchor_to_root() {
        let r = root_ids();
        let lost_parent = SpanIds {
            trace: 0xABC,
            span: 9,
            parent: 999, // evicted from the ring
        };
        let events = vec![
            ev("job.begin", r, 0, 0, 0, 1),
            ev("chunk.convert", lost_parent, 500, 100, 1, 10),
        ];
        let t = JobTrace::assemble(&events).unwrap();
        assert_eq!(t.orphans, 1);
        assert_eq!(t.nodes[t.root].children.len(), 1);
        assert!(!t.complete());
        assert_eq!(t.outcome, None);
        assert_eq!(t.wall_micros, 500, "falls back to last event");
    }

    #[test]
    fn no_begin_means_no_trace() {
        let r = root_ids();
        let events = vec![ev("chunk.convert", r.child(2), 10, 5, 1, 1)];
        assert!(JobTrace::assemble(&events).is_none());
        assert!(JobTrace::assemble(&[]).is_none());
    }

    #[test]
    fn json_and_ascii_render() {
        let r = root_ids();
        let events = vec![
            ev("job.begin", r, 0, 0, 0, 1),
            ev("chunk.convert", r.child(2), 300, 300, 1, 50),
            ev("job.end", r, 400, 400, 0, 50),
        ];
        let t = JobTrace::assemble(&events).unwrap();
        let json = t.to_json();
        assert!(json.contains("\"job\": 7"), "{json}");
        assert!(json.contains("\"critical_stage\": \"convert\""), "{json}");
        assert!(json.contains("\"attribution\""), "{json}");
        assert!(json.contains("\"kind\": \"chunk.convert\""), "{json}");

        let ascii = t.render_ascii();
        assert!(ascii.contains("job 7"), "{ascii}");
        assert!(ascii.contains("convert"), "{ascii}");
        assert!(ascii.contains('*'), "critical path marked: {ascii}");
    }
}
