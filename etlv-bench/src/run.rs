//! One benchmark run: set up, measure the workload's fixed number of
//! cycles, hold every job to the generator's ground truth, and reduce the
//! samples to the end-to-end metrics (and, traced, the per-layer ones).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use etlv_cdw::PlanStats;
use etlv_core::xcompile::staging_table_name;
use etlv_core::NodeMetrics;
use etlv_legacy_client::export::run_export;
use etlv_legacy_client::import::run_import;
use etlv_legacy_client::{ClientOptions, PhaseTimes, Session};
use etlv_protocol::data::Value;
use etlv_protocol::message::{LoadReport, SessionRole};

use crate::gen::{self, lines_checksum, Import, Job, Plan};
use crate::metrics::{metric, Metric};
use crate::node::{self, Node};
use crate::stats::{median, median_block_rate, ms, sorted, tail};
use crate::trace::{self, Tracer};
use crate::workloads::{measured_cycles, Workload, BLOCKS};
use crate::{host, replay};

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Nominal measured seconds: scales the workload's frozen cycle
    /// count (`workloads::measured_cycles`); no clock ends the section.
    pub seconds: f64,
    /// Row-count divisor: 1 for a real run, `SMOKE_DIVISOR` for smoke.
    pub div: u64,
    /// Full set-ups to time; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Record spans, count allocations, replay the layers.
    pub traced: bool,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Every oracle objection, one line each.
    pub problems: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable context printed before the result line.
    pub notes: Vec<String>,
}

/// What the generator's plan says a table holds right now. Imports that
/// have started but not finished make the expected content a range, which
/// is all an export racing them can be held to.
struct TableTruth {
    rows_started: AtomicU64,
    rows_done: AtomicU64,
    sum_done: AtomicU64,
    /// Starting state (after the warm load); restore returns here.
    base_rows: AtomicU64,
    base_sum: AtomicU64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Import,
    Export,
    Probe,
}

pub struct Outcome {
    pub kind: Kind,
    pub wall: Duration,
    /// Rows imported or exported.
    pub rows: u64,
    /// Legacy input bytes sent (imports).
    pub input_bytes: u64,
    pub phases: Option<PhaseTimes>,
    pub report: Option<LoadReport>,
    /// An export's bytes, held until the cycle's timers have stopped.
    exported: Option<Exported>,
    pub problems: Vec<String>,
}

/// What an export returned and what the plan allowed it to return: at
/// least the `lo` rows applied before it began, at most the `hi` rows
/// whose imports had begun when it ended, and — when the two are equal,
/// so no import overlapped it — exactly the lines summing to `sum`.
struct Exported {
    select: String,
    data: Vec<u8>,
    rows: u64,
    lo: u64,
    hi: u64,
    sum: u64,
}

impl Exported {
    fn verify(&self) -> Option<String> {
        let (lines, checksum) = lines_checksum(&self.data);
        let exact = self.lo == self.hi;
        let ok = lines == self.rows
            && (self.lo..=self.hi).contains(&lines)
            && (!exact || checksum == self.sum);
        (!ok).then(|| {
            format!(
                "export `{}`: {lines} lines for {} reported rows (checksum {checksum:#x}), planned {}..={} rows (checksum {:#x}{})",
                self.select,
                self.rows,
                self.lo,
                self.hi,
                self.sum,
                if exact { "" } else { ", not compared: an import overlapped" }
            )
        })
    }
}

/// Row count and order-independent checksum of an error table's `SEQNO`
/// column, read straight from the CDW.
fn seqno_checksum(cdw: &etlv_cdw::Cdw, table: &str) -> Result<(u64, u64), String> {
    let result = cdw
        .execute(&format!("SELECT SEQNO FROM {table}"))
        .map_err(|e| e.to_string())?;
    Ok(result.rows.iter().fold((0, 0u64), |(n, sum), row| {
        let seq = match row.first() {
            Some(Value::Int(seq)) => seq.to_string(),
            other => format!("{other:?}"),
        };
        (n + 1, sum.wrapping_add(gen::line_hash(seq.as_bytes())))
    }))
}

pub struct Env<'t> {
    pub plan: Plan,
    pub node: Node,
    truths: Vec<TableTruth>,
    pub client: ClientOptions,
    pub tracer: &'t Tracer,
    /// Load/export tokens the node has handed out at most (for the
    /// staging-table residue check).
    jobs_issued: AtomicU64,
}

/// Timed region of one cycle.
struct CycleSample {
    wall_s: f64,
    cpu_s: f64,
    /// CPU time the hypervisor withheld from the machine meanwhile.
    steal_s: f64,
    rows: u64,
    input_bytes: u64,
    staged_bytes: u64,
    traced: bool,
    allocs: u64,
    alloc_bytes: u64,
    ctx_switches: u64,
    plan: PlanStats,
}

impl Env<'_> {
    fn run_job(&self, job: &Job) -> Outcome {
        let cdw = self.node.v.cdw();
        let mut problems = Vec::new();
        let started = Instant::now();
        self.jobs_issued.fetch_add(1, Ordering::Relaxed);
        match job {
            Job::Import(import) => {
                let Import {
                    table,
                    job,
                    data,
                    truth: want,
                    ..
                } = &**import;
                let truth = &self.truths[*table];
                truth.rows_started.fetch_add(want.applied, Ordering::SeqCst);
                let result = run_import(&self.node.connector, job, data, &self.client);
                let wall = started.elapsed();
                let (mut rows, mut input_bytes, mut phases, mut report) = (0, 0, None, None);
                match result {
                    Ok(r) => {
                        let got = (
                            r.rows_sent,
                            r.report.rows_received,
                            r.report.rows_applied,
                            r.report.errors_et,
                            r.report.errors_uv,
                        );
                        let planned = (want.rows, want.rows, want.applied, want.et, want.uv);
                        if got != planned {
                            problems.push(format!(
                                "import {}: (sent, received, applied, ET, UV) = {got:?}, planned {planned:?}",
                                job.target
                            ));
                        }
                        // The error tables live until the next load of this
                        // target, so their contents are checked right away.
                        for (name, rows, sum) in [
                            (&job.error_table_et, want.et, want.et_sum),
                            (&job.error_table_uv, want.uv, want.uv_sum),
                        ] {
                            let got = seqno_checksum(cdw, name);
                            if got != Ok((rows, sum)) {
                                problems.push(format!(
                                    "{name}: (rows, SEQNO checksum) = {got:?}, planned ({rows}, {sum})"
                                ));
                            }
                        }
                        truth.sum_done.fetch_add(want.applied_sum, Ordering::SeqCst);
                        truth
                            .rows_done
                            .fetch_add(r.report.rows_applied, Ordering::SeqCst);
                        rows = r.rows_sent;
                        input_bytes = r.bytes_sent;
                        self.trace_import(started, wall, &r.phases, &r.report);
                        phases = Some(r.phases);
                        report = Some(r.report);
                    }
                    Err(e) => problems.push(format!("import {} failed: {e}", job.target)),
                }
                Outcome {
                    kind: Kind::Import,
                    wall,
                    rows,
                    input_bytes,
                    phases,
                    report,
                    exported: None,
                    problems,
                }
            }
            Job::Export { table, job } => {
                let truth = &self.truths[*table];
                let lo = truth.rows_done.load(Ordering::SeqCst);
                let sum = truth.sum_done.load(Ordering::SeqCst);
                let result = run_export(&self.node.connector, job, &self.client);
                let wall = started.elapsed();
                let hi = truth.rows_started.load(Ordering::SeqCst);
                let (mut rows, mut exported) = (0, None);
                match result {
                    Ok(r) => {
                        rows = r.rows;
                        exported = Some(Exported {
                            select: job.select.clone(),
                            data: r.data,
                            rows: r.rows,
                            lo,
                            hi,
                            sum,
                        });
                        self.tracer
                            .record("job.export", 0, self.tracer.next_job(), started, wall);
                    }
                    Err(e) => problems.push(format!("export `{}` failed: {e}", job.select)),
                }
                Outcome {
                    kind: Kind::Export,
                    wall,
                    rows,
                    input_bytes: 0,
                    phases: None,
                    report: None,
                    exported,
                    problems,
                }
            }
            Job::Probe { table, user } => {
                let truth = &self.truths[*table];
                let name = &self.plan.targets[*table].name;
                let lo = truth.rows_done.load(Ordering::SeqCst);
                let count = Session::logon(
                    self.node.connector.as_ref(),
                    user,
                    "secret",
                    SessionRole::Control,
                    0,
                )
                .and_then(|mut session| {
                    let result = session.sql(&format!("SEL COUNT(*) FROM {name}"));
                    session.logoff();
                    result
                });
                let wall = started.elapsed();
                let hi = truth.rows_started.load(Ordering::SeqCst);
                match count
                    .as_ref()
                    .map(|r| r.rows.first().and_then(|row| row.first()))
                {
                    Ok(Some(Value::Int(n))) if (lo..=hi).contains(&(*n as u64)) => {}
                    other => problems.push(format!(
                        "probe of {name}: got {other:?}, planned a count in {lo}..={hi}"
                    )),
                }
                self.tracer
                    .record("job.probe", 0, self.tracer.next_job(), started, wall);
                Outcome {
                    kind: Kind::Probe,
                    wall,
                    rows: 0,
                    input_bytes: 0,
                    phases: None,
                    report: None,
                    exported: None,
                    problems,
                }
            }
        }
    }

    /// The import's span tree: the client's three phases under the job,
    /// and beside them what the node's `LoadReport` says it spent. The
    /// report carries durations only, so its spans are laid end to end
    /// from the moment acquisition began.
    fn trace_import(
        &self,
        started: Instant,
        wall: Duration,
        phases: &PhaseTimes,
        report: &LoadReport,
    ) {
        let t = self.tracer;
        if !t.enabled() {
            return;
        }
        let job = t.next_job();
        let root = t.record("job.import", 0, job, started, wall);
        // Logons and BeginLoad come first; the remainder of `other` is teardown.
        let acquire_at = started + wall.saturating_sub(phases.acquisition + phases.application);
        t.record("client.acquire", root, job, acquire_at, phases.acquisition);
        t.record(
            "client.apply_wait",
            root,
            job,
            acquire_at + phases.acquisition,
            phases.application,
        );
        let mut at = acquire_at;
        for (name, micros) in [
            ("gateway.acquisition", report.acquisition_micros),
            ("gateway.application", report.application_micros),
            ("gateway.other", report.other_micros),
        ] {
            let d = Duration::from_micros(micros);
            t.record(name, root, job, at, d);
            at += d;
        }
    }

    /// Drain `jobs` with the plan's closed-loop clients. A client takes
    /// the first job of the list nobody has taken, skipping imports into a
    /// table another client is importing into right now: two loads of one
    /// target would fight over its ET/UV tables, which the legacy tool
    /// chain never does. Reads are never held back, so exports and probes
    /// run beside the other client's writes.
    fn run_cycle(&self, jobs: &[Job], traced: bool) -> (CycleSample, Vec<Outcome>) {
        struct Queue {
            taken: Vec<bool>,
            importing: HashSet<usize>,
        }
        let queue = Mutex::new(Queue {
            taken: vec![false; jobs.len()],
            importing: HashSet::new(),
        });
        let freed = Condvar::new();
        let outcomes = Mutex::new(Vec::with_capacity(jobs.len()));
        let worker = || loop {
            let mut q = queue.lock().expect("queue lock is never poisoned");
            let pick = loop {
                if q.taken.iter().all(|t| *t) {
                    break None;
                }
                let eligible = (0..jobs.len()).find(|&i| {
                    !q.taken[i]
                        && match &jobs[i] {
                            Job::Import(import) => !q.importing.contains(&import.table),
                            _ => true,
                        }
                });
                match eligible {
                    Some(i) => break Some(i),
                    None => q = freed.wait(q).expect("queue lock is never poisoned"),
                }
            };
            let Some(i) = pick else { return };
            q.taken[i] = true;
            if let Job::Import(import) = &jobs[i] {
                q.importing.insert(import.table);
            }
            drop(q);
            let outcome = self.run_job(&jobs[i]);
            if let Job::Import(import) = &jobs[i] {
                queue
                    .lock()
                    .expect("queue lock is never poisoned")
                    .importing
                    .remove(&import.table);
                freed.notify_all();
            }
            outcomes
                .lock()
                .expect("outcome list lock is never poisoned")
                .push(outcome);
        };

        let staged0 = self.node.store.bytes_put();
        let plan0 = self.node.v.cdw().plan_stats();
        let (allocs0, alloc_bytes0) = trace::alloc_counts();
        let (ctx0, _) = host::ctx_switches_and_peak_rss_mb();
        let steal0 = host::steal();
        let cpu0 = host::process_cpu();
        let started = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..self.plan.clients {
                s.spawn(worker);
            }
        });
        let wall = started.elapsed();
        let cpu = host::process_cpu() - cpu0;
        let steal = host::steal() - steal0;
        let (ctx1, _) = host::ctx_switches_and_peak_rss_mb();
        let (allocs1, alloc_bytes1) = trace::alloc_counts();
        let plan1 = self.node.v.cdw().plan_stats();

        let mut outcomes = outcomes
            .into_inner()
            .expect("outcome list lock is never poisoned");
        // Hashing megabytes of exported lines is the benchmark's work, not
        // the node's: it happens here, after the timers have stopped.
        for outcome in &mut outcomes {
            if let Some(problem) = outcome.exported.take().and_then(|e| e.verify()) {
                outcome.problems.push(problem);
            }
        }
        let sample = CycleSample {
            wall_s: wall.as_secs_f64(),
            cpu_s: cpu.as_secs_f64(),
            steal_s: steal.as_secs_f64(),
            rows: outcomes.iter().map(|o| o.rows).sum(),
            input_bytes: outcomes.iter().map(|o| o.input_bytes).sum(),
            staged_bytes: self.node.store.bytes_put() - staged0,
            traced,
            allocs: allocs1 - allocs0,
            alloc_bytes: alloc_bytes1 - alloc_bytes0,
            ctx_switches: ctx1 - ctx0,
            plan: PlanStats {
                index_seeks: plan1.index_seeks - plan0.index_seeks,
                full_scans: plan1.full_scans - plan0.full_scans,
                index_maintains: plan1.index_maintains - plan0.index_maintains,
            },
        };
        (sample, outcomes)
    }

    /// One repetition of the workload's fixed work: the timed cycle, then
    /// — outside its timers — the plan's after-cycle jobs and the settling
    /// of every target. Returns the cycle's sample, every job's outcome
    /// and what settling objected to.
    fn repetition(&self, traced: bool) -> (CycleSample, Vec<Outcome>, Vec<String>) {
        let (sample, mut outcomes) = self.run_cycle(&self.plan.cycle, traced);
        if !self.plan.after_cycle.is_empty() {
            outcomes.extend(self.run_cycle(&self.plan.after_cycle, traced).1);
        }
        (sample, outcomes, self.settle())
    }

    /// After a cycle, outside the timers: every target must hold what the
    /// plan says, nothing may be left behind in the node, and then every
    /// target goes back to its starting state.
    fn settle(&self) -> Vec<String> {
        let mut problems = self.residue();
        let cdw = self.node.v.cdw();
        for (target, truth) in self.plan.targets.iter().zip(&self.truths) {
            let want = truth.rows_done.load(Ordering::SeqCst);
            let len = cdw.table_len(&target.name).map(|n| n as u64);
            if len != Ok(want) {
                problems.push(format!(
                    "{}: holds {len:?} rows, planned {want}",
                    target.name
                ));
            }
            for stmt in &target.restore {
                if let Err(e) = cdw.execute(stmt) {
                    problems.push(format!("restore `{stmt}` failed: {e}"));
                }
            }
            let base = truth.base_rows.load(Ordering::SeqCst);
            truth.rows_started.store(base, Ordering::SeqCst);
            truth.rows_done.store(base, Ordering::SeqCst);
            truth
                .sum_done
                .store(truth.base_sum.load(Ordering::SeqCst), Ordering::SeqCst);
        }
        problems
    }

    /// Nothing of a finished job may remain in the node: staged objects,
    /// staging tables, credits, in-flight memory, registered jobs.
    fn residue(&self) -> Vec<String> {
        let v = &self.node.v;
        let mut problems = Vec::new();
        use etlv_cloudstore::ObjectStore;
        match self.node.store.list(&v.config().staging_bucket, "") {
            Ok(keys) if keys.is_empty() => {}
            other => problems.push(format!("staged objects left behind: {other:?}")),
        }
        // Tokens are handed out from 1, one per load or export; the
        // margin covers the traced run's empty jobs.
        let issued = self.jobs_issued.load(Ordering::Relaxed);
        for token in 1..=issued + 64 {
            let name = staging_table_name(token);
            if v.cdw().table_exists(&name) {
                problems.push(format!("staging table {name} left behind"));
            }
        }
        // An export has no end-of-job message: the node retires it when it
        // handles the control session's logoff, which the client does not
        // wait out.
        v.wait_jobs_drained(Instant::now() + Duration::from_secs(2));
        for (what, left) in [
            ("credits in flight", v.credits().in_flight() as u64),
            ("bytes of in-flight memory", v.memory().in_flight()),
            ("registered jobs", v.active_jobs() as u64),
        ] {
            if left != 0 {
                problems.push(format!("{left} {what} after the last job ended"));
            }
        }
        problems
    }
}

/// Counts jobs and collects oracle objections across set-up and the
/// measured section.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn add(&mut self, outcomes: &[Outcome]) {
        for o in outcomes {
            self.attempted += 1;
            if !o.problems.is_empty() {
                self.failed += 1;
                self.problems.extend(o.problems.iter().cloned());
            }
        }
    }
}

/// One full set-up: generate the inputs, start the node, create and warm
/// the targets, run the warm-up cycles.
fn set_up<'t>(
    opts: &Options,
    edit_plan: &dyn Fn(&mut Plan),
    tracer: &'t Tracer,
    tally: &mut Tally,
) -> Env<'t> {
    let cap = host::concurrency_cap();
    let mut plan = gen::plan(opts.workload, opts.seed, opts.div, cap);
    edit_plan(&mut plan);
    let node = node::start(opts.workload);
    let mut session = Session::logon(
        node.connector.as_ref(),
        "loader",
        "secret",
        SessionRole::Control,
        0,
    )
    .expect("control session logs on to the fresh node");
    for target in &plan.targets {
        session
            .sql(&target.ddl)
            .unwrap_or_else(|e| panic!("creating {}: {e}", target.name));
    }
    session.logoff();

    let truths = plan
        .targets
        .iter()
        .map(|_| TableTruth {
            rows_started: AtomicU64::new(0),
            rows_done: AtomicU64::new(0),
            sum_done: AtomicU64::new(0),
            base_rows: AtomicU64::new(0),
            base_sum: AtomicU64::new(0),
        })
        .collect();
    let env = Env {
        client: ClientOptions {
            chunk_rows: plan.chunk_rows,
            sessions: Some(plan.sessions),
            read_timeout: Some(Duration::from_secs(60)),
            ..ClientOptions::default()
        },
        plan,
        node,
        truths,
        tracer,
        jobs_issued: AtomicU64::new(0),
    };

    let (_, warm) = env.run_cycle(&env.plan.warm, false);
    tally.add(&warm);
    for (target, truth) in env.plan.targets.iter().zip(&env.truths) {
        let rows = truth.rows_done.load(Ordering::SeqCst);
        if rows != target.base_rows {
            tally.problems.push(format!(
                "{}: warm load left {rows} rows, planned {}",
                target.name, target.base_rows
            ));
        }
        truth.base_rows.store(rows, Ordering::SeqCst);
        truth
            .base_sum
            .store(truth.sum_done.load(Ordering::SeqCst), Ordering::SeqCst);
    }
    for _ in 0..env.plan.warmup_cycles {
        let (_, outcomes, problems) = env.repetition(false);
        tally.add(&outcomes);
        tally.problems.extend(problems);
    }
    env
}

/// Everything the measured section recorded.
struct Section {
    samples: Vec<CycleSample>,
    outcomes: Vec<Outcome>,
    /// `host::spin` after each cycle, ms.
    spins: Vec<f64>,
    /// The node's counters before and after the section.
    node: [NodeMetrics; 2],
}

impl Section {
    /// Wall times, ms, of the jobs of one kind that matched their plan.
    fn walls_ms(&self, kind: Kind) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| o.kind == kind && o.problems.is_empty())
            .map(|o| ms(o.wall))
            .collect()
    }

    /// Share of the machine's CPU time over the timed cycles that the
    /// hypervisor withheld while a virtual CPU had work to run.
    fn steal_pct(&self) -> f64 {
        let steal: f64 = self.samples.iter().map(|s| s.steal_s).sum();
        let wall: f64 = self.samples.iter().map(|s| s.wall_s).sum();
        100.0 * steal / (wall * host::nproc() as f64)
    }

    fn end_to_end(&self, setup_s: &[f64]) -> Vec<Metric> {
        let samples = &self.samples;
        let imports = self.walls_ms(Kind::Import);
        let exports = self.walls_ms(Kind::Export);
        let rate: Vec<(f64, f64)> = samples.iter().map(|s| (s.rows as f64, s.wall_s)).collect();
        let cpu: Vec<(f64, f64)> = samples
            .iter()
            .map(|s| (s.cpu_s, s.rows as f64 / 1e6))
            .collect();
        let blocks = BLOCKS.min(samples.len());
        // Every cycle stages the same bytes, so this ratio repeats exactly
        // for a seed.
        let staged = samples.iter().map(|s| s.staged_bytes).sum::<u64>() as f64;
        let input = samples.iter().map(|s| s.input_bytes).sum::<u64>().max(1) as f64;
        vec![
            metric("setup_s", "s", median(setup_s), setup_s.len()),
            metric(
                "rows_per_s",
                "rows/s",
                median_block_rate(&rate, BLOCKS),
                blocks,
            ),
            metric("import_p50_ms", "ms", median(&imports), imports.len()),
            metric("export_p50_ms", "ms", median(&exports), exports.len()),
            metric(
                "cpu_s_per_mrow",
                "s/Mrow",
                median_block_rate(&cpu, BLOCKS),
                blocks,
            ),
            metric(
                "staged_bytes_per_input_byte",
                "ratio",
                staged / input,
                samples.len(),
            ),
        ]
    }

    /// The per-layer numbers the section itself yields (the idle-node and
    /// replay numbers follow it), and the node-reported time per import,
    /// ms, that the replay coverage is measured against.
    fn layers(&self) -> (Vec<Metric>, f64) {
        let (samples, outcomes) = (&self.samples, &self.outcomes);
        let imports = self.walls_ms(Kind::Import);
        let exports = self.walls_ms(Kind::Export);
        let n = imports.len();
        let per_import = n.max(1) as f64;
        let phase = |f: fn(&PhaseTimes) -> Duration| -> f64 {
            let v: Vec<f64> = outcomes
                .iter()
                .filter_map(|o| o.phases.as_ref().map(|p| ms(f(p))))
                .collect();
            median(&v)
        };
        let reported = |f: fn(&LoadReport) -> u64| -> f64 {
            let v: Vec<f64> = outcomes
                .iter()
                .filter_map(|o| o.report.as_ref().map(|r| f(r) as f64 / 1e3))
                .collect();
            median(&v)
        };
        let acquire = phase(|p| p.acquisition);
        let acquisition = reported(|r| r.acquisition_micros);
        let application = reported(|r| r.application_micros);
        let (import_tail_pct, import_tail) = tail(&sorted(&imports));
        let (export_tail_pct, export_tail) = tail(&sorted(&exports));
        let [node0, node1] = &self.node;
        let stalls = node1.credit_stalls - node0.credit_stalls;
        let stall_ms = ms(node1.credit_stall_time - node0.credit_stall_time);
        let plan = |f: fn(&PlanStats) -> u64| -> f64 {
            samples.iter().map(|s| f(&s.plan)).sum::<u64>() as f64 / per_import
        };

        let on: Vec<&CycleSample> = samples.iter().filter(|s| s.traced).collect();
        let off: Vec<&CycleSample> = samples.iter().filter(|s| !s.traced).collect();
        let rows = |half: &[&CycleSample]| half.iter().map(|s| s.rows).sum::<u64>().max(1) as f64;
        let rate = |half: &[&CycleSample]| {
            let v: Vec<f64> = half.iter().map(|s| s.rows as f64 / s.wall_s).collect();
            median(&v)
        };
        let allocs = on.iter().map(|s| s.allocs).sum::<u64>() as f64;
        let alloc_bytes = on.iter().map(|s| s.alloc_bytes).sum::<u64>() as f64;
        let ctx = samples.iter().map(|s| s.ctx_switches).sum::<u64>() as f64;
        let krows = samples.iter().map(|s| s.rows).sum::<u64>().max(1) as f64 / 1e3;
        let (_, peak_rss_mb) = host::ctx_switches_and_peak_rss_mb();
        // What the node's own report does not explain of a job's wall
        // time as the client sees it: logons, BeginLoad, teardown, wire.
        let unattributed: Vec<f64> = outcomes
            .iter()
            .filter_map(|o| {
                let r = o.report.as_ref()?;
                let node_ms =
                    (r.acquisition_micros + r.application_micros + r.other_micros) as f64 / 1e3;
                Some(100.0 * (1.0 - node_ms / ms(o.wall)))
            })
            .collect();

        let m = metric;
        let layers = vec![
            m("client.acquire_ms", "ms", acquire, n),
            m("client.apply_wait_ms", "ms", phase(|p| p.application), n),
            m("client.other_ms", "ms", phase(|p| p.other), n),
            m("client.import_tail_ms", "ms", import_tail, n),
            m("client.import_tail_pct", "%", import_tail_pct, n),
            m("client.export_tail_ms", "ms", export_tail, exports.len()),
            m(
                "client.export_tail_pct",
                "%",
                export_tail_pct,
                exports.len(),
            ),
            m("gateway.acquisition_ms", "ms", acquisition, n),
            m("gateway.application_ms", "ms", application, n),
            m("gateway.other_ms", "ms", reported(|r| r.other_micros), n),
            m("gateway.wire_gap_ms", "ms", acquire - acquisition, n),
            m(
                "credit.stalls_per_job",
                "count",
                stalls as f64 / per_import,
                n,
            ),
            m("credit.stall_ms_per_job", "ms", stall_ms / per_import, n),
            m(
                "memory.peak_inflight_mb",
                "MB",
                node1.peak_memory as f64 / 1e6,
                1,
            ),
            m(
                "cdw.index_seeks_per_job",
                "count",
                plan(|p| p.index_seeks),
                n,
            ),
            m("cdw.full_scans_per_job", "count", plan(|p| p.full_scans), n),
            m(
                "cdw.index_maintains_per_job",
                "count",
                plan(|p| p.index_maintains),
                n,
            ),
            m(
                "process.allocs_per_row",
                "count",
                allocs / rows(&on),
                on.len(),
            ),
            m(
                "process.alloc_bytes_per_row",
                "B",
                alloc_bytes / rows(&on),
                on.len(),
            ),
            m(
                "process.ctx_switches_per_krow",
                "count",
                ctx / krows,
                samples.len(),
            ),
            m("process.threads", "count", host::threads() as f64, 1),
            m("process.peak_rss_mb", "MB", peak_rss_mb, 1),
            m(
                "bench.trace_overhead_pct",
                "%",
                100.0 * (1.0 - rate(&on) / rate(&off)),
                samples.len(),
            ),
            m("host.spin_ms", "ms", median(&self.spins), self.spins.len()),
            m("host.steal_pct", "%", self.steal_pct(), samples.len()),
            m(
                "budget.unattributed_pct",
                "%",
                median(&unattributed),
                unattributed.len(),
            ),
        ];
        (layers, acquisition + application)
    }
}

/// Run one workload once. `process_started` is when `main` began, so the
/// first set-up is charged for everything before it.
pub fn run(opts: &Options, process_started: Instant) -> RunResult {
    run_edited(opts, process_started, &|_| {})
}

/// [`run`] with `edit_plan` applied to each freshly generated plan before
/// the node sees it: how a test hands the oracle a wrong expectation.
pub fn run_edited(
    opts: &Options,
    process_started: Instant,
    edit_plan: &dyn Fn(&mut Plan),
) -> RunResult {
    let tracer = Tracer::new(false);
    let mut tally = Tally::default();

    // Set-up, several times over: set-up is short, so one timing of it
    // would be the noisiest number of the run.
    let mut setup_s = Vec::new();
    let mut env = None;
    for i in 0..opts.setup_repeats.max(1) {
        drop(env.take());
        let started = if i == 0 {
            process_started
        } else {
            Instant::now()
        };
        env = Some(set_up(opts, edit_plan, &tracer, &mut tally));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let env = env.expect("at least one set-up ran");

    // The measured section: a fixed number of identical cycles. Traced
    // runs record spans and count allocations on every other cycle, so
    // the two halves execute the same jobs under the same host conditions
    // and their difference is the tracing overhead.
    let cycles = measured_cycles(env.plan.cycles, opts.seconds);
    let node0 = env.node.v.metrics();
    let section_started = Instant::now();
    let (mut samples, mut outcomes, mut spins) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..cycles {
        let traced = opts.traced && i % 2 == 0;
        tracer.set_enabled(traced);
        trace::set_alloc_counting(traced);
        let (sample, cycle_outcomes, problems) = env.repetition(traced);
        tracer.set_enabled(false);
        trace::set_alloc_counting(false);
        tally.add(&cycle_outcomes);
        tally.problems.extend(problems);
        samples.push(sample);
        outcomes.extend(cycle_outcomes);
        spins.push(ms(host::spin()));
    }
    let section_s = section_started.elapsed().as_secs_f64();
    let section = Section {
        samples,
        outcomes,
        spins,
        node: [node0, env.node.v.metrics()],
    };

    let mut notes = vec![
        format!(
            "measured {} cycles ({} jobs) in {section_s:.2} s; set-ups took {:.3?} s; {} client thread(s) x {} data session(s), cap {}",
            section.samples.len(),
            section.outcomes.len(),
            setup_s,
            env.plan.clients,
            env.plan.sessions,
            host::concurrency_cap(),
        ),
        format!(
            "host.spin_ms between cycles: median {:.3}, min {:.3}, max {:.3}; host.steal_pct over them: {:.2}",
            median(&section.spins),
            section.spins.iter().cloned().fold(f64::INFINITY, f64::min),
            section.spins.iter().cloned().fold(0.0, f64::max),
            section.steal_pct(),
        ),
    ];

    let mut per_layer = Vec::new();
    if opts.traced {
        let (layers, node_ms) = section.layers();
        per_layer.extend(layers);
        tracer.set_enabled(true);
        per_layer.extend(replay::idle_node(&env));
        let (layers, problems) = replay::layers(&env, node_ms);
        per_layer.extend(layers);
        tally.problems.extend(problems);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}.trace.jsonl", opts.workload.name()));
        notes.push(match tracer.write_jsonl(&path) {
            Ok(()) => format!(
                "{} spans written to {}",
                tracer.span_count(),
                path.display()
            ),
            Err(e) => format!("could not write {}: {e}", path.display()),
        });
    }

    // The node must be as empty at exit as it was at the start.
    tally.problems.extend(env.residue());
    let end_to_end = section.end_to_end(&setup_s);
    // A metric nothing was sampled for must not read as a perfect value.
    for m in end_to_end.iter().chain(&per_layer) {
        if !m.value.is_finite() {
            tally
                .problems
                .push(format!("{} has no finite value ({})", m.name, m.value));
        }
    }
    RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.problems.is_empty(),
        problems: tally.problems,
        end_to_end,
        per_layer,
        notes,
    }
}
