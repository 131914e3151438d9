//! Replay: execute a trace against a live node through the real legacy
//! client.
//!
//! One dispatcher thread per tenant replays that tenant's events in
//! trace order at their scheduled offsets. Tenants run concurrently —
//! that is the multi-session pressure the harness exists to apply — but
//! a single tenant never overlaps its own jobs, so each tenant's table
//! state (and therefore every export row count and error attribution) is
//! a pure function of the trace. Wall-clock timing is real and varies
//! run to run; [`OutcomeCounts`] isolates the fields that must not.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use etlv_legacy_client::export::run_export;
use etlv_legacy_client::import::run_import;
use etlv_legacy_client::{ClientError, ClientOptions, Connect, RetryPolicy, Session};
use etlv_protocol::message::{Message, SessionRole};
use etlv_script::{compile, parse_script, JobPlan};

use crate::data::{export_script, target_ddl, tenant_user};
use crate::gen::{JobKind, TraceEvent, WorkloadTrace};

/// Replay tuning.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Multiplier on scheduled offsets (0.5 replays twice as fast).
    pub time_scale: f64,
    /// Records per data chunk.
    pub chunk_rows: usize,
    /// Per-read reply timeout on every session.
    pub read_timeout: Option<Duration>,
    /// Busy-retry policy for admission rejections.
    pub busy_retry: RetryPolicy,
    /// Create every table the trace touches before dispatching (skip
    /// when the caller prepared the node itself).
    pub prepare_tables: bool,
    /// Idle logged-on sessions held open for the whole replay, kept
    /// alive with periodic keepalive sweeps — connection pressure on
    /// the reactor front end alongside the active traffic. 0 disables.
    pub keepalive_sessions: usize,
}

impl Default for ReplayOptions {
    fn default() -> ReplayOptions {
        ReplayOptions {
            time_scale: 1.0,
            chunk_rows: 200,
            read_timeout: Some(Duration::from_secs(30)),
            busy_retry: RetryPolicy {
                budget: 10,
                base: Duration::from_millis(2),
                cap: Duration::from_millis(80),
            },
            prepare_tables: true,
            keepalive_sessions: 0,
        }
    }
}

/// Terminal state of one replayed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to completion (errors in ET/UV still count as completed — the
    /// legacy semantics: dirty rows are quarantined, the job finishes).
    Completed,
    /// Admission control turned it away even after the busy-retry budget.
    Rejected,
    /// Any other failure.
    Failed,
}

/// Everything recorded about one replayed job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Trace position.
    pub seq: u32,
    /// Issuing tenant.
    pub tenant: u16,
    /// `"import"` / `"export"` / `"sql"`.
    pub kind: &'static str,
    /// Terminal state.
    pub status: JobStatus,
    /// Rows applied (import) or exported (export).
    pub rows: u64,
    /// Rows this job put in its ET table.
    pub errors_et: u64,
    /// Rows this job put in its UV table.
    pub errors_uv: u64,
    /// Server-side cloud-call retries attributed to this job.
    pub server_retries: u64,
    /// Failure detail when `status == Failed`.
    pub error: Option<String>,
}

/// The deterministic projection of a replay: equal across runs of the
/// same trace (server retries depend on timing and are excluded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Total jobs.
    pub jobs: u64,
    /// Completed jobs.
    pub completed: u64,
    /// Admission-rejected jobs.
    pub rejected: u64,
    /// Failed jobs.
    pub failed: u64,
    /// Rows applied across imports.
    pub rows_applied: u64,
    /// Rows returned across exports.
    pub rows_exported: u64,
    /// ET rows across imports.
    pub errors_et: u64,
    /// UV rows across imports.
    pub errors_uv: u64,
}

/// Result of one replay run.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Per-job outcomes, in trace order.
    pub outcomes: Vec<JobOutcome>,
}

impl ReplayReport {
    /// Fold to the deterministic projection.
    pub fn counts(&self) -> OutcomeCounts {
        let mut c = OutcomeCounts {
            jobs: self.outcomes.len() as u64,
            ..OutcomeCounts::default()
        };
        for o in &self.outcomes {
            match o.status {
                JobStatus::Completed => c.completed += 1,
                JobStatus::Rejected => c.rejected += 1,
                JobStatus::Failed => c.failed += 1,
            }
            match o.kind {
                "import" => {
                    c.rows_applied += o.rows;
                    c.errors_et += o.errors_et;
                    c.errors_uv += o.errors_uv;
                }
                "export" => c.rows_exported += o.rows,
                _ => {}
            }
        }
        c
    }
}

fn client_options(options: &ReplayOptions) -> ClientOptions {
    ClientOptions {
        chunk_rows: options.chunk_rows,
        sessions: None,
        read_timeout: options.read_timeout,
        busy_retry: options.busy_retry,
    }
}

/// Create every table the trace touches (one control session, one DDL
/// per distinct table).
pub fn prepare_tables(
    connector: &Arc<dyn Connect>,
    trace: &WorkloadTrace,
) -> Result<(), ClientError> {
    let tables: BTreeSet<&str> = trace.events.iter().map(|e| e.kind.table()).collect();
    let mut session = Session::logon(connector.as_ref(), "wg", "secret", SessionRole::Control, 0)?;
    for table in tables {
        session.sql(&target_ddl(table, trace.scenario.row_bytes))?;
    }
    session.logoff();
    Ok(())
}

fn run_event(
    connector: &Arc<dyn Connect>,
    event: &TraceEvent,
    options: &ClientOptions,
) -> Result<(u64, u64, u64, u64), ClientError> {
    // Returns (rows, errors_et, errors_uv, server_retries).
    match &event.kind {
        JobKind::Import(spec) => {
            let result = run_import(connector, &spec.job(), &spec.payload().data, options)?;
            Ok((
                result.report.rows_applied,
                result.report.errors_et,
                result.report.errors_uv,
                result.report.retries,
            ))
        }
        JobKind::Export { table } => {
            let script = export_script(table, &tenant_user(event.tenant));
            let job = match compile(&parse_script(&script).expect("export parses"))
                .expect("export compiles")
            {
                JobPlan::Export(job) => job,
                _ => unreachable!("export script compiles to an export job"),
            };
            let result = run_export(connector, &job, options)?;
            Ok((result.rows, 0, 0, 0))
        }
        JobKind::Sql { table } => {
            let user = tenant_user(event.tenant);
            let mut session =
                Session::logon(connector.as_ref(), &user, "secret", SessionRole::Control, 0)?;
            let result = session.sql(&format!("SEL COUNT(*) FROM {table}"))?;
            session.logoff();
            Ok((result.activity_count, 0, 0, 0))
        }
    }
}

/// Replay a trace. Blocks until every job reaches a terminal state;
/// outcomes come back in trace order.
pub fn replay(
    connector: &Arc<dyn Connect>,
    trace: &WorkloadTrace,
    options: &ReplayOptions,
) -> Result<ReplayReport, ClientError> {
    if options.prepare_tables {
        prepare_tables(connector, trace)?;
    }

    // Partition by tenant, preserving trace (time) order within each.
    let mut per_tenant: Vec<Vec<TraceEvent>> =
        vec![Vec::new(); usize::from(trace.scenario.tenants)];
    for event in &trace.events {
        per_tenant[usize::from(event.tenant)].push(event.clone());
    }

    // Keepalive ballast: hold N idle logged-on sessions open for the
    // whole replay, swept with keepalives so they stay ahead of any
    // server idle timeout. Best-effort — a session-limit refusal holds
    // however many fit.
    let stop_holders = Arc::new(AtomicBool::new(false));
    let holder = (options.keepalive_sessions > 0).then(|| {
        let connector = Arc::clone(connector);
        let n = options.keepalive_sessions;
        let stop = Arc::clone(&stop_holders);
        std::thread::spawn(move || {
            let mut held = Vec::with_capacity(n);
            for i in 0..n {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let user = format!("ka-{}", i % 8);
                match Session::logon(connector.as_ref(), &user, "secret", SessionRole::Control, 0) {
                    Ok(session) => held.push(session),
                    Err(_) => break,
                }
            }
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(200));
                for session in &mut held {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if session.request(Message::Keepalive).is_err() {
                        break;
                    }
                }
            }
            for session in held {
                session.logoff();
            }
        })
    });

    let t0 = Instant::now();
    let mut workers = Vec::new();
    for events in per_tenant {
        if events.is_empty() {
            continue;
        }
        let connector = Arc::clone(connector);
        let client_options = client_options(options);
        let time_scale = options.time_scale;
        workers.push(std::thread::spawn(move || -> Vec<JobOutcome> {
            let mut outcomes = Vec::with_capacity(events.len());
            for event in events {
                let offset =
                    Duration::from_micros((event.at_us as f64 * time_scale).round() as u64);
                let due = t0 + offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let (status, numbers, error) = match run_event(&connector, &event, &client_options)
                {
                    Ok(numbers) => (JobStatus::Completed, numbers, None),
                    Err(e) if e.is_busy() => (JobStatus::Rejected, (0, 0, 0, 0), None),
                    Err(e) => (JobStatus::Failed, (0, 0, 0, 0), Some(e.to_string())),
                };
                let (rows, errors_et, errors_uv, server_retries) = numbers;
                outcomes.push(JobOutcome {
                    seq: event.seq,
                    tenant: event.tenant,
                    kind: event.kind.tag(),
                    status,
                    rows,
                    errors_et,
                    errors_uv,
                    server_retries,
                    error,
                });
            }
            outcomes
        }));
    }

    let mut outcomes = Vec::with_capacity(trace.events.len());
    let mut dispatcher_panicked = false;
    for worker in workers {
        match worker.join() {
            Ok(batch) => outcomes.extend(batch),
            Err(_) => dispatcher_panicked = true,
        }
    }
    stop_holders.store(true, Ordering::Relaxed);
    if let Some(holder) = holder {
        let _ = holder.join();
    }
    if dispatcher_panicked {
        return Err(ClientError::Protocol("replay dispatcher panicked".into()));
    }
    outcomes.sort_by_key(|o| o.seq);
    Ok(ReplayReport { outcomes })
}
