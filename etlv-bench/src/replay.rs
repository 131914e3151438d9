//! The per-layer half of a traced run.
//!
//! "Replay" means: take the same generated inputs the end-to-end section
//! loaded and drive them, single-threaded, through one layer alone by
//! calling its public functions — with a span around each call. The time
//! a layer takes here is its *busy* time for one job; what the job took
//! end to end beyond the sum of these is queueing, waiting and wire.
//!
//! One import is replayed as a chain, each stage feeding the next:
//! split → frame encode/decode → convert → compress/upload → (pipeline,
//! which repeats convert + upload through the worker runtime) → COPY →
//! apply → cursor, plus the script/DML cross-compilation on its own.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use etlv_cloudstore::{compress, BulkLoader, LoaderConfig, MemStore, ObjectStore};
use etlv_core::adaptive::AdaptiveParams;
use etlv_core::apply::apply;
use etlv_core::convert::{ConvertScratch, DataConverter};
use etlv_core::cursor::TdfCursor;
use etlv_core::obs::{Obs, SpanIds};
use etlv_core::xcompile::{compile_dml, staging_ddl, translate_sql};
use etlv_core::{emulate, ApplyStrategy, CreditManager, MemoryGauge, RawChunk, WorkerRuntime};
use etlv_legacy_client::import::run_import;
use etlv_legacy_client::input::{split_chunks, InputChunk};
use etlv_legacy_client::{ClientOptions, Session};
use etlv_protocol::frame::FrameDecoder;
use etlv_protocol::message::{DataChunk, Message, SessionRole};
use etlv_script::{compile, parse_script};

use crate::gen::{Import, Job};
use crate::metrics::{metric, Metric};
use crate::node;
use crate::run::Env;
use crate::stats::{median, ms};

/// Times each sampled import is replayed.
const REPS: usize = 3;
/// Imports sampled from the cycle (`tenant_mix` has many).
const SAMPLE_IMPORTS: usize = 12;
/// Round trips timed on the idle node.
const RTT_SAMPLES: usize = 2_000;
const EMPTY_JOBS: usize = 30;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Round-trip and fixed per-job costs on the idle node, after the
/// measured section: a `Keepalive` is answered on the event loop
/// (wire + epoll), a trivial SQL additionally crosses the dispatch pool,
/// and a zero-row load pays everything a job pays that is not per row.
pub fn idle_node(env: &Env) -> Vec<Metric> {
    let t = env.tracer;
    let mut session = Session::logon(
        env.node.connector.as_ref(),
        "loader",
        "secret",
        SessionRole::Control,
        0,
    )
    .expect("control session logs on to the idle node");
    let mut keepalive = Vec::with_capacity(RTT_SAMPLES);
    let mut sql = Vec::with_capacity(RTT_SAMPLES);
    let job = t.next_job();
    for _ in 0..RTT_SAMPLES {
        let (reply, d) = t.time("reactor.keepalive", 0, job, || {
            session.request(Message::Keepalive)
        });
        assert!(
            matches!(reply, Ok(Message::Keepalive)),
            "keepalive reply: {reply:?}"
        );
        keepalive.push(us(d));
    }
    for _ in 0..RTT_SAMPLES {
        let (reply, d) = t.time("reactor.sql", 0, job, || session.sql("SEL 1"));
        reply.expect("trivial SQL succeeds on the idle node");
        sql.push(us(d));
    }
    session.logoff();

    let import = &env
        .plan
        .cycle_imports()
        .next()
        .expect("every workload's cycle has an import")
        .job;
    let client = ClientOptions {
        sessions: Some(1),
        ..env.client.clone()
    };
    let empty: Vec<f64> = (0..EMPTY_JOBS)
        .map(|_| {
            let (result, d) = t.time("gateway.empty_job", 0, t.next_job(), || {
                run_import(&env.node.connector, import, b"", &client)
            });
            let report = result.expect("a zero-row load succeeds").report;
            assert_eq!(report.rows_received, 0);
            ms(d)
        })
        .collect();
    vec![
        metric(
            "reactor.keepalive_rtt_us",
            "us",
            median(&keepalive),
            keepalive.len(),
        ),
        metric("reactor.sql_rtt_us", "us", median(&sql), sql.len()),
        metric("gateway.empty_job_ms", "ms", median(&empty), empty.len()),
    ]
}

/// Per-job busy time of every replayed layer, plus the counts that go
/// with it.
#[derive(Default)]
struct JobTimes {
    rows: f64,
    input_bytes: f64,
    split: Duration,
    encode: Duration,
    decode: Duration,
    frame_bytes: f64,
    convert: Duration,
    convert_errors: f64,
    staged_bytes: f64,
    compress: Duration,
    put: Duration,
    put_bytes: f64,
    cloudstore: Duration,
    pipeline: Duration,
    pipeline_files: f64,
    copy: Duration,
    probe: Duration,
    apply: Duration,
    statements: f64,
    splits: f64,
    error_rows: f64,
    cursor_open: Duration,
    cursor_chunks: Duration,
    cursor_rows: f64,
    xcompile: Duration,
}

struct Replayer<'a> {
    env: &'a Env<'a>,
    config: etlv_core::VirtualizerConfig,
    obs: Arc<Obs>,
    runtime: WorkerRuntime,
    credits: CreditManager,
    memory: MemoryGauge,
    problems: Vec<String>,
}

impl Replayer<'_> {
    fn loader_config(&self, compress: bool) -> LoaderConfig {
        LoaderConfig {
            bucket: self.config.staging_bucket.clone(),
            compress,
            throttle: self.config.upload_throttle,
        }
    }

    /// Replay one import through every layer. `cdw` and `store` persist
    /// across calls so a warm load can precede a dirty batch; `token`
    /// names the staging table and prefix, as a load token does.
    fn import(
        &mut self,
        cdw: &etlv_cdw::Cdw,
        store: &Arc<MemStore>,
        import: &Import,
        token: u64,
    ) -> JobTimes {
        let Import {
            script,
            job,
            data,
            truth,
            ..
        } = import;
        let target_ddl = &self.env.plan.targets[import.table].ddl;
        let t = self.env.tracer;
        let id = t.next_job();
        let started = Instant::now();
        let mut jt = JobTimes {
            rows: truth.rows as f64,
            input_bytes: data.len() as f64,
            ..JobTimes::default()
        };
        let delimiter = self.config.staging_delimiter;

        // xcompile: everything the node and client compile per job.
        let stg = etlv_core::xcompile::staging_table_name(token);
        let (_, d) = t.time("xcompile.compile", 0, id, || {
            let plan =
                compile(&parse_script(script).expect("script parses")).expect("script compiles");
            let compiled = compile_dml(&job.dml, &job.layout, &stg).expect("DML cross-compiles");
            let ddl = staging_ddl(&stg, &job.layout);
            let target = translate_sql(target_ddl).expect("DDL cross-compiles");
            std::hint::black_box((plan, compiled, ddl, target));
        });
        jt.xcompile = d;

        // client: cut the input file into record-aligned chunks.
        let (chunks, d) = t.time("client.split", 0, id, || {
            split_chunks(data, job.format, self.env.client.chunk_rows).expect("input splits")
        });
        jt.split = d;

        // protocol: each chunk into a frame and onto the wire, then off
        // the wire in socket-sized reads and back into a message.
        let mut wire = BytesMut::new();
        let (_, d) = t.time("protocol.encode", 0, id, || {
            for (seq, chunk) in chunks.iter().enumerate() {
                let frame = Message::DataChunk(DataChunk {
                    chunk_seq: seq as u64 + 1,
                    base_seq: chunk.base_seq,
                    record_count: chunk.record_count,
                    data: chunk.data.clone().into(),
                })
                .into_frame(1, seq as u32 + 1);
                frame.encode(&mut wire);
            }
        });
        jt.encode = d;
        jt.frame_bytes = wire.len() as f64;
        let (decoded, d) = t.time("protocol.decode", 0, id, || {
            let mut decoder = FrameDecoder::new();
            let mut messages = 0usize;
            for read in wire.chunks(64 * 1024) {
                decoder.feed(read);
                while let Some(frame) = decoder.next_frame().expect("frames decode") {
                    std::hint::black_box(Message::from_frame(&frame).expect("message decodes"));
                    messages += 1;
                }
            }
            messages
        });
        jt.decode = d;
        assert_eq!(decoded, chunks.len(), "every encoded frame decodes");

        // convert: legacy records into staged text, one chunk at a time.
        let converter = DataConverter::new(job.layout.clone(), job.format, delimiter);
        let mut scratch = ConvertScratch::new();
        let mut parts: Vec<Vec<u8>> = vec![Vec::new()];
        let (_, d) = t.time("convert.convert_into", 0, id, || {
            let mut out = Vec::new();
            for chunk in &chunks {
                out.clear();
                converter
                    .convert_into(chunk.base_seq, &chunk.data, &mut out, &mut scratch)
                    .expect("chunk converts");
                jt.convert_errors += scratch.take_errors().len() as f64;
                // Staged files rotate at the node's size threshold.
                let part = parts.last_mut().expect("parts is never empty");
                part.extend_from_slice(&out);
                if part.len() >= self.config.file_size_threshold {
                    parts.push(Vec::new());
                }
            }
        });
        jt.convert = d;
        parts.retain(|p| !p.is_empty());
        jt.staged_bytes = parts.iter().map(|p| p.len()).sum::<usize>() as f64;

        // cloudstore: compress each staged file, then put it over the
        // workload's link model.
        let sink: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
        let plain = BulkLoader::new(sink, self.loader_config(false));
        for (i, part) in parts.iter().enumerate() {
            let (compressed, d) = t.time("cloudstore.compress", 0, id, || compress(part));
            jt.compress += d;
            let payload = if self.config.compress_staged {
                jt.cloudstore += d;
                &compressed
            } else {
                part
            };
            let (sent, d) = t.time("cloudstore.upload_part_from", 0, id, || {
                plain
                    .upload_part_from(&format!("replay/part-{i:05}"), payload)
                    .expect("upload to the in-memory store succeeds")
            });
            jt.put += d;
            jt.cloudstore += d;
            jt.put_bytes += sent as f64;
        }

        // pipeline: the same chunks through the worker runtime — queues,
        // converter and writer threads, file rotation, upload — onto the
        // store COPY reads from.
        let prefix = etlv_core::xcompile::staging_prefix(token);
        let shared: Arc<dyn ObjectStore> = store.clone();
        let loader = Arc::new(BulkLoader::new(
            shared,
            self.loader_config(self.config.compress_staged),
        ));
        let (report, d) = t.time("pipeline.job", 0, id, || {
            let pipeline = self.runtime.begin_job(
                converter.clone(),
                loader,
                prefix.clone(),
                token,
                SpanIds::default(),
                self.config.drain_timeout,
                self.obs.tenant("replay"),
            );
            let sink = pipeline.sink();
            for InputChunk { base_seq, data, .. } in chunks {
                let accepted = sink.push(RawChunk {
                    base_seq,
                    credit: self.credits.acquire(),
                    memory: self
                        .memory
                        .reserve(data.len())
                        .expect("no memory cap is set"),
                    data: data.into(),
                    enqueued: Instant::now(),
                });
                assert!(accepted, "the pipeline accepts chunks until it is finished");
            }
            drop(sink);
            pipeline.finish()
        });
        jt.pipeline = d;
        jt.pipeline_files = report.files.len() as f64;
        if !report.fatal.is_empty()
            || report.rows_staged != truth.rows - report.acq_errors.len() as u64
        {
            self.problems
                .push(format!("pipeline replay of {}: {report:?}", job.target));
        }

        // cdw: COPY the staged objects into a staging table.
        cdw.execute(&staging_ddl(&stg, &job.layout))
            .expect("staging table is created");
        let copy = format!(
            "COPY INTO {stg} FROM 'store://{}/{prefix}' DELIMITER '{}'{}",
            self.config.staging_bucket,
            delimiter as char,
            if self.config.compress_staged {
                " COMPRESSED"
            } else {
                ""
            }
        );
        let (copied, d) = t.time("cdw.copy", 0, id, || cdw.execute(&copy));
        jt.copy = d;
        copied.unwrap_or_else(|e| panic!("`{copy}` failed: {e}"));

        // apply: uniqueness probe, then the adaptive application.
        if !cdw.table_exists(&job.target) {
            cdw.execute(&translate_sql(target_ddl).expect("DDL cross-compiles"))
                .expect("target table is created");
        }
        let compiled = compile_dml(&job.dml, &job.layout, &stg).expect("DML cross-compiles");
        let emulation = emulate::plan(cdw, &compiled).expect("emulation plans");
        let (lo, hi) = (1, truth.rows + 1);
        if let Some(emu) = &emulation {
            let (probe, d) = t.time("emulate.violations_in_range", 0, id, || {
                emu.violations_in_range(cdw, lo, hi)
            });
            probe.expect("uniqueness probe runs");
            jt.probe = d;
        }
        let params = AdaptiveParams {
            max_errors: self.config.max_errors,
            max_retries: self.config.max_retries,
            retry: self.config.retry_policy(),
            retry_seed: 0,
        };
        let (outcome, d) = t.time("apply.apply", 0, id, || {
            apply(
                cdw,
                &compiled,
                emulation.as_ref(),
                &job.layout,
                lo,
                hi,
                ApplyStrategy::BulkAdaptive,
                params,
                None,
            )
        });
        jt.apply = d;
        let outcome = outcome.expect("application succeeds");
        jt.statements = outcome.statements as f64;
        jt.splits = outcome.splits as f64;
        jt.error_rows = outcome.errors.len() as f64;
        if (outcome.applied, outcome.errors.len() as u64) != (truth.applied, truth.et + truth.uv) {
            self.problems.push(format!(
                "apply replay of {}: applied {} with {} errors, planned {} with {}",
                job.target,
                outcome.applied,
                outcome.errors.len(),
                truth.applied,
                truth.et + truth.uv
            ));
        }

        // cursor: read the target back out, chunk by chunk.
        let select =
            translate_sql(&format!("SELECT * FROM {}", job.target)).expect("SELECT cross-compiles");
        let (cursor, d) = t.time("cursor.open", 0, id, || {
            TdfCursor::open(
                cdw,
                &select,
                self.env.client.chunk_rows as u32,
                self.config.export_prefetch_chunks,
            )
        });
        jt.cursor_open = d;
        let cursor = cursor.expect("cursor opens");
        let (_, d) = t.time("cursor.chunk", 0, id, || {
            for i in 0..cursor.total_chunks() {
                std::hint::black_box(cursor.chunk(i));
            }
        });
        jt.cursor_chunks = d;
        jt.cursor_rows = cursor.rows_total() as f64;

        // Leave nothing of the job behind, as the node does.
        let _ = cdw.execute(&format!("DROP TABLE IF EXISTS {stg}"));
        for key in store
            .list(&self.config.staging_bucket, &prefix)
            .unwrap_or_default()
        {
            let _ = store.delete(&self.config.staging_bucket, &key);
        }
        t.record("replay.job", 0, id, started, started.elapsed());
        jt
    }
}

/// Replay the layers on the workload's sampled imports. `gateway_ms` is
/// the end-to-end section's `gateway.acquisition_ms + application_ms`,
/// the denominator of the coverage figure.
pub fn layers(env: &Env, gateway_ms: f64) -> (Vec<Metric>, Vec<String>) {
    let workload = env.plan.workload;
    let config = node::config(workload);
    let obs = Arc::new(Obs::new(config.journal_capacity, None));
    let mut replayer = Replayer {
        env,
        runtime: WorkerRuntime::start(&config, Arc::clone(&obs), None),
        credits: CreditManager::new(config.credits),
        memory: MemoryGauge::new(config.memory_cap),
        obs,
        config,
        problems: Vec::new(),
    };

    let imports: Vec<&Import> = env.plan.cycle_imports().take(SAMPLE_IMPORTS).collect();
    let mut times = Vec::new();
    let mut token = 1_000_000;
    for _ in 0..REPS {
        for &import in &imports {
            // A fresh warehouse per replayed job: the target starts in
            // the workload's starting state every time, which for a warm
            // target means replaying its warm load first (untraced).
            let store = Arc::new(MemStore::new());
            let shared: Arc<dyn ObjectStore> = store.clone();
            let cdw = node::cdw(shared);
            if let Some(Job::Import(warm)) = env.plan.warm.get(import.table) {
                env.tracer.set_enabled(false);
                token += 1;
                replayer.import(&cdw, &store, warm, token);
                env.tracer.set_enabled(true);
            }
            token += 1;
            times.push(replayer.import(&cdw, &store, import, token));
        }
    }

    let n = times.len();
    let med = |f: &dyn Fn(&JobTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let rate = |work: &dyn Fn(&JobTimes) -> f64, time: &dyn Fn(&JobTimes) -> Duration| {
        med(&|j: &JobTimes| work(j) / time(j).as_secs_f64().max(1e-9))
    };
    let mb = 1e6;
    let layer_busy = med(&|j| ms(j.convert + j.cloudstore + j.copy + j.apply));
    let out = vec![
        metric(
            "protocol.encode_mb_s",
            "MB/s",
            rate(&|j| j.frame_bytes / mb, &|j| j.encode),
            n,
        ),
        metric(
            "protocol.decode_mb_s",
            "MB/s",
            rate(&|j| j.frame_bytes / mb, &|j| j.decode),
            n,
        ),
        metric(
            "client.split_mrows_s",
            "Mrows/s",
            rate(&|j| j.rows / 1e6, &|j| j.split),
            n,
        ),
        metric(
            "pipeline.rows_per_s",
            "rows/s",
            rate(&|j| j.rows, &|j| j.pipeline),
            n,
        ),
        metric(
            "pipeline.busy_ms_per_job",
            "ms",
            med(&|j| ms(j.pipeline)),
            n,
        ),
        metric(
            "pipeline.files_per_job",
            "count",
            med(&|j| j.pipeline_files),
            n,
        ),
        metric(
            "pipeline.handoff_ratio",
            "ratio",
            med(&|j| j.pipeline.as_secs_f64() / (j.convert + j.cloudstore).as_secs_f64().max(1e-9)),
            n,
        ),
        metric(
            "convert.rows_per_s",
            "rows/s",
            rate(&|j| j.rows, &|j| j.convert),
            n,
        ),
        metric(
            "convert.mb_s",
            "MB/s",
            rate(&|j| j.input_bytes / mb, &|j| j.convert),
            n,
        ),
        metric("convert.busy_ms_per_job", "ms", med(&|j| ms(j.convert)), n),
        metric(
            "convert.error_rows_per_job",
            "count",
            med(&|j| j.convert_errors),
            n,
        ),
        metric(
            "cloudstore.compress_mb_s",
            "MB/s",
            rate(&|j| j.staged_bytes / mb, &|j| j.compress),
            n,
        ),
        metric(
            "cloudstore.put_mb_s",
            "MB/s",
            rate(&|j| j.put_bytes / mb, &|j| j.put),
            n,
        ),
        metric(
            "cloudstore.busy_ms_per_job",
            "ms",
            med(&|j| ms(j.cloudstore)),
            n,
        ),
        metric(
            "cloudstore.bytes_put_per_job",
            "B",
            med(&|j| j.put_bytes),
            n,
        ),
        metric(
            "cdw.copy_rows_per_s",
            "rows/s",
            rate(&|j| j.rows, &|j| j.copy),
            n,
        ),
        metric("cdw.copy_ms_per_job", "ms", med(&|j| ms(j.copy)), n),
        metric(
            "apply.rows_per_s",
            "rows/s",
            rate(&|j| j.rows, &|j| j.apply),
            n,
        ),
        metric("apply.ms_per_job", "ms", med(&|j| ms(j.apply)), n),
        metric("adaptive.stmts_per_job", "count", med(&|j| j.statements), n),
        metric("adaptive.splits_per_job", "count", med(&|j| j.splits), n),
        metric(
            "adaptive.stmts_per_error_row",
            "count",
            med(&|j| {
                if j.error_rows > 0.0 {
                    j.statements / j.error_rows
                } else {
                    0.0
                }
            }),
            n,
        ),
        metric("emulate.probe_ms_per_job", "ms", med(&|j| ms(j.probe)), n),
        metric("cursor.open_ms", "ms", med(&|j| ms(j.cursor_open)), n),
        metric(
            "cursor.chunk_rows_per_s",
            "rows/s",
            rate(&|j| j.cursor_rows, &|j| j.cursor_chunks),
            n,
        ),
        metric(
            "xcompile.compile_us_per_job",
            "us",
            med(&|j| us(j.xcompile)),
            n,
        ),
        metric(
            "budget.replay_coverage_pct",
            "%",
            100.0 * layer_busy / gateway_ms.max(1e-9),
            n,
        ),
    ];
    (out, replayer.problems)
}
