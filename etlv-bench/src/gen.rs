//! Seeded input generators and their ground truth.
//!
//! Everything the node will see — DDL, job scripts, input bytes — is a
//! pure function of `(workload, seed, scale)`, built here before the node
//! starts. Each import carries the outcome the generator planned for it
//! (rows applied, ET, UV, and a checksum of the lines its applied rows
//! export as), which is what the oracle holds the node to.

use etlv_protocol::rng::{splitmix64, SeededRng};
use etlv_script::{compile, parse_script, ExportJob, ImportJob, JobPlan};
use etlv_workloadgen::{synthesize, ArrivalKind, ImportSpec, JobKind, Scenario};

use crate::workloads::{Workload, BULK_NARROW, BULK_WIDE, DIRTY_FEED, TENANT_MIX};

/// Hash of one exported line (FNV-1a). Export checksums are wrapping
/// sums of line hashes, so they do not depend on row order.
pub fn line_hash(line: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in line {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix64(h)
}

/// Hash of an input row number as an error table's `SEQNO` lists it.
pub fn seq_hash(seq: u64) -> u64 {
    line_hash(seq.to_string().as_bytes())
}

/// Row count and order-independent checksum of newline-terminated lines.
pub fn lines_checksum(data: &[u8]) -> (u64, u64) {
    data.split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .fold((0, 0u64), |(n, sum), l| {
            (n + 1, sum.wrapping_add(line_hash(l)))
        })
}

/// What the generator planned for one import.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportTruth {
    pub rows: u64,
    pub applied: u64,
    pub et: u64,
    pub uv: u64,
    /// Checksum of the lines the applied rows export as (under the
    /// plan's export projection for the target).
    pub applied_sum: u64,
    /// Checksum of the input row numbers the job's ET table must list
    /// (its `SEQNO` column), and likewise for the UV table.
    pub et_sum: u64,
    pub uv_sum: u64,
}

/// One import: the legacy script, its compiled job, the input file's
/// bytes, and what the generator planned for them.
pub struct Import {
    /// Index of the target in [`Plan::targets`].
    pub table: usize,
    pub script: String,
    pub job: ImportJob,
    pub data: Vec<u8>,
    pub truth: ImportTruth,
}

pub enum Job {
    Import(Box<Import>),
    /// Export of a target table; rows and checksum follow its truth.
    Export {
        table: usize,
        job: ExportJob,
    },
    /// `SEL COUNT(*)` on a control session.
    Probe {
        table: usize,
        user: String,
    },
}

/// A target table and how to put it back to its starting state.
pub struct Target {
    pub name: String,
    /// Legacy-dialect DDL.
    pub ddl: String,
    /// Rows the warm load leaves in it (its starting state).
    pub base_rows: u64,
    /// CDW statements restoring the starting state after a cycle.
    pub restore: Vec<String>,
}

/// Everything one run executes.
pub struct Plan {
    pub workload: Workload,
    /// Closed-loop client threads draining each cycle's job list.
    pub clients: usize,
    /// Data sessions per import/export job.
    pub sessions: u16,
    pub chunk_rows: usize,
    pub targets: Vec<Target>,
    /// Imports run once at set-up to bring targets to `base_rows`.
    pub warm: Vec<Job>,
    /// The cycle: the fixed work every repetition executes.
    pub cycle: Vec<Job>,
    /// Jobs run after each cycle once its timers have stopped: their own
    /// latencies are sampled and the oracle checks them, but they are no
    /// part of the cycle's rows, wall or CPU time.
    pub after_cycle: Vec<Job>,
    pub warmup_cycles: usize,
    /// Measured cycles per `DEFAULT_SECONDS`.
    pub cycles: usize,
}

fn import_job(script: &str) -> ImportJob {
    match compile(&parse_script(script).expect("generated import script parses")) {
        Ok(JobPlan::Import(job)) => job,
        other => panic!("generated import script did not compile to an import: {other:?}"),
    }
}

fn export_job(user: &str, sessions: u16, select: &str) -> ExportJob {
    let script = format!(
        ".logon edw/{user},secret;\n.begin export sessions {sessions};\n.export outfile out.txt format vartext '|';\n{select};\n.end export;\n"
    );
    match compile(&parse_script(&script).expect("generated export script parses")) {
        Ok(JobPlan::Export(job)) => job,
        other => panic!("generated export script did not compile to an export: {other:?}"),
    }
}

fn letters(rng: &mut SeededRng, n: usize, out: &mut Vec<u8>) {
    for _ in 0..n {
        out.push(b'a' + rng.gen_range(0, 26) as u8);
    }
}

fn iso_date(rng: &mut SeededRng) -> String {
    format!(
        "{:04}-{:02}-{:02}",
        2000 + rng.gen_range(0, 25),
        1 + rng.gen_range(0, 12),
        1 + rng.gen_range(0, 28)
    )
}

/// The customer shape (Example 2.1 of the paper): id, name, date cast in
/// the DML, payload padding the row to `row_bytes`.
struct CustomerTable {
    name: String,
    payload_width: usize,
}

impl CustomerTable {
    fn new(name: &str, row_bytes: usize) -> CustomerTable {
        // id (8) + name (11) + date (10) + 3 delimiters + newline.
        CustomerTable {
            name: name.to_string(),
            payload_width: row_bytes.saturating_sub(33).max(1),
        }
    }

    fn ddl(&self) -> String {
        format!(
            "CREATE TABLE {} (CUST_ID VARCHAR(8) NOT NULL, CUST_NAME VARCHAR(12), JOIN_DATE DATE, PAYLOAD VARCHAR({})) UNIQUE PRIMARY INDEX (CUST_ID)",
            self.name, self.payload_width
        )
    }

    fn script(&self, sessions: u16) -> String {
        let t = &self.name;
        format!(
            ".logon edw/loader,secret;\n\
             .sessions {sessions};\n\
             .layout CustLayout;\n\
             .field CUST_ID varchar(8);\n\
             .field CUST_NAME varchar(12);\n\
             .field JOIN_DATE varchar(10);\n\
             .field PAYLOAD varchar({width});\n\
             .begin import tables {t} errortables {t}_ET {t}_UV;\n\
             .dml label InsApply;\n\
             insert into {t} values (trim(:CUST_ID), trim(:CUST_NAME), cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'), :PAYLOAD);\n\
             .import infile input.txt format vartext '|' layout CustLayout apply InsApply;\n\
             .end load\n",
            width = self.payload_width,
        )
    }

    /// One input line for `key` with a valid or invalid date.
    fn line(&self, rng: &mut SeededRng, key: &str, bad_date: bool, out: &mut Vec<u8>) {
        out.extend_from_slice(key.as_bytes());
        out.extend_from_slice(format!("|name{:07}|", rng.gen_range(0, 10_000_000)).as_bytes());
        if bad_date {
            out.extend_from_slice(format!("bad{:05}", rng.gen_range(0, 100_000)).as_bytes());
        } else {
            out.extend_from_slice(iso_date(rng).as_bytes());
        }
        out.push(b'|');
        letters(rng, self.payload_width, out);
        out.push(b'\n');
    }

    /// A clean load of `rows` rows keyed `{prefix}{1..=rows:07}`.
    fn clean_import(
        &self,
        rng: &mut SeededRng,
        table: usize,
        prefix: char,
        rows: u64,
        sessions: u16,
    ) -> Job {
        let mut data = Vec::with_capacity(rows as usize * (self.payload_width + 34));
        for i in 1..=rows {
            self.line(rng, &format!("{prefix}{i:07}"), false, &mut data);
        }
        let (_, applied_sum) = lines_checksum(&data);
        let script = self.script(sessions);
        Job::Import(Box::new(Import {
            table,
            job: import_job(&script),
            script,
            truth: ImportTruth {
                rows,
                applied: rows,
                applied_sum,
                ..ImportTruth::default()
            },
            data,
        }))
    }
}

fn drop_and_create(name: &str, ddl: &str) -> Vec<String> {
    vec![
        format!("DROP TABLE IF EXISTS {name}"),
        etlv_core::xcompile::translate_sql(ddl).expect("generated DDL cross-compiles"),
    ]
}

fn bulk_narrow(seed: u64, div: u64, cap: usize) -> Plan {
    let w = &BULK_NARROW;
    let sessions = cap.min(2) as u16;
    let table = CustomerTable::new("PROD.CUSTOMER", w.row_bytes);
    let mut rng = SeededRng::substream(seed, 1);
    let import = table.clean_import(&mut rng, 0, 'C', (w.rows / div).max(1), sessions);
    let export = Job::Export {
        table: 0,
        job: export_job("loader", sessions, "SELECT * FROM PROD.CUSTOMER"),
    };
    Plan {
        workload: Workload::BulkNarrow,
        clients: 1,
        sessions,
        chunk_rows: w.chunk_rows,
        targets: vec![Target {
            restore: drop_and_create(&table.name, &table.ddl()),
            ddl: table.ddl(),
            name: table.name,
            base_rows: 0,
        }],
        warm: Vec::new(),
        cycle: vec![import, export],
        after_cycle: Vec::new(),
        warmup_cycles: w.warmup_cycles,
        cycles: w.cycles,
    }
}

fn bulk_wide(seed: u64, div: u64, cap: usize) -> Plan {
    let w = &BULK_WIDE;
    let sessions = cap.min(2) as u16;
    let rows = (w.rows / div).max(1);
    let mut rng = SeededRng::substream(seed, 2);
    // Values come from a seeded dictionary so staged text compresses the
    // way dimension data does, rather than like random letters. Word
    // lengths go by rank, not by seed: the letters differ from seed to
    // seed, the byte volume and the compression ratio hardly do.
    let dict: Vec<Vec<u8>> = (0..w.dict_words)
        .map(|rank| {
            let mut word = Vec::new();
            letters(&mut rng, 3 + rank % 8, &mut word);
            word
        })
        .collect();
    let col_width = w.words_per_col * 11;
    let mut data = Vec::with_capacity(rows as usize * w.cols * (col_width / 2));
    for i in 1..=rows {
        data.extend_from_slice(format!("R{i:08}").as_bytes());
        for _ in 1..w.cols {
            data.extend_from_slice(b"|");
            for k in 0..w.words_per_col {
                if k > 0 {
                    data.push(b' ');
                }
                // Cubing the draw skews it: a few hundred words carry most
                // of the text, as in real dimension columns.
                let u = rng.next_f64();
                data.extend_from_slice(&dict[(u * u * u * dict.len() as f64) as usize]);
            }
        }
        data.push(b'\n');
    }
    let (_, applied_sum) = lines_checksum(&data);

    let mut fields = String::from(".field K varchar(9);\n");
    let mut ddl_cols = String::from("K VARCHAR(9)");
    let mut placeholders = String::from(":K");
    for c in 1..w.cols {
        fields.push_str(&format!(".field C{c} varchar({col_width});\n"));
        ddl_cols.push_str(&format!(", C{c} VARCHAR({col_width})"));
        placeholders.push_str(&format!(", :C{c}"));
    }
    let ddl = format!("CREATE TABLE PROD.WIDE ({ddl_cols})");
    let script = format!(
        ".logon edw/loader,secret;\n\
         .sessions {sessions};\n\
         .layout WideLayout;\n\
         {fields}\
         .begin import tables PROD.WIDE errortables PROD.WIDE_ET PROD.WIDE_UV;\n\
         .dml label Go;\n\
         insert into PROD.WIDE values ({placeholders});\n\
         .import infile input.txt format vartext '|' layout WideLayout apply Go;\n\
         .end load\n"
    );
    let import = Job::Import(Box::new(Import {
        table: 0,
        job: import_job(&script),
        script,
        truth: ImportTruth {
            rows,
            applied: rows,
            applied_sum,
            ..ImportTruth::default()
        },
        data,
    }));
    let export = Job::Export {
        table: 0,
        job: export_job("loader", sessions, "SELECT * FROM PROD.WIDE"),
    };
    Plan {
        workload: Workload::BulkWide,
        clients: 1,
        sessions,
        chunk_rows: w.chunk_rows,
        targets: vec![Target {
            name: "PROD.WIDE".into(),
            restore: drop_and_create("PROD.WIDE", &ddl),
            ddl,
            base_rows: 0,
        }],
        warm: Vec::new(),
        cycle: vec![import, export],
        after_cycle: Vec::new(),
        warmup_cycles: w.warmup_cycles,
        cycles: w.cycles,
    }
}

/// Row roles inside a dirty batch.
#[derive(Clone, Copy, PartialEq)]
enum Dirt {
    Clean,
    BadDate,
    /// Repeats the key of an earlier clean row of the batch.
    IntraDup,
    /// Repeats the key of a warm row already in the target.
    WarmCollision,
}

fn dirty_feed(seed: u64, div: u64) -> Plan {
    let w = &DIRTY_FEED;
    let warm_rows = (w.warm_rows / div).max(10);
    let batch_rows = (w.batch_rows / div).max(50);
    let mut targets = Vec::new();
    let mut warm = Vec::new();
    let mut cycle = Vec::new();
    let mut after_cycle = Vec::new();
    for t in 0..w.targets {
        let table = CustomerTable::new(&format!("PROD.FEED{t}"), w.row_bytes);
        let mut rng = SeededRng::substream(seed, 10 + t as u64);
        warm.push(table.clean_import(&mut rng, t, 'W', warm_rows, 1));

        // Exact counts of each kind of dirt. Which rows are dirty and
        // which keys they repeat is the batch's *shape*, drawn from a
        // frozen seed: how much bisecting and probing a batch costs
        // depends on where its errors fall, and every run seed must cost
        // the node the same work. The run's seed fills in the bytes.
        // Row 1 stays clean so every intra-batch duplicate has a target.
        let mut shape = SeededRng::substream(w.shape_seed, t as u64);
        let count = |pct: u64| batch_rows * pct / 100;
        let mut roles = vec![Dirt::Clean; batch_rows as usize];
        let mut order: Vec<usize> = (1..batch_rows as usize).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, shape.gen_range(0, i as u64 + 1) as usize);
        }
        let mut picks = order.into_iter();
        for (dirt, pct) in [
            (Dirt::BadDate, w.bad_date_pct),
            (Dirt::IntraDup, w.intra_dup_pct),
            (Dirt::WarmCollision, w.warm_collision_pct),
        ] {
            for row in picks.by_ref().take(count(pct) as usize) {
                roles[row] = dirt;
            }
        }

        let mut data = Vec::new();
        let mut truth = ImportTruth {
            rows: batch_rows,
            ..ImportTruth::default()
        };
        let mut clean_keys: Vec<String> = Vec::new();
        for (i, role) in roles.iter().enumerate() {
            let key = match role {
                Dirt::Clean | Dirt::BadDate => format!("B{:07}", i + 1),
                Dirt::IntraDup => {
                    clean_keys[shape.gen_range(0, clean_keys.len() as u64) as usize].clone()
                }
                Dirt::WarmCollision => format!("W{:07}", 1 + shape.gen_range(0, warm_rows)),
            };
            let start = data.len();
            table.line(&mut rng, &key, *role == Dirt::BadDate, &mut data);
            match role {
                Dirt::Clean => {
                    truth.applied += 1;
                    truth.applied_sum = truth
                        .applied_sum
                        .wrapping_add(line_hash(&data[start..data.len() - 1]));
                    clean_keys.push(key);
                }
                Dirt::BadDate => {
                    truth.et += 1;
                    truth.et_sum = truth.et_sum.wrapping_add(seq_hash(i as u64 + 1));
                }
                Dirt::IntraDup | Dirt::WarmCollision => {
                    truth.uv += 1;
                    truth.uv_sum = truth.uv_sum.wrapping_add(seq_hash(i as u64 + 1));
                }
            }
        }
        let script = table.script(1);
        cycle.push(Job::Import(Box::new(Import {
            table: t,
            job: import_job(&script),
            script,
            data,
            truth,
        })));
        after_cycle.push(Job::Export {
            table: t,
            job: export_job("loader", 1, &format!("SELECT * FROM {}", table.name)),
        });
        targets.push(Target {
            // Batch keys sort before the warm keys ('B' < 'W').
            restore: vec![format!("DELETE FROM {} WHERE CUST_ID < 'C'", table.name)],
            ddl: table.ddl(),
            name: table.name,
            base_rows: warm_rows,
        });
    }
    Plan {
        workload: Workload::DirtyFeed,
        clients: 1,
        sessions: 1,
        chunk_rows: w.chunk_rows,
        targets,
        warm,
        cycle,
        after_cycle,
        warmup_cycles: w.warmup_cycles,
        cycles: w.cycles,
    }
}

/// What the workloadgen converter accepts as a date: `YYYY-MM-DD` digits.
fn valid_date(date: &[u8]) -> bool {
    date.len() == 10 && date.iter().all(|b| b.is_ascii_digit() || *b == b'-')
}

/// A workloadgen payload (`K|D|P` lines) with every byte that is not
/// *shape* redrawn from `rng`: keys, line count and which dates are
/// malformed stay — they decide how much work the load is — while valid
/// dates and payload letters change.
fn refill(data: &[u8], rng: &mut SeededRng) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    for line in data.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let mut fields = line.splitn(3, |&b| b == b'|');
        let (key, date, payload) = (
            fields.next().unwrap_or_default(),
            fields.next().unwrap_or_default(),
            fields.next().unwrap_or_default(),
        );
        out.extend_from_slice(key);
        out.push(b'|');
        if valid_date(date) {
            out.extend_from_slice(iso_date(rng).as_bytes());
        } else {
            out.extend_from_slice(date);
        }
        out.push(b'|');
        letters(rng, payload.len(), &mut out);
        out.push(b'\n');
    }
    out
}

/// Ground truth of a workloadgen payload (`K|D|P` lines), re-derived from
/// its bytes: a row with a malformed date goes to ET, a row repeating the
/// key of an earlier clean row goes to UV, every other row is applied and
/// exports as `K|P`.
pub fn tenant_truth(data: &[u8]) -> ImportTruth {
    let mut truth = ImportTruth::default();
    let mut clean_keys = std::collections::HashSet::new();
    for line in data.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        truth.rows += 1;
        let seq = truth.rows;
        let mut fields = line.splitn(3, |&b| b == b'|');
        let (key, date, payload) = (
            fields.next().unwrap_or_default(),
            fields.next().unwrap_or_default(),
            fields.next().unwrap_or_default(),
        );
        if !valid_date(date) {
            truth.et += 1;
            truth.et_sum = truth.et_sum.wrapping_add(seq_hash(seq));
        } else if !clean_keys.insert(key) {
            truth.uv += 1;
            truth.uv_sum = truth.uv_sum.wrapping_add(seq_hash(seq));
        } else {
            truth.applied += 1;
            let exported = [key, payload].join(&b'|');
            truth.applied_sum = truth.applied_sum.wrapping_add(line_hash(&exported));
        }
    }
    truth
}

fn tenant_mix(seed: u64, div: u64, cap: usize) -> Plan {
    let w = &TENANT_MIX;
    let jobs_per_cycle = (w.jobs_per_cycle as u64 / div).max(10) as usize;
    // The *shape* of the job list — which tenant, table and kind each job
    // is, how many rows it carries and which of them are bad — is frozen
    // like every other size in `workloads.rs`: a small load's cost grows
    // with the square of its size and with every error it has to isolate,
    // so one Zipf or error draw differs from the next by a fifth. The
    // run's seed redraws every byte that is not shape.
    let scenario = Scenario {
        name: "tenant_mix".into(),
        seed: w.shape_seed,
        tenants: w.tenants,
        jobs: jobs_per_cycle as u32,
        // Arrival times are ignored: the clients are closed-loop.
        horizon_ms: 1_000,
        arrival: ArrivalKind::Steady,
        burst_factor: 1,
        bursts: 1,
        diurnal_trough: 1.0,
        tables_per_tenant: w.tables_per_tenant,
        zipf_s: w.zipf_s,
        rows_base: w.rows_base,
        rows_hot: w.rows_hot,
        row_bytes: w.row_bytes,
        import_pct: w.import_pct,
        export_pct: w.export_pct,
        date_error_ppm: w.error_ppm,
        dup_key_ppm: w.error_ppm,
        sessions_per_import: 1,
    };
    let trace = synthesize(&scenario);

    // Warm loads draw their keys from key spaces no trace event uses
    // (`K9....` against the events' `K00000`..), which is also what lets
    // a restore delete exactly the rows a cycle added.
    const WARM_KEY_SPACE: u32 = 90_000;
    let base_rows = (u64::from(w.base_rows) / div).max(10) as u32;
    let mut seeds = SeededRng::substream(seed, 3);
    let mut targets = Vec::new();
    let mut warm = Vec::new();
    let mut index = std::collections::HashMap::new();
    for tenant in 0..w.tenants {
        for rank in 1..=w.tables_per_tenant {
            let name = etlv_workloadgen::table_name(tenant, rank);
            let spec = ImportSpec {
                table: name.clone(),
                user: etlv_workloadgen::tenant_user(tenant),
                rows: base_rows,
                row_bytes: w.row_bytes,
                date_error_ppm: 0,
                dup_key_ppm: 0,
                sessions: 1,
                key_space: WARM_KEY_SPACE + targets.len() as u32,
                data_seed: seeds.next_u64(),
                planned_bad_dates: 0,
                planned_dup_keys: 0,
            };
            let data = spec.payload().data;
            warm.push(Job::Import(Box::new(Import {
                table: targets.len(),
                script: spec.script(),
                job: spec.job(),
                truth: tenant_truth(&data),
                data,
            })));
            index.insert(name.clone(), targets.len());
            targets.push(Target {
                restore: vec![format!("DELETE FROM {name} WHERE K < 'K9'")],
                ddl: spec.target_ddl(),
                name,
                base_rows: u64::from(base_rows),
            });
        }
    }

    let cycle: Vec<Job> = trace
        .events
        .iter()
        .enumerate()
        .map(|(i, event)| {
            let table = index[event.kind.table()];
            let user = etlv_workloadgen::tenant_user(event.tenant);
            match &event.kind {
                JobKind::Import(spec) => {
                    let payload = spec.payload();
                    let data = refill(
                        &payload.data,
                        &mut SeededRng::substream(seed, 1_000 + i as u64),
                    );
                    let truth = tenant_truth(&data);
                    assert_eq!(
                        (truth.et, truth.uv),
                        (u64::from(payload.bad_dates), u64::from(payload.dup_keys)),
                        "the truth re-derived from the payload disagrees with its generator"
                    );
                    Job::Import(Box::new(Import {
                        table,
                        script: spec.script(),
                        job: spec.job(),
                        data,
                        truth,
                    }))
                }
                JobKind::Export { table: name } => Job::Export {
                    table,
                    job: export_job(&user, 1, &format!("SELECT K, P FROM {name}")),
                },
                JobKind::Sql { .. } => Job::Probe { table, user },
            }
        })
        .collect();
    Plan {
        workload: Workload::TenantMix,
        clients: cap.min(2),
        sessions: 1,
        chunk_rows: w.chunk_rows,
        targets,
        warm,
        cycle,
        after_cycle: Vec::new(),
        warmup_cycles: w.warmup_cycles,
        cycles: w.cycles,
    }
}

impl Plan {
    /// The imports of the cycle, in list order.
    pub fn cycle_imports(&self) -> impl Iterator<Item = &Import> {
        self.cycle.iter().filter_map(|job| match job {
            Job::Import(import) => Some(&**import),
            _ => None,
        })
    }
}

/// Generate a workload's plan. `div` divides row counts (1 = full size,
/// [`crate::workloads::SMOKE_DIVISOR`] for `--smoke`); `cap` is the
/// concurrency cap of [`crate::host::concurrency_cap`].
pub fn plan(workload: Workload, seed: u64, div: u64, cap: usize) -> Plan {
    match workload {
        Workload::BulkNarrow => bulk_narrow(seed, div, cap),
        Workload::BulkWide => bulk_wide(seed, div, cap),
        Workload::DirtyFeed => dirty_feed(seed, div),
        Workload::TenantMix => tenant_mix(seed, div, cap),
    }
}
