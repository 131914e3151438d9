//! Deterministic workload generators.
//!
//! The paper's experiments run "real-world jobs" we do not have; these
//! generators produce synthetic equivalents with the knobs the
//! experiments sweep: row count, average row width (Figures 7/8), column
//! count (Figure 10's 50-column table), and seeded error rates — invalid
//! dates and duplicate keys — for the error-handling study (Figure 11).
//! Everything is seeded, so tests can assert exact error attributions.

use etlv_protocol::rng::SeededRng;

/// Specification of the canonical customer-load workload (the Example 2.1
/// shape: id, name, date, plus a payload column that pads rows to the
/// requested width).
#[derive(Debug, Clone)]
pub struct CustomerSpec {
    /// Number of input rows.
    pub rows: u64,
    /// Approximate bytes per input row (payload pads to this).
    pub row_bytes: usize,
    /// Fraction of rows whose JOIN_DATE is invalid text (0.0–1.0).
    pub date_error_rate: f64,
    /// Fraction of rows whose CUST_ID duplicates an earlier row (0.0–1.0).
    pub dup_rate: f64,
    /// Parallel data sessions the generated script requests.
    pub sessions: u16,
    /// Declare a unique primary index on CUST_ID in the target DDL.
    pub unique_key: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CustomerSpec {
    fn default() -> Self {
        CustomerSpec {
            rows: 1000,
            row_bytes: 100,
            date_error_rate: 0.0,
            dup_rate: 0.0,
            sessions: 2,
            unique_key: true,
            seed: 42,
        }
    }
}

/// A generated workload: the job script, its input data, and ground truth
/// about the injected errors.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The import job script (dot-command source).
    pub script: String,
    /// The input file contents (vartext).
    pub data: Vec<u8>,
    /// Legacy-dialect DDL creating the target table.
    pub target_ddl: String,
    /// Name of the target table.
    pub target: String,
    /// Input rows generated.
    pub rows: u64,
    /// 1-based row numbers with invalid dates.
    pub bad_date_rows: Vec<u64>,
    /// 1-based row numbers that duplicate an earlier CUST_ID.
    pub dup_rows: Vec<u64>,
}

impl Workload {
    /// Total injected erroneous rows.
    pub fn error_rows(&self) -> u64 {
        (self.bad_date_rows.len() + self.dup_rows.len()) as u64
    }
}

/// Generate the customer workload.
pub fn customer_workload(spec: &CustomerSpec) -> Workload {
    let mut rng = SeededRng::new(spec.seed);
    // Fixed overhead: id (≤8) + name (≤12) + date (10) + 3 delimiters.
    let payload_width = spec.row_bytes.saturating_sub(34).max(1);

    let mut data = Vec::with_capacity(spec.rows as usize * spec.row_bytes);
    let mut bad_date_rows = Vec::new();
    let mut dup_rows = Vec::new();

    for i in 1..=spec.rows {
        let is_dup = i > 1 && rng.gen_bool(spec.dup_rate.clamp(0.0, 1.0));
        let id = if is_dup {
            dup_rows.push(i);
            rng.gen_range(1, i)
        } else {
            i
        };
        let is_bad_date = rng.gen_bool(spec.date_error_rate.clamp(0.0, 1.0));
        let date = if is_bad_date {
            bad_date_rows.push(i);
            format!("bad{:05}", rng.gen_range(0, 100_000))
        } else {
            let year = 2000 + rng.gen_range(0, 20);
            let month = rng.gen_range(1, 13);
            let day = rng.gen_range(1, 29);
            format!("{year:04}-{month:02}-{day:02}")
        };
        let name = format!("name{:07}", rng.gen_range(0, 10_000_000));
        let payload: String = (0..payload_width)
            .map(|_| (b'a' + rng.gen_range(0, 26) as u8) as char)
            .collect();
        data.extend_from_slice(format!("C{id:07}|{name}|{date}|{payload}\n").as_bytes());
    }

    let payload_decl = payload_width.clamp(1, 60_000);
    let unique_clause = if spec.unique_key {
        " UNIQUE PRIMARY INDEX (CUST_ID)"
    } else {
        ""
    };
    let target_ddl = format!(
        "CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(8) NOT NULL, CUST_NAME VARCHAR(12), JOIN_DATE DATE, PAYLOAD VARCHAR({payload_decl})){unique_clause}"
    );
    let script = format!(
        r#".logon edw/loader,secret;
.sessions {sessions};
.layout CustLayout;
.field CUST_ID varchar(8);
.field CUST_NAME varchar(12);
.field JOIN_DATE varchar(10);
.field PAYLOAD varchar({payload_decl});
.begin import tables PROD.CUSTOMER
errortables PROD.CUSTOMER_ET PROD.CUSTOMER_UV;
.dml label InsApply;
insert into PROD.CUSTOMER values (
    trim(:CUST_ID), trim(:CUST_NAME),
    cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'), :PAYLOAD );
.import infile input.txt
    format vartext '|' layout CustLayout
    apply InsApply;
.end load
"#,
        sessions = spec.sessions,
    );

    Workload {
        script,
        data,
        target_ddl,
        target: "PROD.CUSTOMER".into(),
        rows: spec.rows,
        bad_date_rows,
        dup_rows,
    }
}

/// Generate a wide-table workload: `cols` payload columns of `col_width`
/// bytes each (the Figure 10 experiment loads a 50-column table).
pub fn wide_workload(rows: u64, cols: usize, col_width: usize, seed: u64) -> Workload {
    let mut rng = SeededRng::new(seed);
    let cols = cols.max(2);
    let mut data = Vec::with_capacity(rows as usize * cols * (col_width + 1));
    for i in 1..=rows {
        let mut line = format!("R{i:08}");
        for _ in 1..cols {
            line.push('|');
            for _ in 0..col_width {
                line.push((b'a' + rng.gen_range(0, 26) as u8) as char);
            }
        }
        line.push('\n');
        data.extend_from_slice(line.as_bytes());
    }

    let mut fields = String::from(".field K varchar(9);\n");
    let mut ddl_cols = String::from("K VARCHAR(9)");
    let mut placeholders = String::from(":K");
    for c in 1..cols {
        fields.push_str(&format!(".field C{c} varchar({col_width});\n"));
        ddl_cols.push_str(&format!(", C{c} VARCHAR({col_width})"));
        placeholders.push_str(&format!(", :C{c}"));
    }
    let target_ddl = format!("CREATE TABLE PROD.WIDE ({ddl_cols})");
    let script = format!(
        r#".logon edw/loader,secret;
.layout WideLayout;
{fields}.begin import tables PROD.WIDE
errortables PROD.WIDE_ET PROD.WIDE_UV;
.dml label Go;
insert into PROD.WIDE values ({placeholders});
.import infile input.txt
    format vartext '|' layout WideLayout
    apply Go;
.end load
"#
    );

    Workload {
        script,
        data,
        target_ddl,
        target: "PROD.WIDE".into(),
        rows,
        bad_date_rows: Vec::new(),
        dup_rows: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlv_script::{compile, parse_script, JobPlan};

    #[test]
    fn deterministic_by_seed() {
        let spec = CustomerSpec {
            rows: 50,
            date_error_rate: 0.2,
            dup_rate: 0.1,
            ..Default::default()
        };
        let a = customer_workload(&spec);
        let b = customer_workload(&spec);
        assert_eq!(a.data, b.data);
        assert_eq!(a.bad_date_rows, b.bad_date_rows);
        let c = customer_workload(&CustomerSpec { seed: 7, ..spec });
        assert_ne!(a.data, c.data);
    }

    #[test]
    fn script_compiles() {
        let w = customer_workload(&CustomerSpec::default());
        let JobPlan::Import(job) = compile(&parse_script(&w.script).unwrap()).unwrap() else {
            panic!()
        };
        assert_eq!(job.target, "PROD.CUSTOMER");
        assert_eq!(job.layout.arity(), 4);
        assert_eq!(job.sessions, 2);
    }

    #[test]
    fn row_width_roughly_honored() {
        for width in [60usize, 250, 1000] {
            let w = customer_workload(&CustomerSpec {
                rows: 100,
                row_bytes: width,
                ..Default::default()
            });
            let avg = w.data.len() / 100;
            assert!(
                avg.abs_diff(width) <= width / 4 + 8,
                "width {width} -> avg {avg}"
            );
        }
    }

    #[test]
    fn error_rates_roughly_honored() {
        let w = customer_workload(&CustomerSpec {
            rows: 2000,
            date_error_rate: 0.10,
            dup_rate: 0.05,
            ..Default::default()
        });
        let bad = w.bad_date_rows.len() as f64 / 2000.0;
        let dup = w.dup_rows.len() as f64 / 2000.0;
        assert!((0.06..=0.14).contains(&bad), "bad rate {bad}");
        assert!((0.02..=0.08).contains(&dup), "dup rate {dup}");
        // Row counts line up with the data.
        let lines = etlv_protocol::vartext::records(&w.data).count();
        assert_eq!(lines as u64, w.rows);
    }

    #[test]
    fn wide_workload_shape() {
        let w = wide_workload(10, 50, 8, 1);
        let JobPlan::Import(job) = compile(&parse_script(&w.script).unwrap()).unwrap() else {
            panic!()
        };
        assert_eq!(job.layout.arity(), 50);
        let first_line = w.data.split(|&b| b == b'\n').next().unwrap();
        assert_eq!(first_line.iter().filter(|&&b| b == b'|').count(), 49);
    }

    #[test]
    fn clean_workload_has_no_errors() {
        let w = customer_workload(&CustomerSpec {
            rows: 100,
            ..Default::default()
        });
        assert_eq!(w.error_rows(), 0);
    }
}
