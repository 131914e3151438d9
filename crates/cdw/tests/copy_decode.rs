//! COPY, which coerces each staged field into its column as it decodes
//! the line, against decoding each part whole (`decode_lines`) and then
//! coercing its rows column by column. Over seeded parts with bad values
//! (text in a number, overflow, over-long text, bad dates, NULL in a NOT
//! NULL column) and malformed lines (a field short or over, a dangling
//! escape, invalid UTF-8), COPY must load the same rows or fail with the
//! same error: a malformed line fails its part ahead of any bad value in
//! it, and otherwise the first bad value in row and column order does.

use std::sync::Arc;

use etlv_cdw::error::CdwError;
use etlv_cdw::{Cdw, CdwConfig, Column};
use etlv_cloudstore::store::ObjectStore;
use etlv_cloudstore::MemStore;
use etlv_protocol::data::Value;
use etlv_protocol::errcode::Cause;
use etlv_protocol::rng::SeededRng;
use etlv_protocol::vartext::VartextFormat;

const TABLE: &str = "CREATE TABLE STG (__SEQ BIGINT, I INTEGER, F FLOAT, D DECIMAL(9,2),
  S VARCHAR(6) NOT NULL, C CHAR(4), DT DATE, TS TIMESTAMP, B SMALLINT, PRIMARY KEY (__SEQ))";

/// Field texts per column after `__SEQ`, good and bad; an empty text is
/// NULL.
const FIELDS: [&[&str]; 8] = [
    &["1", "-42", " 7 ", "", "x1", "2147483648"],
    &["1.5", "-0.0", "1e3", "", "abc"],
    &["1.25", "-3", "", "1.234", "9999999.99", "99999999"],
    &["a", "é", "ab\\|c", "\"\"", "toolong", ""],
    &["ab", "abcd", "", "abcde"],
    &["2012-01-01", "", "2012-02-30", "20120101"],
    &["2023-07-04 12:30:45", "", "2023-07-04 12:30:45.5", "noon"],
    &["12", "", "-32768", "40000"],
];

/// One staged part of `lines` lines, mostly clean; a malformed line now
/// and then.
fn part(rng: &mut SeededRng, seq: &mut u64, lines: u64, bad: f64) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..lines {
        *seq += 1;
        let mut fields: Vec<&[u8]> = Vec::new();
        let seq_text = seq.to_string();
        fields.push(seq_text.as_bytes());
        for pool in FIELDS {
            let pick = if rng.gen_bool(bad) {
                rng.gen_range(0, pool.len() as u64)
            } else {
                rng.gen_range(0, 2)
            };
            fields.push(pool[pick as usize].as_bytes());
        }
        if rng.gen_bool(0.03) {
            match rng.gen_range(0, 4) {
                0 => {
                    fields.pop();
                }
                1 => fields.push(b"extra"),
                2 => fields[4] = b"dangling\\",
                _ => fields[4] = b"\xff",
            }
        }
        out.extend_from_slice(&fields.join(&b'|'));
        out.push(b'\n');
    }
    out
}

/// What COPY did before: decode each part whole, then coerce its rows
/// column by column, part after part.
fn reference(parts: &[(String, Vec<u8>)], columns: &[Column]) -> Result<Vec<Vec<Value>>, CdwError> {
    let format = VartextFormat::with_delimiter(b'|');
    let mut staged = Vec::new();
    for (key, data) in parts {
        let rows = format
            .decode_lines(data, Some(columns.len()))
            .map_err(|e| {
                CdwError::abort(Cause::BadFile, format!("malformed staged part {key}: {e}"))
            })?;
        for row in rows {
            let coerced: Result<Vec<Value>, CdwError> = row
                .into_iter()
                .zip(columns)
                .map(|(v, c)| c.coerce("STG", v))
                .collect();
            staged.push(coerced?);
        }
    }
    Ok(staged)
}

#[test]
fn copy_loads_what_decoding_then_coercing_did() {
    let mut outcomes = [0usize; 3];
    for seed in 0..120u64 {
        let mut rng = SeededRng::new(seed);
        let store = Arc::new(MemStore::new());
        let cdw = Cdw::with_config(
            CdwConfig::default(),
            Some(Arc::clone(&store) as Arc<dyn ObjectStore>),
        );
        cdw.execute(TABLE).unwrap();
        let bad = [0.0, 0.02, 0.1, 0.3][seed as usize % 4];
        let mut seq = 0;
        let parts: Vec<(String, Vec<u8>)> = (0..rng.gen_range(1, 4))
            .map(|i| {
                let lines = rng.gen_range(0, 40);
                (
                    format!("job/part-{i:03}"),
                    part(&mut rng, &mut seq, lines, bad),
                )
            })
            .collect();
        for (key, data) in &parts {
            store.put("staging", key, data.clone()).unwrap();
        }
        let columns = cdw.table_schema("STG").unwrap();
        let want = reference(&parts, &columns);
        let got = cdw
            .execute("COPY INTO STG FROM 'store://staging/job/' DELIMITER '|'")
            .map(|_| cdw.execute("SELECT * FROM STG").unwrap().into_rows());
        assert_eq!(got, want, "seed {seed}");
        outcomes[match &want {
            Ok(_) => 0,
            Err(CdwError::BulkAbort {
                cause: Cause::BadFile,
                ..
            }) => 1,
            Err(_) => 2,
        }] += 1;
    }
    // The seeds reach every outcome: loads, malformed parts, bad values.
    assert!(outcomes.iter().all(|&n| n >= 10), "{outcomes:?}");
}

#[test]
fn a_malformed_line_fails_its_part_ahead_of_an_earlier_bad_value() {
    let store = Arc::new(MemStore::new());
    let cdw = Cdw::with_config(
        CdwConfig::default(),
        Some(Arc::clone(&store) as Arc<dyn ObjectStore>),
    );
    cdw.execute(TABLE).unwrap();
    // Line 1 has a bad INTEGER; line 2 is one field short.
    let data = b"1|x|1.5|1|a|ab|2012-01-01|2023-07-04 12:30:45|1\n2|1|1.5|1|a|ab|2012-01-01|1\n";
    store.put("staging", "job/part-000", data.to_vec()).unwrap();
    let err = cdw
        .execute("COPY INTO STG FROM 'store://staging/job/' DELIMITER '|'")
        .unwrap_err();
    assert_eq!(
        err,
        CdwError::abort(
            Cause::BadFile,
            "malformed staged part job/part-000: expected 9 fields, found 8"
        )
    );
}
