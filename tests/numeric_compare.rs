//! Numbers compare as numbers, checked against hand-written answers (the
//! oracle and the gateway share this engine, so parity cannot see a
//! wrong order): INTEGER and DECIMAL values compare exactly however many
//! digits they carry, in `=`, `<`, ORDER BY, MIN/MAX and the key index;
//! and a text that spells NaN or infinity is no number, so it is a bad
//! value on load and a "not numeric" error in a comparison.

use etlv_cdw::{Cdw, CdwConfig};

fn cdw(native_unique: bool) -> Cdw {
    Cdw::with_config(
        CdwConfig {
            native_unique,
            ..Default::default()
        },
        None,
    )
}

/// The first column of `sql`'s answer, rendered.
fn column(cdw: &Cdw, sql: &str) -> Vec<String> {
    let result = cdw.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    result.rows.iter().map(|row| row[0].to_string()).collect()
}

const LOW: &str = "1234567890123456.78";
const HIGH: &str = "1234567890123456.79";

#[test]
fn decimal_keys_one_cent_apart_are_two_keys_under_native_uniqueness() {
    let cdw = cdw(true);
    cdw.execute("CREATE TABLE T (K DECIMAL(18,2), PRIMARY KEY (K))")
        .unwrap();
    cdw.execute(&format!("INSERT INTO T VALUES ({LOW})"))
        .unwrap();
    cdw.execute(&format!("INSERT INTO T VALUES ({HIGH})"))
        .unwrap();
    let dup = cdw
        .execute(&format!("INSERT INTO T VALUES ({LOW})"))
        .unwrap_err();
    assert!(dup.is_uniqueness(), "{dup}");
    assert_eq!(cdw.table_len("T").unwrap(), 2);
    cdw.validate_indexes().unwrap();
}

#[test]
fn decimal_keys_one_cent_apart_compare_exactly() {
    let cdw = cdw(false);
    cdw.execute("CREATE TABLE T (K DECIMAL(18,2), PRIMARY KEY (K))")
        .unwrap();
    for k in [LOW, HIGH] {
        cdw.execute(&format!("INSERT INTO T VALUES ({k})")).unwrap();
    }
    assert_eq!(
        column(&cdw, &format!("SELECT K FROM T WHERE K = {LOW}")),
        [LOW]
    );
    assert_eq!(
        column(&cdw, &format!("SELECT K FROM T WHERE K = '{HIGH}'")),
        [HIGH]
    );
    assert_eq!(
        column(&cdw, &format!("SELECT K FROM T WHERE K > {LOW}")),
        [HIGH]
    );
    assert_eq!(
        column(&cdw, &format!("SELECT K FROM T WHERE K < {HIGH}")),
        [LOW]
    );
    assert_eq!(column(&cdw, "SELECT K FROM T ORDER BY K DESC"), [HIGH, LOW]);
    assert_eq!(column(&cdw, "SELECT MAX(K) FROM T"), [HIGH]);
    assert_eq!(column(&cdw, "SELECT MIN(K) FROM T"), [LOW]);
}

#[test]
fn integers_past_two_to_the_53_compare_exactly_with_decimals() {
    let cdw = cdw(true);
    cdw.execute("CREATE TABLE D (K DECIMAL(18,0), PRIMARY KEY (K))")
        .unwrap();
    cdw.execute("INSERT INTO D VALUES (9007199254740993)")
        .unwrap();
    cdw.execute("INSERT INTO D VALUES (9007199254740992)")
        .unwrap();
    assert_eq!(cdw.table_len("D").unwrap(), 2);
    assert_eq!(
        column(&cdw, "SELECT K FROM D WHERE K = 9007199254740993"),
        ["9007199254740993"]
    );
    assert_eq!(
        column(&cdw, "SELECT K FROM D ORDER BY K"),
        ["9007199254740992", "9007199254740993"]
    );

    // An INTEGER against a DECIMAL: 2^53 + 1 is not 2^53.0.
    cdw.execute("CREATE TABLE I (ID BIGINT)").unwrap();
    cdw.execute("INSERT INTO I VALUES (9007199254740993)")
        .unwrap();
    assert!(column(&cdw, "SELECT ID FROM I WHERE ID = 9007199254740992.0").is_empty());
    assert_eq!(
        column(&cdw, "SELECT ID FROM I WHERE ID > 9007199254740992.5"),
        ["9007199254740993"]
    );
    assert_eq!(
        column(&cdw, "SELECT ID FROM I WHERE ID = 9007199254740993.0"),
        ["9007199254740993"]
    );
}

#[test]
fn nan_and_infinity_texts_are_no_numbers() {
    let cdw = cdw(false);
    cdw.execute("CREATE TABLE F (X FLOAT, K INTEGER)").unwrap();
    cdw.execute("INSERT INTO F VALUES (1.5, 1)").unwrap();
    cdw.execute("INSERT INTO F VALUES (2.5, 2)").unwrap();
    for text in ["nan", "NaN", "inf", "-Infinity", "1e999"] {
        let load = cdw.execute(&format!("INSERT INTO F VALUES ('{text}', 3)"));
        assert!(load.is_err(), "'{text}' loaded into a FLOAT");
        for col in ["X", "K"] {
            let sql = format!("SELECT K FROM F WHERE {col} = '{text}'");
            let err = cdw.execute(&sql).map(|r| r.rows.len()).unwrap_err();
            assert!(err.to_string().contains("is not numeric"), "{sql}: {err}");
        }
    }
    assert_eq!(cdw.table_len("F").unwrap(), 2);
    assert_eq!(column(&cdw, "SELECT K FROM F WHERE X = '1.5'"), ["1"]);
}
