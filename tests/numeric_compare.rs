//! Numbers compare as numbers, checked against hand-written answers (the
//! oracle and the gateway share this engine, so parity cannot see a
//! wrong order): INTEGER and DECIMAL values compare exactly however many
//! digits they carry, in `=`, `<`, ORDER BY, MIN/MAX and the key index;
//! a FLOAT meets an INTEGER or DECIMAL as FLOAT in a predicate, as in
//! SQL, though ORDER BY orders the three exactly; and a text that spells
//! NaN or infinity is no number, so it is a bad value on load and a "not
//! numeric" error in a comparison.

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

#[test]
fn floats_past_two_to_the_53_order_exactly_among_integers_and_decimals() {
    let cdw = cdw(false);
    cdw.execute("CREATE TABLE M (ID INTEGER, I BIGINT, F FLOAT, D DECIMAL(18,1))")
        .unwrap();
    for row in [
        "1, 9007199254740993, NULL, NULL",
        "2, NULL, 9007199254740992.0, NULL",
        "3, NULL, NULL, 9007199254740992.5",
    ] {
        cdw.execute(&format!("INSERT INTO M VALUES ({row})"))
            .unwrap();
    }
    let sql = "SELECT COALESCE(I, F, D), ID FROM M ORDER BY COALESCE(I, F, D)";
    assert_eq!(
        column(&cdw, sql),
        ["9007199254740992", "9007199254740992.5", "9007199254740993"]
    );
    assert_eq!(
        column(&cdw, "SELECT ID FROM M ORDER BY COALESCE(I, F, D) DESC"),
        ["1", "3", "2"]
    );
}

#[test]
fn a_float_equals_its_decimal_spelling_in_a_predicate() {
    for native_unique in [false, true] {
        let cdw = cdw(native_unique);
        cdw.execute_script(
            "CREATE TABLE F (F FLOAT, K INTEGER);
             CREATE TABLE P (F FLOAT, K INTEGER, PRIMARY KEY (F));
             INSERT INTO F VALUES (0.1, 1);
             INSERT INTO F VALUES (-0.1, 2);
             INSERT INTO P SELECT F, K FROM F;",
        )
        .unwrap();
        // Scanned (F) and sought through the key index (P) alike.
        for t in ["F", "P"] {
            let rows = |pred: &str| column(&cdw, &format!("SELECT K FROM {t} WHERE {pred}"));
            assert_eq!(rows("F = 0.1"), ["1"], "{t}");
            assert_eq!(rows("F = '0.1'"), ["1"], "{t}");
            assert_eq!(rows("0.1 = F"), ["1"], "{t}");
            assert_eq!(rows("F = -0.1"), ["2"], "{t}");
            assert_eq!(rows("F <= 0.1 AND F > -0.1"), ["1"], "{t}");
            assert!(rows("F > 0.1").is_empty(), "{t}");
            assert!(rows("F < '-0.1'").is_empty(), "{t}");
        }
    }
}

#[test]
fn an_exact_key_meets_a_float_probe_as_float() {
    let cdw = cdw(false);
    cdw.execute_script(
        "CREATE TABLE B (I BIGINT, PRIMARY KEY (I));
         INSERT INTO B VALUES (9007199254740992);
         INSERT INTO B VALUES (9007199254740993);
         CREATE TABLE D (X DECIMAL(4,1), PRIMARY KEY (X));
         INSERT INTO D VALUES (0.1);",
    )
    .unwrap();
    // Both integers are 2^53 as FLOAT, so both equal it; the seek a FLOAT
    // probe cannot reproduce falls back to a scan.
    assert_eq!(
        column(
            &cdw,
            "SELECT I FROM B WHERE I = 9007199254740992e0 ORDER BY I"
        ),
        ["9007199254740992", "9007199254740993"]
    );
    assert!(column(&cdw, "SELECT I FROM B WHERE I < 9007199254740992e0").is_empty());
    assert_eq!(column(&cdw, "SELECT X FROM D WHERE X = 1e-1"), ["0.1"]);
}
