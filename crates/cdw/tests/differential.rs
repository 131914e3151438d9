//! PR 7 differential property suite: the indexed, planned engine must be
//! byte-identical to the scan-only reference on random statement streams.
//!
//! Two engines run the same seeded stream: one with the planner on
//! (index seeks, index-lookup joins) and one with it
//! off (full scans, nested loops — the pre-PR-7 semantics). After every
//! statement both must produce identical `QueryResult`s or identical
//! error renderings, and every index must validate against its table.
//!
//! The generator sticks to type-consistent predicates (integer columns
//! vs integer literals, varchar vs string literals, no NULL literal in a
//! WHERE but the one whole-statement `K < NULL` probe) so evaluation is
//! error-free by construction; the interesting
//! divergences — seek bounds, probe normalization, rowid ordering,
//! residual re-evaluation, join padding — are all exercised. The join
//! shapes (arm 9) cover the WHERE pushed through a join's left input:
//! what may be pushed, what must not be, and what raises the same error
//! either way.

use etlv_cdw::{Cdw, CdwConfig};

/// splitmix64: tiny, seedable, good enough for statement fuzzing.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn setup(planner: bool, native_unique: bool) -> Cdw {
    let cdw = Cdw::with_config(
        CdwConfig {
            planner,
            native_unique,
            ..Default::default()
        },
        None,
    );
    cdw.execute_script(
        "CREATE TABLE T1 (A INTEGER, B INTEGER, C VARCHAR(10), PRIMARY KEY (A));
         CREATE TABLE T2 (K INTEGER, V VARCHAR(10), PRIMARY KEY (K));
         CREATE TABLE T3 (J INTEGER, V VARCHAR(10), PRIMARY KEY (J));
         CREATE TABLE T4 (A INTEGER, B INTEGER, V VARCHAR(10), PRIMARY KEY (A, B));
         INSERT INTO T3 VALUES (1, 'c1'), (2, 'c2'), (3, 'c1'), (50, 'u9');",
    )
    .unwrap();
    cdw
}

/// One random statement. Key domains are deliberately small so inserts
/// collide (exercising uniqueness paths) and predicates actually match.
fn gen_stmt(rng: &mut Rng) -> String {
    match rng.below(12) {
        0..=2 => {
            // Multi-row INSERT into T1.
            let n = 1 + rng.below(3);
            let rows: Vec<String> = (0..n)
                .map(|_| {
                    format!(
                        "({}, {}, 'c{}')",
                        rng.below(400),
                        rng.below(50),
                        rng.below(20)
                    )
                })
                .collect();
            format!("INSERT INTO T1 VALUES {}", rows.join(", "))
        }
        3 => format!(
            "INSERT INTO T2 VALUES ({}, 'v{}')",
            rng.below(100),
            rng.below(20)
        ),
        4 => match rng.below(3) {
            0 => format!(
                "UPDATE T1 SET B = {} WHERE A = {}",
                rng.below(50),
                rng.below(400)
            ),
            1 => format!(
                "UPDATE T1 SET C = 'u{}' WHERE B BETWEEN {} AND {}",
                rng.below(20),
                rng.below(25),
                25 + rng.below(25)
            ),
            _ => format!(
                "UPDATE T1 SET B = B + 1 WHERE A > {} AND A < {}",
                rng.below(200),
                200 + rng.below(200)
            ),
        },
        5 => match rng.below(3) {
            0 => format!("DELETE FROM T1 WHERE A = {}", rng.below(400)),
            1 => format!("DELETE FROM T2 WHERE K >= {}", 90 + rng.below(10)),
            _ => format!("DELETE FROM T1 WHERE B = {} AND C = 'c{}'", rng.below(50), rng.below(20)),
        },
        6 => format!(
            "SELECT A, B, C FROM T1 WHERE A = {} ORDER BY A, B, C",
            rng.below(400)
        ),
        7 => format!(
            "SELECT A, B FROM T1 WHERE A BETWEEN {} AND {} AND B < {} ORDER BY A, B",
            rng.below(300),
            100 + rng.below(300),
            rng.below(50)
        ),
        8 => format!(
            "SELECT T1.A, T2.V FROM T1 JOIN T2 ON T1.B = T2.K ORDER BY T1.A, T2.V LIMIT {}",
            1 + rng.below(40)
        ),
        // WHERE over a join: T2 (or T1) is the named left input.
        9 => match rng.below(7) {
            // Left-only range + right-only conjunct + a mixed one.
            0 => format!(
                "SELECT T2.K, T2.V, T1.A FROM T2 JOIN T1 ON T1.B = T2.K \
                 WHERE T2.K >= {} AND T2.K < {} AND T1.A < {} AND T1.A > T2.K + 1 \
                 ORDER BY T2.K, T1.A",
                rng.below(25),
                25 + rng.below(25),
                rng.below(400)
            ),
            // LEFT JOIN filtered on the nullable side: must not be pushed.
            1 => format!(
                "SELECT T2.K, T1.C FROM T2 LEFT JOIN T1 ON T1.A = T2.K \
                 WHERE T1.C IS NULL AND T2.K BETWEEN {} AND {} ORDER BY T2.K",
                rng.below(50),
                50 + rng.below(50)
            ),
            // Unqualified but unambiguous left column: pushed.
            2 => format!(
                "SELECT K, A FROM T2 JOIN T1 ON T1.B = T2.K WHERE K <= {} ORDER BY K, A",
                rng.below(50)
            ),
            // Unqualified name both inputs carry: the same AmbiguousColumn
            // error in both modes, nothing pushed.
            3 => "SELECT T2.K FROM T2 JOIN T3 ON T3.J = T2.K WHERE V = 'v1'".into(),
            // A left-only conjunct that is not sargable beside one that is.
            4 => format!(
                "SELECT T2.K, T2.V, T1.A FROM T2 LEFT JOIN T1 ON T1.B = T2.K \
                 WHERE T2.V LIKE 'v1%' AND T2.K > {} ORDER BY T2.K, T1.A",
                rng.below(100)
            ),
            // NULL probe on the left input: no rows, inner or LEFT.
            5 => format!(
                "SELECT T2.K FROM T2 {} T1 ON T1.A = T2.K WHERE T2.K < NULL",
                if rng.below(2) == 0 { "JOIN" } else { "LEFT JOIN" }
            ),
            // Nested-loop join (no index on T3.V) over a pushed left seek.
            _ => format!(
                "SELECT T1.A, T3.J FROM T1 JOIN T3 ON T3.V = T1.C WHERE T1.A >= {} AND T1.A < {} \
                 ORDER BY T1.A, T3.J",
                rng.below(200),
                200 + rng.below(200)
            ),
        },
        // T4's composite key: prefix seeks, re-keying updates, and a
        // lookup join on the key's first column.
        10 => match rng.below(8) {
            0 | 1 => {
                let n = 1 + rng.below(3);
                let rows: Vec<String> = (0..n)
                    .map(|_| {
                        format!(
                            "({}, {}, 'w{}')",
                            rng.below(8),
                            rng.below(12),
                            rng.below(5)
                        )
                    })
                    .collect();
                format!("INSERT INTO T4 VALUES {}", rows.join(", "))
            }
            2 => format!(
                "SELECT A, B, V FROM T4 WHERE A = {} AND B > {} AND B <= {} ORDER BY A, B, V",
                rng.below(8),
                rng.below(6),
                6 + rng.below(6)
            ),
            // No key prefix: a scan.
            3 => format!(
                "SELECT A, B, V FROM T4 WHERE B = {} ORDER BY A, B, V",
                rng.below(12)
            ),
            4 => format!("UPDATE T4 SET B = B + 1 WHERE A = {}", rng.below(8)),
            5 => format!(
                "UPDATE T4 SET V = 'u{}' WHERE A = {} AND B = {}",
                rng.below(5),
                rng.below(8),
                rng.below(12)
            ),
            6 => format!(
                "DELETE FROM T4 WHERE A = {} AND B < {}",
                rng.below(8),
                rng.below(12)
            ),
            _ => "SELECT T2.K, T4.B, T4.V FROM T2 JOIN T4 ON T4.A = T2.K \
                  ORDER BY T2.K, T4.B, T4.V"
                .into(),
        },
        _ => match rng.below(3) {
            0 => format!("SELECT COUNT(*) FROM T1 WHERE A >= {} AND A < {}", rng.below(200), 200 + rng.below(200)),
            1 => "SELECT T1.C, COUNT(*) AS N FROM T1 GROUP BY T1.C ORDER BY T1.C".into(),
            _ => format!(
                "SELECT T2.K, T1.C FROM T2 LEFT JOIN T1 ON T1.A = T2.K WHERE T2.K <= {} ORDER BY T2.K, T1.C",
                rng.below(100)
            ),
        },
    }
}

fn run_stream(seed: u64, native_unique: bool, statements: usize) {
    let indexed = setup(true, native_unique);
    let reference = setup(false, native_unique);
    let mut rng = Rng(seed);
    for i in 0..statements {
        let sql = gen_stmt(&mut rng);
        let a = indexed.execute(&sql);
        let b = reference.execute(&sql);
        match (&a, &b) {
            (Ok(ra), Ok(rb)) => {
                assert_eq!(
                    ra.columns, rb.columns,
                    "columns diverged at stmt {i}: {sql}"
                );
                assert_eq!(ra.rows, rb.rows, "rows diverged at stmt {i}: {sql}");
                assert_eq!(
                    ra.affected, rb.affected,
                    "affected diverged at stmt {i}: {sql}"
                );
            }
            (Err(ea), Err(eb)) => {
                assert_eq!(
                    ea.to_string(),
                    eb.to_string(),
                    "errors diverged at stmt {i}: {sql}"
                );
            }
            _ => panic!("outcome diverged at stmt {i}: {sql}\n indexed: {a:?}\n reference: {b:?}"),
        }
        indexed
            .validate_indexes()
            .unwrap_or_else(|e| panic!("indexed engine corrupt after stmt {i} ({sql}): {e}"));
        reference
            .validate_indexes()
            .unwrap_or_else(|e| panic!("reference engine corrupt after stmt {i} ({sql}): {e}"));
    }
    // Final deep comparison of full table contents.
    for table in ["T1", "T2", "T4"] {
        let q = format!("SELECT * FROM {table}");
        let ra = indexed.execute(&q).unwrap();
        let rb = reference.execute(&q).unwrap();
        assert_eq!(ra.rows, rb.rows, "final contents of {table} diverged");
    }
}

#[test]
fn differential_emulated_uniqueness() {
    for seed in [1, 0xDEAD_BEEF, 0x00E7_C007] {
        run_stream(seed, false, 400);
    }
}

#[test]
fn differential_native_uniqueness() {
    for seed in [2, 0xFEED_F00D, 0x00E7_C017] {
        run_stream(seed, true, 400);
    }
}
