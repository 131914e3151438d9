//! GROUP BY against the grouping it replaced. The CDW groups rows by
//! sorting their keys; the reference below is hash grouping as it stood:
//! a map from each row's key (`RowKey`) to its group, groups in
//! first-seen order, each group's aggregates updated in row order. On
//! seeded tables whose keys mix every type in one column (an INTEGER 2
//! beside a FLOAT 2.0 and a DECIMAL 2, -0.0 beside 0.0, 38-digit decimals
//! of two scales, NULLs), grouped by zero to three expressions, with
//! HAVING, ORDER BY and no input at all, the CDW must answer the rows the
//! reference does, in the same order.

use std::cmp::Ordering;
use std::collections::HashMap;

use etlv_cdw::key::cmp_values;
use etlv_cdw::{Cdw, RowKey};
use etlv_protocol::data::Value;
use etlv_protocol::rng::SeededRng;

/// The one-column key mixing every type: each row sets at most one of
/// these columns.
const MIXED: &str = "COALESCE(I, F, D, E, S, DT, TS)";
/// The aggregates every grouped query computes, in output order.
const AGGS: &str = "COUNT(*), SUM(X), MIN(Y), MAX(Y), AVG(X), COUNT(DISTINCT Y)";

/// A table of `rows` seeded rows.
fn seeded(seed: u64, rows: usize) -> Cdw {
    let cdw = Cdw::new();
    cdw.execute(
        "CREATE TABLE G (ID INTEGER, I INTEGER, F FLOAT, D DECIMAL(38,0), E DECIMAL(38,10),
           S VARCHAR(8), DT DATE, TS TIMESTAMP, K2 VARCHAR(4), K3 INTEGER, X FLOAT, Y INTEGER)",
    )
    .unwrap();
    let ints = ["-2", "0", "2", "7"];
    let floats = ["'-0.0'", "'0.0'", "'2.0'", "'2.5'", "'-7.25'"];
    let decimals = [
        "'2'",
        "'-5'",
        "'99999999999999999999999999999999999999'",
        "'99999999999999999999999999999999999998'",
        "'10000000000000000000000000000'",
    ];
    let scaled = [
        "'2.0000000000'",
        "'2.5'",
        "'9999999999999999999999999999.0000000001'",
        "'9999999999999999999999999999.0000000000'",
        "'9999999999999999999999999999.9999999999'",
    ];
    let strings = ["''", "'a'", "'b'", "'ab'", "'é'"];
    let dates = ["'2020-01-01'", "'2020-01-02'", "'1999-12-31'"];
    let stamps = ["'2020-01-01 00:00:00'", "'2020-01-01 00:00:00.5'"];
    let k2 = ["'x'", "'y'", "NULL"];
    let k3 = ["1", "2", "NULL"];
    let xs = [
        "'0.1'", "'0.2'", "'0.3'", "'1e10'", "'-1e10'", "'3.3'", "NULL",
    ];
    let ys = ["1", "2", "3", "NULL"];
    let mut rng = SeededRng::new(seed);
    let mut pick = |pool: &[&'static str]| pool[rng.gen_range(0, pool.len() as u64) as usize];
    for id in 0..rows {
        let mut typed = ["NULL"; 7];
        let pools: [&[&str]; 7] = [
            &ints, &floats, &decimals, &scaled, &strings, &dates, &stamps,
        ];
        // Kind 7 leaves the mixed key NULL.
        let kind = pick(&["0", "1", "2", "3", "4", "5", "6", "7"]);
        let kind: usize = kind.parse().unwrap();
        if kind < 7 {
            typed[kind] = pick(pools[kind]);
        }
        let sql = format!(
            "INSERT INTO G VALUES ({id}, {}, {}, {}, {}, {})",
            typed.join(", "),
            pick(&k2),
            pick(&k3),
            pick(&xs),
            pick(&ys)
        );
        cdw.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    cdw
}

/// One query's shape: its group expressions, whether it computes
/// [`AGGS`], its WHERE, its `HAVING COUNT(*) > n` and its ORDER BY (an
/// output column, descending or not).
struct Query<'a> {
    keys: &'a [&'a str],
    aggregates: bool,
    selection: &'a str,
    having: Option<i64>,
    order_by: Option<(usize, bool)>,
}

impl Query<'_> {
    fn outputs(&self) -> Vec<String> {
        let mut out: Vec<String> = self.keys.iter().map(|k| k.to_string()).collect();
        if self.aggregates {
            out.extend(AGGS.split(", ").map(str::to_string));
        }
        out
    }

    fn sql(&self) -> String {
        let outputs = self.outputs();
        let mut sql = format!("SELECT {} FROM G {}", outputs.join(", "), self.selection);
        if !self.keys.is_empty() {
            sql += &format!(" GROUP BY {}", self.keys.join(", "));
        }
        if let Some(n) = self.having {
            sql += &format!(" HAVING COUNT(*) > {n}");
        }
        if let Some((c, desc)) = self.order_by {
            sql += &format!(
                " ORDER BY {}{}",
                outputs[c],
                if desc { " DESC" } else { "" }
            );
        }
        sql
    }
}

/// One group's running aggregates, as the hash-grouping executor kept
/// them.
#[derive(Default)]
struct Group {
    key: Vec<Value>,
    count: i64,
    sum: Option<f64>,
    min: Option<Value>,
    max: Option<Value>,
    avg: (f64, u64),
    distinct: HashMap<RowKey, ()>,
}

/// The reference: the query's input rows read by a plain SELECT, grouped
/// through a `RowKey` hash map in first-seen order.
fn reference(cdw: &Cdw, q: &Query<'_>) -> Vec<Vec<Value>> {
    let mut inputs: Vec<&str> = q.keys.to_vec();
    inputs.extend(["X", "Y"]);
    let sql = format!("SELECT {} FROM G {}", inputs.join(", "), q.selection);
    let rows = cdw.execute(&sql).unwrap().into_rows();
    let k = q.keys.len();
    let mut index: HashMap<RowKey, usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    for row in rows {
        let key = row[..k].to_vec();
        let next = groups.len();
        let g = *index.entry(RowKey(key.clone())).or_insert(next);
        if g == next {
            groups.push(Group {
                key,
                ..Group::default()
            });
        }
        let group = &mut groups[g];
        group.count += 1;
        if let Value::Float(x) = row[k] {
            group.sum = Some(group.sum.map_or(x, |sum| sum + x));
            group.avg.0 += x;
            group.avg.1 += 1;
        }
        let y = &row[k + 1];
        if !y.is_null() {
            let keep = |acc: &Option<Value>, want: Ordering| match acc {
                Some(prev) => cmp_values(y, prev) == want,
                None => true,
            };
            if keep(&group.min, Ordering::Less) {
                group.min = Some(y.clone());
            }
            if keep(&group.max, Ordering::Greater) {
                group.max = Some(y.clone());
            }
            group.distinct.insert(RowKey(vec![y.clone()]), ());
        }
    }
    // A global aggregate over no rows is one group.
    if groups.is_empty() && k == 0 {
        groups.push(Group::default());
    }
    let mut out: Vec<Vec<Value>> = groups
        .into_iter()
        .filter(|g| q.having.is_none_or(|n| g.count > n))
        .map(|g| {
            let mut row = g.key;
            if q.aggregates {
                let (sum, n) = g.avg;
                row.extend([
                    Value::Int(g.count),
                    g.sum.map_or(Value::Null, Value::Float),
                    g.min.unwrap_or(Value::Null),
                    g.max.unwrap_or(Value::Null),
                    if n == 0 {
                        Value::Null
                    } else {
                        Value::Float(sum / n as f64)
                    },
                    Value::Int(g.distinct.len() as i64),
                ]);
            }
            row
        })
        .collect();
    if let Some((c, desc)) = q.order_by {
        out.sort_by(|a, b| {
            let ord = cmp_values(&a[c], &b[c]);
            if desc {
                ord.reverse()
            } else {
                ord
            }
        });
    }
    out
}

/// Float-exact row equality: `-0.0` and `0.0` differ, as they do in a
/// group key.
fn same_rows(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    let bits = |v: &Value| match v {
        Value::Float(f) => Some(f.to_bits()),
        _ => None,
    };
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x == y && x.iter().zip(y).all(|(v, w)| bits(v) == bits(w)))
}

#[test]
fn grouping_by_sort_answers_what_hash_grouping_did() {
    let two: [&str; 2] = [MIXED, "K2"];
    let three: [&str; 3] = [MIXED, "K2", "K3"];
    let queries = [
        // The global aggregate, over rows and over none.
        Query {
            keys: &[],
            aggregates: true,
            selection: "",
            having: None,
            order_by: None,
        },
        Query {
            keys: &[],
            aggregates: true,
            selection: "WHERE ID < 0",
            having: None,
            order_by: None,
        },
        Query {
            keys: &[MIXED],
            aggregates: true,
            selection: "",
            having: None,
            order_by: None,
        },
        Query {
            keys: &[MIXED],
            aggregates: true,
            selection: "WHERE ID < 0",
            having: None,
            order_by: None,
        },
        Query {
            keys: &[MIXED],
            aggregates: false,
            selection: "WHERE ID >= 3",
            having: None,
            order_by: Some((0, true)),
        },
        Query {
            keys: &two,
            aggregates: true,
            selection: "",
            having: Some(1),
            order_by: None,
        },
        Query {
            keys: &two,
            aggregates: true,
            selection: "",
            having: None,
            order_by: Some((3, false)),
        },
        Query {
            keys: &three,
            aggregates: true,
            selection: "WHERE ID <> 5",
            having: None,
            order_by: Some((3, true)),
        },
        Query {
            keys: &three,
            aggregates: true,
            selection: "",
            having: Some(2),
            order_by: Some((1, false)),
        },
        Query {
            keys: &["K3", "K2"],
            aggregates: false,
            selection: "",
            having: None,
            order_by: None,
        },
    ];
    for (seed, rows) in [(1, 0), (2, 1), (3, 40), (4, 150), (5, 300)] {
        let cdw = seeded(seed, rows);
        for q in &queries {
            let sql = q.sql();
            let got = cdw
                .execute(&sql)
                .unwrap_or_else(|e| panic!("{sql}: {e}"))
                .into_rows();
            let want = reference(&cdw, q);
            assert!(
                same_rows(&got, &want),
                "seed {seed}, {rows} rows: {sql}\n got {got:?}\nwant {want:?}"
            );
        }
    }
}

/// The keys that look alike but are not: each pair is two groups, except
/// two decimals of one value at different scales. `10^28` and
/// `10^28 - 10^-10` compare equal through `f64` (the decimal order's
/// fallback when one cannot be rescaled to the other's scale) but are two
/// values.
#[test]
fn look_alike_keys_group_as_hashing_did() {
    let cdw = Cdw::new();
    cdw.execute_script(
        "CREATE TABLE A (I INTEGER, F FLOAT, D DECIMAL(38,0), E DECIMAL(38,10), DT DATE,
           TS TIMESTAMP);
         INSERT INTO A VALUES (2, NULL, NULL, NULL, NULL, NULL);
         INSERT INTO A VALUES (NULL, '2.0', NULL, NULL, NULL, NULL);
         INSERT INTO A VALUES (NULL, NULL, '2', NULL, NULL, NULL);
         INSERT INTO A VALUES (NULL, NULL, NULL, '2.0000000000', NULL, NULL);
         INSERT INTO A VALUES (NULL, '-0.0', NULL, NULL, NULL, NULL);
         INSERT INTO A VALUES (NULL, '0.0', NULL, NULL, NULL, NULL);
         INSERT INTO A VALUES (NULL, NULL, NULL, NULL, '2020-01-01', NULL);
         INSERT INTO A VALUES (NULL, NULL, NULL, NULL, NULL, '2020-01-01 00:00:00');
         INSERT INTO A VALUES (NULL, NULL, NULL, NULL, NULL, NULL);
         INSERT INTO A VALUES (NULL, NULL, NULL, NULL, NULL, NULL);
         INSERT INTO A VALUES (NULL, NULL, '10000000000000000000000000000', NULL, NULL, NULL);
         INSERT INTO A VALUES (NULL, NULL, NULL, '9999999999999999999999999999.9999999999', NULL,
           NULL);",
    )
    .unwrap();
    let got = cdw
        .execute("SELECT COUNT(*) FROM A GROUP BY COALESCE(I, F, D, E, DT, TS)")
        .unwrap()
        .into_rows();
    let counts: Vec<i64> = got
        .iter()
        .map(|r| match r[0] {
            Value::Int(n) => n,
            ref other => panic!("{other:?}"),
        })
        .collect();
    // INTEGER 2, FLOAT 2.0, DECIMAL 2 (both scales), -0.0, 0.0, the DATE,
    // the TIMESTAMP, NULL, 10^28, 10^28 - 10^-10.
    assert_eq!(counts, [1, 1, 2, 1, 1, 1, 1, 2, 1, 1]);
}
