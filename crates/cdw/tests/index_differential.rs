//! The key index against a brute-force scan. A seeded stream interleaves
//! batch appends, one-row appends, UPDATEs that re-key rows and DELETEs
//! over one- and two-column keys, with NULLs, duplicates, numerics of
//! three types that compare equal across types, and text that shares its
//! first 8 bytes (the index's key prefix) or sorts beside other types.
//! The index is driven the way a table drives it: an append hands it the
//! new rowid range, and an UPDATE of a key column or a DELETE rebuilds
//! it. After every step the index must be a permutation of the rowids in
//! key order, ties by rowid, each beside its key's prefix, and every equality seek, prefix seek, range seek (each bound inclusive
//! or exclusive, or absent) and `contains_key` must return exactly the
//! rowids, in that order, that a full scan comparing under `cmp_values`
//! selects.

use std::cmp::Ordering;

use etlv_cdw::key::cmp_values;
use etlv_cdw::{OrderedIndex, SeekBound};
use etlv_protocol::data::{Decimal, Value};
use etlv_protocol::rng::SeededRng;

/// A key value: NULL, or one of a few numbers spelled as an INTEGER, a
/// DECIMAL or a FLOAT (so `2`, `2.0` and `2.00` are one key).
fn number(rng: &mut SeededRng) -> Value {
    let k = rng.gen_range(0, 6) as i64;
    match rng.gen_range(0, 8) {
        0 => Value::Null,
        1 => Value::Decimal(Decimal::new(k as i128 * 100 + 50, 2)),
        2 => Value::Float(k as f64),
        3 => Value::Decimal(Decimal::new(k as i128 * 10, 1)),
        _ => Value::Int(k),
    }
}

/// A second key column: NULL, text (empty, sharing its first 8 bytes
/// with other text, or holding zero bytes), and now and then a number, a
/// date or bytes, which sort before and after text.
fn text(rng: &mut SeededRng) -> Value {
    const TEXT: [&str; 9] = [
        "",
        "\0",
        "a",
        "ab",
        "abcdefgh",
        "abcdefgh\0",
        "abcdefghi",
        "abcdefgz",
        "b",
    ];
    match rng.gen_range(0, 14) {
        0 => Value::Null,
        1 => Value::Int(rng.gen_range(0, 3) as i64),
        2 => Value::Date(etlv_protocol::data::Date::new(2020, 1, 1).unwrap()),
        3 => Value::Bytes(vec![rng.gen_range(0, 3) as u8]),
        k => Value::Str(TEXT[(k - 4) as usize % TEXT.len()].into()),
    }
}

fn row(rng: &mut SeededRng, serial: &mut i64) -> Vec<Value> {
    *serial += 1;
    vec![number(rng), text(rng), Value::Int(*serial)]
}

/// A value of key column `k`.
fn key_value(rng: &mut SeededRng, k: usize) -> Value {
    if k == 0 {
        number(rng)
    } else {
        text(rng)
    }
}

/// Every rowid in key order, ties by rowid: the order a scan's hits are
/// compared in.
fn key_order(ix: &OrderedIndex, rows: &[Vec<Value>]) -> Vec<usize> {
    let key = |r: usize| ix.columns.iter().map(move |&c| &rows[r][c]);
    let mut all: Vec<usize> = (0..rows.len()).collect();
    all.sort_by(|&a, &b| {
        (key(a).zip(key(b)))
            .map(|(x, y)| cmp_values(x, y))
            .find(|o| o.is_ne())
            .unwrap_or(a.cmp(&b))
    });
    all
}

/// Whether `v` lies past `lo` and before `hi` (SQL semantics: NULL never).
fn in_range(v: &Value, lo: Option<&SeekBound>, hi: Option<&SeekBound>) -> bool {
    let past = |b: &SeekBound, want: Ordering| match cmp_values(v, &b.value) {
        Ordering::Equal => b.inclusive,
        o => o == want,
    };
    !v.is_null()
        && lo.is_none_or(|b| past(b, Ordering::Greater))
        && hi.is_none_or(|b| past(b, Ordering::Less))
}

fn check(ix: &OrderedIndex, rows: &[Vec<Value>], rng: &mut SeededRng, step: &str) {
    let all = key_order(ix, rows);
    let order: Vec<usize> = ix.rowids().iter().map(|&r| r as usize).collect();
    assert_eq!(
        order, all,
        "{step}: the index is not the rowids in key order"
    );
    let prefixes: Vec<u64> = all.iter().map(|&r| ix.prefix_of(&rows[r])).collect();
    assert_eq!(
        ix.prefixes(),
        prefixes,
        "{step}: a key prefix is not its row's"
    );
    // A full scan under `cmp_values`, its hits in key order.
    let scan = |keep: &dyn Fn(&[Value]) -> bool| -> Vec<usize> {
        all.iter().copied().filter(|&r| keep(&rows[r])).collect()
    };
    let width = ix.columns.len();
    for _ in 0..16 {
        let p = rng.gen_range(0, width as u64 + 1) as usize;
        let prefix: Vec<Value> = (0..p).map(|k| key_value(rng, k)).collect();
        let eq = |r: &[Value]| {
            (ix.columns.iter().zip(&prefix)).all(|(&c, v)| cmp_values(&r[c], v).is_eq())
        };
        let hits = scan(&eq);
        assert_eq!(
            ix.seek_eq(rows, &prefix),
            hits,
            "{step}: seek_eq {prefix:?}"
        );
        if p == width {
            let present = !hits.is_empty();
            assert_eq!(
                ix.contains_key(rows, &prefix),
                present,
                "{step}: contains_key {prefix:?}"
            );
            continue;
        }
        let mut bound = || {
            let value = key_value(rng, p);
            (!value.is_null() && rng.gen_bool(0.8)).then(|| SeekBound {
                value,
                inclusive: rng.gen_bool(0.5),
            })
        };
        let (lo, hi) = (bound(), bound());
        let within = |r: &[Value]| eq(r) && in_range(&r[ix.columns[p]], lo.as_ref(), hi.as_ref());
        let want = match (&lo, &hi) {
            (None, None) => hits,
            _ => scan(&within),
        };
        assert_eq!(
            ix.seek(rows, &prefix, lo.as_ref(), hi.as_ref()),
            want,
            "{step}: seek {prefix:?} from {lo:?} to {hi:?}"
        );
    }
}

fn run(seed: u64, columns: Vec<usize>) {
    let mut rng = SeededRng::new(seed);
    let mut ix = OrderedIndex::new(columns);
    let (mut rows, mut serial) = (Vec::new(), 0);
    for i in 0..150 {
        let step = match rng.gen_range(0, 10) {
            0..=3 => {
                let start = rows.len();
                let m = rng.gen_range(1, 40);
                rows.extend((0..m).map(|_| row(&mut rng, &mut serial)));
                assert_eq!(ix.insert_range(&rows, start), m as usize);
                "batch append"
            }
            4..=5 => {
                rows.push(row(&mut rng, &mut serial));
                assert_eq!(ix.insert_range(&rows, rows.len() - 1), 1);
                "one-row append"
            }
            6..=7 if !rows.is_empty() => {
                let k = rng.gen_range(0, ix.columns.len() as u64) as usize;
                for _ in 0..rng.gen_range(1, 6) {
                    let r = rng.gen_range(0, rows.len() as u64) as usize;
                    rows[r][ix.columns[k]] = key_value(&mut rng, k);
                }
                assert_eq!(ix.rebuild(&rows), rows.len());
                "re-keying update"
            }
            _ => {
                rows.retain(|_| rng.gen_bool(0.85));
                assert_eq!(ix.rebuild(&rows), rows.len());
                "delete"
            }
        };
        check(
            &ix,
            &rows,
            &mut rng,
            &format!("seed {seed} step {i} ({step})"),
        );
    }
}

#[test]
fn one_column_key_matches_a_scan() {
    for seed in 1..=4 {
        run(seed, vec![0]);
    }
}

#[test]
fn two_column_key_matches_a_scan() {
    for seed in 1..=4 {
        run(seed, vec![0, 1]);
    }
}

#[test]
fn key_in_reverse_column_order_matches_a_scan() {
    for seed in 1..=2 {
        run(seed, vec![1, 0]);
    }
}
