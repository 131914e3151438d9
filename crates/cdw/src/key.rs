//! Hashable/orderable wrappers for [`Value`] so rows can key hash maps
//! (uniqueness checks, GROUP BY) and sort (ORDER BY).

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

use etlv_protocol::data::Value;

/// A hashable key over a tuple of values.
///
/// Two keys are equal when [`cmp_group_keys`] holds them equal, which is
/// when they hash alike: NULLs equal each other, values of two types never
/// do, floats are equal when their bits are and decimals when their
/// values are.
#[derive(Debug, Clone)]
pub struct RowKey(pub Vec<Value>);

impl PartialEq for RowKey {
    fn eq(&self, other: &RowKey) -> bool {
        cmp_group_keys(&self.0, &other.0).is_eq()
    }
}

impl Eq for RowKey {}

impl Hash for RowKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in &self.0 {
            hash_value(v, state);
        }
    }
}

fn hash_value<H: Hasher>(v: &Value, state: &mut H) {
    type_tag(v).hash(state);
    match v {
        Value::Null => {}
        Value::Int(x) => x.hash(state),
        Value::Float(f) => f.to_bits().hash(state),
        // `Decimal`'s hash normalizes, so 1.5 and 1.50 (equal) hash
        // identically.
        Value::Decimal(d) => d.hash(state),
        Value::Str(s) => s.hash(state),
        Value::Bytes(b) => b.hash(state),
        Value::Date(d) => d.to_legacy_int().hash(state),
        Value::Timestamp(ts) => ts.micros().hash(state),
    }
}

/// The order GROUP BY sorts its keys in, and [`RowKey`]'s equality. It is
/// not a value order: it holds two keys equal exactly when they hash
/// alike, so sorting and taking runs of equal keys finds the groups a
/// hash map of [`RowKey`]s does.
///
/// Values compare by type first, so an INTEGER 2 and a FLOAT 2.0 stay
/// two groups while NULLs group together; floats compare by the total
/// order of their bits, so -0.0 and 0.0 stay two groups, as their hashes
/// do; and decimals compare by their exact value.
pub fn cmp_group_keys(a: &[Value], b: &[Value]) -> Ordering {
    use Value::*;
    for (x, y) in a.iter().zip(b) {
        let ord = match (x, y) {
            (Int(x), Int(y)) => x.cmp(y),
            (Float(x), Float(y)) => x.total_cmp(y),
            (Decimal(x), Decimal(y)) => x.cmp(y),
            (Str(x), Str(y)) => x.cmp(y),
            (Bytes(x), Bytes(y)) => x.cmp(y),
            (Date(x), Date(y)) => x.cmp(y),
            (Timestamp(x), Timestamp(y)) => x.cmp(y),
            // NULLs, and values of two types.
            _ => type_tag(x).cmp(&type_tag(y)),
        };
        if ord.is_ne() {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

/// Each type apart, unlike [`type_rank`]: the tag a key hashes and
/// compares first.
fn type_tag(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Int(_) => 1,
        Value::Float(_) => 2,
        Value::Decimal(_) => 3,
        Value::Str(_) => 4,
        Value::Bytes(_) => 5,
        Value::Date(_) => 6,
        Value::Timestamp(_) => 7,
    }
}

/// Total order over values for ORDER BY: NULL first, then by type group,
/// numerics compared numerically across Int/Float/Decimal — exactly for
/// INTEGER and DECIMAL pairs, through `f64` when a FLOAT is involved.
pub fn cmp_values(a: &Value, b: &Value) -> Ordering {
    use Value::*;
    match (a, b) {
        (Null, Null) => Ordering::Equal,
        (Null, _) => Ordering::Less,
        (_, Null) => Ordering::Greater,
        (Int(x), Int(y)) => x.cmp(y),
        (Decimal(x), Decimal(y)) => x.cmp(y),
        (Int(x), Decimal(y)) => etlv_protocol::data::Decimal::from_i64(*x).cmp(y),
        (Decimal(x), Int(y)) => x.cmp(&etlv_protocol::data::Decimal::from_i64(*y)),
        (Int(_) | Float(_) | Decimal(_), Int(_) | Float(_) | Decimal(_)) => {
            let (xf, yf) = (num_f64(a), num_f64(b));
            xf.partial_cmp(&yf).unwrap_or(Ordering::Equal)
        }
        (Str(x), Str(y)) => x.cmp(y),
        (Bytes(x), Bytes(y)) => x.cmp(y),
        (Date(x), Date(y)) => x.cmp(y),
        (Timestamp(x), Timestamp(y)) => x.cmp(y),
        (Date(x), Timestamp(y)) => etlv_protocol::data::Timestamp::from_date(*x).cmp(y),
        (Timestamp(x), Date(y)) => x.cmp(&etlv_protocol::data::Timestamp::from_date(*y)),
        // Mixed incomparable types: order by type rank for determinism.
        _ => type_rank(a).cmp(&type_rank(b)),
    }
}

fn num_f64(v: &Value) -> f64 {
    match v {
        Value::Int(x) => *x as f64,
        Value::Float(f) => *f,
        Value::Decimal(d) => d.to_f64(),
        _ => f64::NAN,
    }
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Int(_) | Value::Float(_) | Value::Decimal(_) => 1,
        Value::Str(_) => 2,
        Value::Bytes(_) => 3,
        Value::Date(_) => 4,
        Value::Timestamp(_) => 5,
    }
}

/// Compare whole rows lexicographically.
pub fn cmp_rows(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        match cmp_values(x, y) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    a.len().cmp(&b.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlv_protocol::data::{Date, Decimal};
    use std::collections::HashMap;

    #[test]
    fn rowkey_hash_and_eq() {
        let mut map: HashMap<RowKey, u32> = HashMap::new();
        map.insert(RowKey(vec![Value::Int(1), Value::Str("a".into())]), 1);
        assert_eq!(
            map.get(&RowKey(vec![Value::Int(1), Value::Str("a".into())])),
            Some(&1)
        );
        assert_eq!(
            map.get(&RowKey(vec![Value::Int(2), Value::Str("a".into())])),
            None
        );
    }

    #[test]
    fn decimal_scale_normalized_in_hash() {
        let a = RowKey(vec![Value::Decimal(Decimal::parse("1.5").unwrap())]);
        let b = RowKey(vec![Value::Decimal(Decimal::parse("1.50").unwrap())]);
        assert_eq!(a, b);
        let mut map = HashMap::new();
        map.insert(a, ());
        assert!(map.contains_key(&b));
    }

    #[test]
    fn null_sorts_first() {
        assert_eq!(cmp_values(&Value::Null, &Value::Int(0)), Ordering::Less);
        assert_eq!(cmp_values(&Value::Null, &Value::Null), Ordering::Equal);
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(
            cmp_values(&Value::Int(2), &Value::Float(1.5)),
            Ordering::Greater
        );
        assert_eq!(
            cmp_values(
                &Value::Decimal(Decimal::parse("2.0").unwrap()),
                &Value::Int(2)
            ),
            Ordering::Equal
        );
    }

    #[test]
    fn date_ordering() {
        let d1 = Value::Date(Date::new(2020, 1, 1).unwrap());
        let d2 = Value::Date(Date::new(2020, 1, 2).unwrap());
        assert_eq!(cmp_values(&d1, &d2), Ordering::Less);
    }

    #[test]
    fn row_lexicographic() {
        let a = vec![Value::Int(1), Value::Str("b".into())];
        let b = vec![Value::Int(1), Value::Str("c".into())];
        assert_eq!(cmp_rows(&a, &b), Ordering::Less);
        assert_eq!(cmp_rows(&a, &a), Ordering::Equal);
    }
}
