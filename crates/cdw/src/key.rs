//! Hashable/orderable wrappers for [`Value`] so rows can key hash maps
//! (uniqueness checks, GROUP BY) and sort (ORDER BY).

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

use etlv_protocol::data::Value;

/// A totally-ordered, hashable key over a tuple of values.
///
/// NULLs compare equal to each other and sort first; floats hash by bit
/// pattern (NaN never appears — the evaluator rejects NaN results).
#[derive(Debug, Clone, PartialEq)]
pub struct RowKey(pub Vec<Value>);

impl Eq for RowKey {}

impl Hash for RowKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in &self.0 {
            hash_value(v, state);
        }
    }
}

fn hash_value<H: Hasher>(v: &Value, state: &mut H) {
    match v {
        Value::Null => 0u8.hash(state),
        Value::Int(x) => {
            1u8.hash(state);
            x.hash(state);
        }
        Value::Float(f) => {
            2u8.hash(state);
            f.to_bits().hash(state);
        }
        Value::Decimal(d) => {
            // Normalize so 1.5 and 1.50 hash identically (they compare
            // equal): strip trailing zeros from the unscaled value.
            let (mut unscaled, mut scale) = (d.unscaled(), d.scale());
            while scale > 0 && unscaled % 10 == 0 {
                unscaled /= 10;
                scale -= 1;
            }
            3u8.hash(state);
            unscaled.hash(state);
            scale.hash(state);
        }
        Value::Str(s) => {
            4u8.hash(state);
            s.hash(state);
        }
        Value::Bytes(b) => {
            5u8.hash(state);
            b.hash(state);
        }
        Value::Date(d) => {
            6u8.hash(state);
            d.to_legacy_int().hash(state);
        }
        Value::Timestamp(ts) => {
            7u8.hash(state);
            ts.micros().hash(state);
        }
    }
}

/// Total order over values for ORDER BY: NULL first, then by type group,
/// numerics compared numerically across Int/Float/Decimal.
pub fn cmp_values(a: &Value, b: &Value) -> Ordering {
    use Value::*;
    match (a, b) {
        (Null, Null) => Ordering::Equal,
        (Null, _) => Ordering::Less,
        (_, Null) => Ordering::Greater,
        (Int(x), Int(y)) => x.cmp(y),
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
