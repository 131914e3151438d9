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
/// numerics compared exactly across Int/Float/Decimal (a NaN FLOAT after
/// every number, -0.0 equal to 0.0).
pub fn cmp_values(a: &Value, b: &Value) -> Ordering {
    use etlv_protocol::data::Decimal as D;
    use Value::*;
    match (a, b) {
        (Null, Null) => Ordering::Equal,
        (Null, _) => Ordering::Less,
        (_, Null) => Ordering::Greater,
        (Int(x), Int(y)) => x.cmp(y),
        (Decimal(x), Decimal(y)) => x.cmp(y),
        (Int(x), Decimal(y)) => D::from_i64(*x).cmp(y),
        (Decimal(x), Int(y)) => x.cmp(&D::from_i64(*y)),
        (Float(x), Float(y)) => x
            .partial_cmp(y)
            .unwrap_or_else(|| x.is_nan().cmp(&y.is_nan())),
        (Float(x), Int(y)) => cmp_float_decimal(*x, D::from_i64(*y)),
        (Float(x), Decimal(y)) => cmp_float_decimal(*x, *y),
        (Int(_) | Decimal(_), Float(_)) => cmp_values(b, a).reverse(),
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

/// Order a FLOAT against a decimal exactly: a negative float as its
/// magnitude against the decimal's negation, reversed; else integer parts
/// first (each floored, so both fractions are non-negative), then the
/// fractions. The float's fraction is `m / 2^k` with `m < 2^53`, the
/// decimal's `n / 10^s`; they compare as `floor(m * 10^s / 2^k)` against
/// `n`, a non-zero remainder breaking a tie upwards. `m * 10^s` fits in
/// 192 bits.
fn cmp_float_decimal(f: f64, d: etlv_protocol::data::Decimal) -> Ordering {
    const TWO_127: f64 = (1u128 << 127) as f64;
    if f < 0.0 {
        let neg = etlv_protocol::data::Decimal::new(-d.unscaled(), d.scale());
        return cmp_float_decimal(-f, neg).reverse();
    }
    let floor = f.floor();
    // A decimal's magnitude stays below 2^127 (its unscaled `i128`).
    if f.is_nan() || floor >= TWO_127 {
        return Ordering::Greater;
    }
    let ten_s = 10i128.pow(d.scale() as u32) as u128;
    let by_int = (floor as i128).cmp(&d.unscaled().div_euclid(ten_s as i128));
    if by_int.is_ne() {
        return by_int;
    }
    // For `f >= 0`, `f - floor` drops only bits `f` holds, so it is exact,
    // in [0, 1): a subnormal or normal float.
    let bits = (f - floor).to_bits();
    let (exp, mantissa) = ((bits >> 52) as u32, (bits & ((1 << 52) - 1)) as u128);
    let (m, k) = match exp {
        0 => (mantissa, 1074),
        _ => (mantissa | 1 << 52, 1075 - exp),
    };
    // m * 10^s as three 64-bit limbs, least significant first.
    let (lo, hi) = (m * (ten_s as u64 as u128), m * (ten_s >> 64));
    let mid = (lo >> 64) + (hi as u64 as u128);
    let limbs = [lo as u64, mid as u64, ((hi >> 64) + (mid >> 64)) as u64];
    let bit = |i: u32| i < 192 && limbs[i as usize / 64] >> (i % 64) & 1 == 1;
    let quotient = (k..192).rev().fold(0u128, |q, i| q << 1 | bit(i) as u128);
    let remainder = (0..k.min(192)).any(bit);
    let n = d.unscaled().rem_euclid(ten_s as i128) as u128;
    quotient.cmp(&n).then(remainder.cmp(&false))
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
    fn floats_compare_exactly_with_integers_and_decimals() {
        use Ordering::*;
        let dec = |s: &str| Value::Decimal(Decimal::parse(s).unwrap());
        let two53 = 9007199254740992.0;
        let cases = [
            (Value::Float(two53), Value::Int(9007199254740993), Less),
            (Value::Float(two53), Value::Int(9007199254740992), Equal),
            (Value::Float(two53), dec("9007199254740992.5"), Less),
            (Value::Float(two53), dec("9007199254740991.999999"), Greater),
            (Value::Float(0.1), dec("0.1"), Greater),
            (
                Value::Float(0.1),
                dec("0.1000000000000000055511151231257828"),
                Less,
            ),
            (Value::Float(0.5), dec("0.50"), Equal),
            (Value::Float(-0.5), dec("-0.5"), Equal),
            (Value::Float(-0.5), Value::Int(-1), Greater),
            (Value::Float(-0.0), Value::Int(0), Equal),
            (Value::Float(1e-300), Value::Int(0), Greater),
            (Value::Float(-1e-300), dec("0.000"), Less),
            (Value::Float(-0.1), dec("-0.1"), Less),
            (Value::Float(-0.1), dec("-0.09999999999999998"), Less),
            (
                Value::Float(-0.1),
                dec("-0.1000000000000000055511151231257828"),
                Greater,
            ),
            (Value::Float(-2.75), dec("-2.75"), Equal),
            (Value::Float(-2.75), Value::Int(-3), Greater),
            (Value::Float(1e39), dec(&"9".repeat(38)), Greater),
            (Value::Float(-1e39), Value::Int(i64::MIN), Less),
            (Value::Float(f64::NAN), Value::Int(i64::MAX), Greater),
            (Value::Float(f64::NAN), Value::Float(f64::INFINITY), Greater),
            (Value::Float(f64::NAN), Value::Float(f64::NAN), Equal),
        ];
        for (a, b, want) in cases {
            assert_eq!(cmp_values(&a, &b), want, "{a:?} vs {b:?}");
            assert_eq!(cmp_values(&b, &a), want.reverse(), "{b:?} vs {a:?}");
        }
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
