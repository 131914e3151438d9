//! Scalar expression evaluation.
//!
//! Booleans are represented as `Value::Int(0/1)` with SQL three-valued
//! logic: comparisons involving NULL yield NULL, `AND`/`OR` follow Kleene
//! truth tables, and a NULL predicate result is treated as *false* by
//! filters ([`truthy`]).
//!
//! Data-dependent failures (a bad date, numeric overflow, a string too
//! long for its target type) are reported as [`CdwError::BulkAbort`] with
//! the [`Cause`] the failing site names — the error class that aborts a
//! whole set-oriented statement.

use etlv_protocol::data::{Date, DateFormat, Decimal, Value};
use etlv_protocol::errcode::Cause;
use etlv_sql::ast::{BinaryOp, Expr, Literal, ObjectName, UnaryOp};
use etlv_sql::SqlType;

use crate::error::CdwError;
use crate::key::cmp_values;

/// Resolves column references to values during evaluation.
pub trait Env {
    /// Resolve a (possibly qualified) column reference.
    fn resolve(&self, name: &ObjectName) -> Result<Value, CdwError>;
}

/// An environment with no columns (constant expressions only).
pub struct EmptyEnv;

impl Env for EmptyEnv {
    fn resolve(&self, name: &ObjectName) -> Result<Value, CdwError> {
        Err(CdwError::ColumnNotFound(name.dotted()))
    }
}

/// An abort for a value that does not convert ([`Cause::Value`]).
fn bad_value(message: impl Into<String>) -> CdwError {
    CdwError::abort(Cause::Value, message)
}

/// Whether a predicate result selects the row (NULL → false).
pub fn truthy(v: &Value) -> bool {
    match v {
        Value::Int(x) => *x != 0,
        Value::Null => false,
        _ => false,
    }
}

fn bool_val(b: bool) -> Value {
    Value::Int(b as i64)
}

/// Evaluate `expr` against `env`.
pub fn eval(expr: &Expr, env: &dyn Env) -> Result<Value, CdwError> {
    match expr {
        Expr::Literal(lit) => Ok(literal_value(lit)),
        Expr::Column(name) => env.resolve(name),
        Expr::Placeholder(name) => Err(CdwError::Unsupported(format!(
            "unbound placeholder :{name} (placeholders must be rewritten before execution)"
        ))),
        Expr::Wildcard => Err(CdwError::Unsupported(
            "'*' is only valid inside COUNT(*)".into(),
        )),
        Expr::Unary { op, expr } => {
            let v = eval(expr, env)?;
            apply_unary(*op, v)
        }
        Expr::Binary { left, op, right } => eval_binary(left, *op, right, env),
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, env)?;
            Ok(bool_val(v.is_null() != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, env)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval(item, env)?;
                if iv.is_null() {
                    saw_null = true;
                    continue;
                }
                if compare_eq(&v, &iv)? {
                    return Ok(bool_val(!*negated));
                }
            }
            if saw_null {
                return Ok(Value::Null);
            }
            Ok(bool_val(*negated))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, env)?;
            let lo = eval(low, env)?;
            let hi = eval(high, env)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(Value::Null);
            }
            let inside = compare_ord(&lo, &v)? != std::cmp::Ordering::Greater
                && compare_ord(&v, &hi)? != std::cmp::Ordering::Greater;
            Ok(bool_val(inside != *negated))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, env)?;
            let p = eval(pattern, env)?;
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            let (Value::Str(s), Value::Str(pat)) = (&v, &p) else {
                return Err(bad_value(format!(
                    "LIKE requires strings, got {} LIKE {}",
                    v.type_name(),
                    p.type_name()
                )));
            };
            Ok(bool_val(like_match(s, pat) != *negated))
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            let op_val = operand.as_ref().map(|e| eval(e, env)).transpose()?;
            for (when, then) in branches {
                let hit = match &op_val {
                    Some(ov) => {
                        let wv = eval(when, env)?;
                        !ov.is_null() && !wv.is_null() && compare_eq(ov, &wv)?
                    }
                    None => truthy(&eval(when, env)?),
                };
                if hit {
                    return eval(then, env);
                }
            }
            match else_expr {
                Some(e) => eval(e, env),
                None => Ok(Value::Null),
            }
        }
        Expr::Function { name, args, .. } => eval_function(name, args, env),
        Expr::Cast { expr, ty, format } => {
            let v = eval(expr, env)?;
            cast_value(v, *ty, format.as_deref())
        }
    }
}

/// Materialize a literal.
pub fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Null => Value::Null,
        Literal::Integer(v) => Value::Int(*v),
        Literal::Decimal(d) => Value::Decimal(*d),
        Literal::Float(f) => Value::Float(*f),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Date(d) => Value::Date(*d),
    }
}

/// Apply a unary operator to an already-evaluated value.
fn apply_unary(op: UnaryOp, v: Value) -> Result<Value, CdwError> {
    match op {
        UnaryOp::Neg => negate(v),
        UnaryOp::Not => Ok(match v {
            Value::Null => Value::Null,
            other => bool_val(!truthy(&other)),
        }),
    }
}

fn negate(v: Value) -> Result<Value, CdwError> {
    Ok(match v {
        Value::Null => Value::Null,
        Value::Int(x) => Value::Int(
            x.checked_neg()
                .ok_or_else(|| CdwError::abort(Cause::Overflow, "integer overflow in negation"))?,
        ),
        Value::Float(f) => Value::Float(-f),
        Value::Decimal(d) => Value::Decimal(Decimal::new(-d.unscaled(), d.scale())),
        other => return Err(bad_value(format!("cannot negate {}", other.type_name()))),
    })
}

fn eval_binary(left: &Expr, op: BinaryOp, right: &Expr, env: &dyn Env) -> Result<Value, CdwError> {
    let l = eval(left, env)?;
    let r = eval(right, env)?;
    apply_binary(l, op, r)
}

/// Apply a binary operator to two already-evaluated values. Both operands
/// are always evaluated first (AND/OR are eager with Kleene tables), which
/// is what lets aggregate evaluation apply it to computed values.
pub(crate) fn apply_binary(l: Value, op: BinaryOp, r: Value) -> Result<Value, CdwError> {
    // AND/OR need lazy-ish three-valued handling.
    if matches!(op, BinaryOp::And | BinaryOp::Or) {
        let lt = if l.is_null() { None } else { Some(truthy(&l)) };
        let rt = if r.is_null() { None } else { Some(truthy(&r)) };
        return Ok(match op {
            BinaryOp::And => match (lt, rt) {
                (Some(false), _) | (_, Some(false)) => bool_val(false),
                (Some(true), Some(true)) => bool_val(true),
                _ => Value::Null,
            },
            BinaryOp::Or => match (lt, rt) {
                (Some(true), _) | (_, Some(true)) => bool_val(true),
                (Some(false), Some(false)) => bool_val(false),
                _ => Value::Null,
            },
            _ => unreachable!(),
        });
    }

    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            arith(l, op, r)
        }
        BinaryOp::Concat => {
            let ls = l.display_text();
            let rs = r.display_text();
            Ok(Value::Str(format!("{ls}{rs}")))
        }
        BinaryOp::Eq => Ok(bool_val(compare_eq(&l, &r)?)),
        BinaryOp::NotEq => Ok(bool_val(!compare_eq(&l, &r)?)),
        BinaryOp::Lt => Ok(bool_val(compare_ord(&l, &r)? == std::cmp::Ordering::Less)),
        BinaryOp::LtEq => Ok(bool_val(
            compare_ord(&l, &r)? != std::cmp::Ordering::Greater,
        )),
        BinaryOp::Gt => Ok(bool_val(
            compare_ord(&l, &r)? == std::cmp::Ordering::Greater,
        )),
        BinaryOp::GtEq => Ok(bool_val(compare_ord(&l, &r)? != std::cmp::Ordering::Less)),
        BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
    }
}

fn arith(l: Value, op: BinaryOp, r: Value) -> Result<Value, CdwError> {
    use Value::*;
    // Date arithmetic: DATE ± days, DATE - DATE.
    match (&l, op, &r) {
        (Date(d), BinaryOp::Add, Int(n)) | (Int(n), BinaryOp::Add, Date(d)) => {
            return Ok(Value::Date(d.add_days(*n)?));
        }
        (Date(d), BinaryOp::Sub, Int(n)) => {
            return Ok(Value::Date(d.add_days(-*n)?));
        }
        (Date(a), BinaryOp::Sub, Date(b)) => {
            return Ok(Value::Int(a.to_ordinal() - b.to_ordinal()));
        }
        _ => {}
    }
    let msg = |l: &Value, r: &Value| {
        bad_value(format!(
            "cannot apply arithmetic to {} and {}",
            l.type_name(),
            r.type_name()
        ))
    };
    // Numeric tower: Float > Decimal > Int. Strings coerce to numbers
    // (legacy implicit cast).
    let ln = to_numeric(&l).ok_or_else(|| msg(&l, &r))?;
    let rn = to_numeric(&r).ok_or_else(|| msg(&l, &r))?;
    let has_float = matches!(ln, Num::Float(_)) || matches!(rn, Num::Float(_));
    let has_dec = matches!(ln, Num::Dec(_)) || matches!(rn, Num::Dec(_));
    Ok(if has_float {
        let (a_f, b_f) = (ln.as_f64(), rn.as_f64());
        let res = match op {
            BinaryOp::Add => a_f + b_f,
            BinaryOp::Sub => a_f - b_f,
            BinaryOp::Mul => a_f * b_f,
            BinaryOp::Div => {
                if b_f == 0.0 {
                    return Err(bad_value("division by zero"));
                }
                a_f / b_f
            }
            BinaryOp::Mod => {
                if b_f == 0.0 {
                    return Err(bad_value("division by zero"));
                }
                a_f % b_f
            }
            _ => unreachable!(),
        };
        if !res.is_finite() {
            return Err(CdwError::abort(Cause::Overflow, "floating-point overflow"));
        }
        Value::Float(res)
    } else if has_dec {
        let (a_d, b_d) = (ln.as_dec()?, rn.as_dec()?);
        match op {
            BinaryOp::Add => Value::Decimal(a_d.checked_add(b_d)?),
            BinaryOp::Sub => Value::Decimal(a_d.checked_sub(b_d)?),
            BinaryOp::Mul => Value::Decimal(a_d.checked_mul(b_d)?),
            BinaryOp::Div | BinaryOp::Mod => {
                let (af, bf) = (a_d.to_f64(), b_d.to_f64());
                if bf == 0.0 {
                    return Err(bad_value("division by zero"));
                }
                Value::Float(if op == BinaryOp::Div {
                    af / bf
                } else {
                    af % bf
                })
            }
            _ => unreachable!(),
        }
    } else {
        let (Num::Int(a), Num::Int(b)) = (ln, rn) else {
            unreachable!("non-int cases handled above")
        };
        match op {
            BinaryOp::Add => Value::Int(
                a.checked_add(b)
                    .ok_or_else(|| CdwError::abort(Cause::Overflow, "integer overflow"))?,
            ),
            BinaryOp::Sub => Value::Int(
                a.checked_sub(b)
                    .ok_or_else(|| CdwError::abort(Cause::Overflow, "integer overflow"))?,
            ),
            BinaryOp::Mul => Value::Int(
                a.checked_mul(b)
                    .ok_or_else(|| CdwError::abort(Cause::Overflow, "integer overflow"))?,
            ),
            BinaryOp::Div => {
                if b == 0 {
                    return Err(bad_value("division by zero"));
                }
                Value::Int(a / b)
            }
            BinaryOp::Mod => {
                if b == 0 {
                    return Err(bad_value("division by zero"));
                }
                Value::Int(a % b)
            }
            _ => unreachable!(),
        }
    })
}

#[derive(Clone, Copy)]
enum Num {
    Int(i64),
    Dec(Decimal),
    Float(f64),
}

impl Num {
    fn as_f64(self) -> f64 {
        match self {
            Num::Int(v) => v as f64,
            Num::Dec(d) => d.to_f64(),
            Num::Float(f) => f,
        }
    }

    fn as_dec(self) -> Result<Decimal, CdwError> {
        match self {
            Num::Int(v) => Ok(Decimal::from_i64(v)),
            Num::Dec(d) => Ok(d),
            Num::Float(f) => Ok(Decimal::parse(&format!("{f}"))?),
        }
    }
}

/// Parse a string the way implicit numeric coercion does (trim, then
/// i64 → Decimal → f64), yielding the Value the comparison machinery would
/// compare against. The planner uses this to normalize index probes so a
/// seek matches exactly the rows [`compare_eq`] would.
pub(crate) fn numeric_value_of_str(s: &str) -> Option<Value> {
    to_numeric(&Value::Str(s.to_string())).map(|n| match n {
        Num::Int(v) => Value::Int(v),
        Num::Dec(d) => Value::Decimal(d),
        Num::Float(f) => Value::Float(f),
    })
}

fn to_numeric(v: &Value) -> Option<Num> {
    match v {
        Value::Int(x) => Some(Num::Int(*x)),
        Value::Float(f) => Some(Num::Float(*f)),
        Value::Decimal(d) => Some(Num::Dec(*d)),
        Value::Str(s) => {
            let t = s.trim();
            if let Ok(i) = t.parse::<i64>() {
                Some(Num::Int(i))
            } else if let Ok(d) = Decimal::parse(t) {
                Some(Num::Dec(d))
            } else {
                t.parse::<f64>().ok().map(Num::Float)
            }
        }
        _ => None,
    }
}

/// Equality with implicit cross-type coercion (numbers vs numeric strings,
/// dates vs ISO strings). Errors when the types are genuinely
/// incomparable or a string fails to convert.
pub fn compare_eq(l: &Value, r: &Value) -> Result<bool, CdwError> {
    Ok(compare_ord(l, r)? == std::cmp::Ordering::Equal)
}

/// Ordering with implicit coercion (see [`compare_eq`]).
pub fn compare_ord(l: &Value, r: &Value) -> Result<std::cmp::Ordering, CdwError> {
    use Value::*;
    let coerced: Option<(Value, Value)> = match (l, r) {
        // Same families: direct.
        (Int(_) | Float(_) | Decimal(_), Int(_) | Float(_) | Decimal(_))
        | (Str(_), Str(_))
        | (Date(_), Date(_))
        | (Timestamp(_), Timestamp(_))
        | (Date(_), Timestamp(_))
        | (Timestamp(_), Date(_))
        | (Bytes(_), Bytes(_)) => None,
        // Numeric vs string: parse the string.
        (Int(_) | Float(_) | Decimal(_), Str(s)) => {
            let n = to_numeric(&Str(s.clone()))
                .ok_or_else(|| bad_value(format!("'{s}' is not numeric")))?;
            Some((
                l.clone(),
                match n {
                    Num::Int(v) => Int(v),
                    Num::Dec(d) => Decimal(d),
                    Num::Float(f) => Float(f),
                },
            ))
        }
        (Str(_), Int(_) | Float(_) | Decimal(_)) => {
            let swapped = compare_ord(r, l)?;
            return Ok(swapped.reverse());
        }
        // Date vs ISO string.
        (Date(_), Str(s)) => {
            let d = crate::eval::parse_iso_date(s)?;
            Some((l.clone(), Date(d)))
        }
        (Str(_), Date(_)) => {
            let swapped = compare_ord(r, l)?;
            return Ok(swapped.reverse());
        }
        _ => {
            return Err(bad_value(format!(
                "cannot compare {} with {}",
                l.type_name(),
                r.type_name()
            )))
        }
    };
    Ok(match &coerced {
        Some((a, b)) => cmp_values(a, b),
        None => cmp_values(l, r),
    })
}

pub(crate) fn parse_iso_date(s: &str) -> Result<Date, CdwError> {
    Ok(Date::parse_iso(s)?)
}

/// `%`/`_` pattern matching for LIKE.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => s.is_empty(),
            Some(('%', rest)) => {
                for i in 0..=s.len() {
                    if rec(&s[i..], rest) {
                        return true;
                    }
                }
                false
            }
            Some(('_', rest)) => !s.is_empty() && rec(&s[1..], rest),
            Some((c, rest)) => s.first() == Some(c) && rec(&s[1..], rest),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

fn eval_function(name: &str, args: &[Expr], env: &dyn Env) -> Result<Value, CdwError> {
    let argv = |i: usize| -> Result<Value, CdwError> { eval(&args[i], env) };
    let need = |n: usize| -> Result<(), CdwError> {
        if args.len() != n {
            Err(CdwError::Eval(format!(
                "{name} expects {n} argument(s), got {}",
                args.len()
            )))
        } else {
            Ok(())
        }
    };
    match name {
        "TRIM" | "LTRIM" | "RTRIM" | "UPPER" | "LOWER" => {
            need(1)?;
            let v = argv(0)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut s = match v {
                Value::Str(s) => s,
                other => other.display_text(),
            };
            // The trims cut the argument in place: nothing is allocated.
            if matches!(name, "TRIM" | "RTRIM") {
                s.truncate(s.trim_end().len());
            }
            if matches!(name, "TRIM" | "LTRIM") {
                s.drain(..s.len() - s.trim_start().len());
            }
            Ok(Value::Str(match name {
                "UPPER" => s.to_uppercase(),
                "LOWER" => s.to_lowercase(),
                _ => s,
            }))
        }
        "LENGTH" | "CHAR_LENGTH" | "CHARACTER_LENGTH" => {
            need(1)?;
            let v = argv(0)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Int(v.display_text().chars().count() as i64))
        }
        "SUBSTR" | "SUBSTRING" => {
            if args.len() != 2 && args.len() != 3 {
                return Err(CdwError::Eval(format!(
                    "{name} expects 2 or 3 arguments, got {}",
                    args.len()
                )));
            }
            let v = argv(0)?;
            let start = argv(1)?;
            if v.is_null() || start.is_null() {
                return Ok(Value::Null);
            }
            let s = v.display_text();
            let chars: Vec<char> = s.chars().collect();
            let Value::Int(start) = start.coerce_to(etlv_protocol::data::LegacyType::BigInt)?
            else {
                unreachable!()
            };
            // SQL SUBSTR is 1-based; 0 and negatives clamp.
            let begin = (start.max(1) - 1) as usize;
            let len = if args.len() == 3 {
                let lv = argv(2)?;
                if lv.is_null() {
                    return Ok(Value::Null);
                }
                match lv {
                    Value::Int(n) if n >= 0 => n as usize,
                    Value::Int(_) => 0,
                    other => {
                        return Err(CdwError::abort(
                            Cause::Length,
                            format!("SUBSTR length must be integer, got {}", other.type_name()),
                        ))
                    }
                }
            } else {
                usize::MAX
            };
            let out: String = chars.iter().skip(begin).take(len).collect();
            Ok(Value::Str(out))
        }
        "COALESCE" => {
            for a in args {
                let v = eval(a, env)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        "NULLIF" => {
            need(2)?;
            let a = argv(0)?;
            let b = argv(1)?;
            if !a.is_null() && !b.is_null() && compare_eq(&a, &b)? {
                Ok(Value::Null)
            } else {
                Ok(a)
            }
        }
        "ZEROIFNULL" => {
            need(1)?;
            let v = argv(0)?;
            Ok(if v.is_null() { Value::Int(0) } else { v })
        }
        "NULLIFZERO" => {
            need(1)?;
            let v = argv(0)?;
            match &v {
                Value::Int(0) => Ok(Value::Null),
                _ => Ok(v),
            }
        }
        "ABS" => {
            need(1)?;
            let v = argv(0)?;
            Ok(match v {
                Value::Null => Value::Null,
                Value::Int(x) => Value::Int(x.abs()),
                Value::Float(f) => Value::Float(f.abs()),
                Value::Decimal(d) => Value::Decimal(Decimal::new(d.unscaled().abs(), d.scale())),
                other => return Err(bad_value(format!("ABS of {}", other.type_name()))),
            })
        }
        "TO_DATE" => {
            need(2)?;
            let v = argv(0)?;
            let f = argv(1)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let Value::Str(fmt) = f else {
                return Err(CdwError::Eval("TO_DATE format must be a string".into()));
            };
            cast_value(v, SqlType::Date, Some(&fmt))
        }
        "TO_CHAR" => {
            need(2)?;
            let v = argv(0)?;
            let f = argv(1)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let Value::Str(fmt) = f else {
                return Err(CdwError::Eval("TO_CHAR format must be a string".into()));
            };
            match v {
                Value::Date(d) => {
                    let df = DateFormat::parse_pattern(&fmt)?;
                    Ok(Value::Str(df.format(d)))
                }
                other => Ok(Value::Str(other.display_text())),
            }
        }
        other => Err(CdwError::Unsupported(format!("function {other}"))),
    }
}

/// CAST implementation, including legacy FORMAT-pattern casts.
pub fn cast_value(v: Value, ty: SqlType, format: Option<&str>) -> Result<Value, CdwError> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    if let Some(fmt) = format {
        let df = DateFormat::parse_pattern(fmt)?;
        if ty == SqlType::Date {
            // A string's text is parsed where it lies.
            let date = match &v {
                Value::Str(s) => df.parse(s)?,
                other => df.parse(&other.display_text())?,
            };
            return Ok(Value::Date(date));
        }
        if ty.is_character() {
            if let Value::Date(d) = v {
                return Ok(Value::Str(df.format(d)).coerce_to(ty.to_legacy())?);
            }
        }
        // FORMAT on other types: fall through to a plain cast.
    }
    Ok(v.coerce_to(ty.to_legacy())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlv_sql::parser::parse_statement;
    use etlv_sql::{Dialect, Stmt};

    fn eval_sql(expr_sql: &str) -> Result<Value, CdwError> {
        let stmt = parse_statement(&format!("SELECT {expr_sql}"), Dialect::Legacy).unwrap();
        let Stmt::Select(sel) = stmt else { panic!() };
        let etlv_sql::ast::SelectItem::Expr { expr, .. } = &sel.projection[0] else {
            panic!()
        };
        eval(expr, &EmptyEnv)
    }

    fn v(expr_sql: &str) -> Value {
        eval_sql(expr_sql).unwrap()
    }

    #[test]
    fn arithmetic_tower() {
        assert_eq!(v("1 + 2 * 3"), Value::Int(7));
        assert_eq!(v("7 / 2"), Value::Int(3)); // integer division
        assert_eq!(v("7.5 + 1"), Value::Decimal(Decimal::parse("8.5").unwrap()));
        assert_eq!(v("1e1 + 1"), Value::Float(11.0));
        assert_eq!(v("10 MOD 3"), Value::Int(1));
        assert!(eval_sql("1 / 0").is_err());
        assert!(eval_sql("9223372036854775807 + 1").is_err());
    }

    #[test]
    fn null_propagation() {
        assert_eq!(v("NULL + 1"), Value::Null);
        assert_eq!(v("NULL = NULL"), Value::Null);
        assert_eq!(v("1 = NULL"), Value::Null);
        assert_eq!(v("NULL IS NULL"), Value::Int(1));
        assert_eq!(v("NULL IS NOT NULL"), Value::Int(0));
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(v("(1 = 1) AND (NULL = 1)"), Value::Null);
        assert_eq!(v("(1 = 2) AND (NULL = 1)"), Value::Int(0));
        assert_eq!(v("(1 = 1) OR (NULL = 1)"), Value::Int(1));
        assert_eq!(v("(1 = 2) OR (NULL = 1)"), Value::Null);
        assert_eq!(v("NOT (1 = 2)"), Value::Int(1));
        assert_eq!(v("NOT (NULL = 1)"), Value::Null);
    }

    #[test]
    fn comparisons_with_coercion() {
        assert_eq!(v("'10' > 9"), Value::Int(1));
        assert_eq!(v("2 = '2'"), Value::Int(1));
        assert_eq!(v("DATE '2020-01-02' > '2020-01-01'"), Value::Int(1));
        assert!(eval_sql("'abc' > 1").is_err());
    }

    #[test]
    fn string_functions() {
        assert_eq!(v("TRIM('  hi  ')"), Value::Str("hi".into()));
        assert_eq!(v("UPPER('aBc')"), Value::Str("ABC".into()));
        assert_eq!(v("SUBSTR('hello', 2, 3)"), Value::Str("ell".into()));
        assert_eq!(v("SUBSTR('hello', 2)"), Value::Str("ello".into()));
        assert_eq!(v("LENGTH('héllo')"), Value::Int(5));
        assert_eq!(v("'a' || 'b' || 3"), Value::Str("ab3".into()));
        assert_eq!(v("TRIM(NULL)"), Value::Null);
    }

    #[test]
    fn null_handling_functions() {
        assert_eq!(v("COALESCE(NULL, NULL, 3)"), Value::Int(3));
        assert_eq!(v("COALESCE(NULL, NULL)"), Value::Null);
        assert_eq!(v("NULLIF(1, 1)"), Value::Null);
        assert_eq!(v("NULLIF(1, 2)"), Value::Int(1));
        assert_eq!(v("ZEROIFNULL(NULL)"), Value::Int(0));
        assert_eq!(v("NULLIFZERO(0)"), Value::Null);
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%o"));
        assert!(like_match("hello", "_ello"));
        assert!(!like_match("hello", "h_o"));
        assert!(like_match("", "%"));
        assert!(!like_match("x", ""));
        assert_eq!(v("'abc' LIKE 'a%'"), Value::Int(1));
        assert_eq!(v("'abc' NOT LIKE 'a%'"), Value::Int(0));
    }

    #[test]
    fn case_expressions() {
        assert_eq!(
            v("CASE WHEN 1 = 2 THEN 'a' WHEN 2 = 2 THEN 'b' ELSE 'c' END"),
            Value::Str("b".into())
        );
        assert_eq!(v("CASE 5 WHEN 4 THEN 'x' END"), Value::Null);
        assert_eq!(v("CASE 5 WHEN 5 THEN 'x' END"), Value::Str("x".into()));
    }

    #[test]
    fn format_cast_parses_dates() {
        assert_eq!(
            v("CAST('2012-01-01' AS DATE FORMAT 'YYYY-MM-DD')"),
            Value::Date(Date::new(2012, 1, 1).unwrap())
        );
        // The Figure 5 failure mode: garbage text in a date cast.
        let err = eval_sql("CAST('xxxx' AS DATE FORMAT 'YYYY-MM-DD')").unwrap_err();
        assert!(err.is_bulk_abort());
    }

    #[test]
    fn to_date_to_char() {
        assert_eq!(
            v("TO_DATE('31/12/1999', 'DD/MM/YYYY')"),
            Value::Date(Date::new(1999, 12, 31).unwrap())
        );
        assert_eq!(
            v("TO_CHAR(DATE '2012-12-01', 'MM/DD/YY')"),
            Value::Str("12/01/12".into())
        );
    }

    #[test]
    fn between_and_in() {
        assert_eq!(v("5 BETWEEN 1 AND 9"), Value::Int(1));
        assert_eq!(v("5 NOT BETWEEN 1 AND 9"), Value::Int(0));
        assert_eq!(v("5 BETWEEN 6 AND 9"), Value::Int(0));
        assert_eq!(v("3 IN (1, 2, 3)"), Value::Int(1));
        assert_eq!(v("4 IN (1, 2, 3)"), Value::Int(0));
        assert_eq!(v("4 IN (1, NULL)"), Value::Null);
        assert_eq!(v("1 IN (1, NULL)"), Value::Int(1));
        assert_eq!(v("NULL IN (1)"), Value::Null);
    }

    #[test]
    fn date_arithmetic() {
        assert_eq!(
            v("DATE '2020-02-28' + 1"),
            Value::Date(Date::new(2020, 2, 29).unwrap())
        );
        assert_eq!(v("DATE '2020-03-01' - DATE '2020-02-28'"), Value::Int(2));
    }

    #[test]
    fn cast_string_lengths_checked() {
        assert!(eval_sql("CAST('toolong' AS VARCHAR(3))").is_err());
        assert_eq!(v("CAST('ab' AS CHAR(4))"), Value::Str("ab  ".into()));
        assert_eq!(v("CAST('123' AS INTEGER)"), Value::Int(123));
        assert!(eval_sql("CAST('12x' AS INTEGER)").is_err());
    }

    #[test]
    fn placeholders_rejected_at_eval() {
        let r = eval_sql(":FIELD");
        assert!(matches!(r, Err(CdwError::Unsupported(_))));
    }
}
