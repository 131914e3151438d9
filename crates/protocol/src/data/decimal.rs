//! Fixed-point decimals (`DECIMAL(p,s)`), stored as a scaled `i128`.
//!
//! The legacy system supports precision up to 38 digits; we store the
//! unscaled integer in an `i128`, which covers the full range.

use std::cmp::Ordering;
use std::fmt;

use crate::errcode::Cause;

/// Maximum supported precision (total digits).
pub const MAX_PRECISION: u8 = 38;

/// Error raised by decimal parsing or arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecimalError {
    /// [`Cause::Overflow`] when the value does not fit, else
    /// [`Cause::Value`].
    pub cause: Cause,
    /// Human-readable description of the failure.
    pub reason: String,
}

impl fmt::Display for DecimalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decimal error: {}", self.reason)
    }
}

impl std::error::Error for DecimalError {}

fn err(cause: Cause, reason: impl Into<String>) -> DecimalError {
    DecimalError {
        cause,
        reason: reason.into(),
    }
}

/// A fixed-point decimal value: `unscaled * 10^-scale`.
#[derive(Debug, Clone, Copy, Eq)]
pub struct Decimal {
    unscaled: i128,
    scale: u8,
}

impl std::hash::Hash for Decimal {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Equality ignores trailing zeros (1.50 == 1.5), so hashing must
        // too: hash the normalized form.
        let (mut unscaled, mut scale) = (self.unscaled, self.scale);
        while scale > 0 && unscaled % 10 == 0 {
            unscaled /= 10;
            scale -= 1;
        }
        unscaled.hash(state);
        scale.hash(state);
    }
}

fn pow10(n: u8) -> i128 {
    10i128.pow(n as u32)
}

impl Decimal {
    /// Construct from an unscaled integer and a scale.
    pub fn new(unscaled: i128, scale: u8) -> Decimal {
        Decimal { unscaled, scale }
    }

    /// The unscaled integer.
    pub fn unscaled(self) -> i128 {
        self.unscaled
    }

    /// The scale (digits after the decimal point).
    pub fn scale(self) -> u8 {
        self.scale
    }

    /// Zero with the given scale.
    pub fn zero(scale: u8) -> Decimal {
        Decimal { unscaled: 0, scale }
    }

    /// Construct from an integer value (scale 0).
    pub fn from_i64(v: i64) -> Decimal {
        Decimal {
            unscaled: v as i128,
            scale: 0,
        }
    }

    /// Parse decimal text such as `-12.345` or `7`.
    pub fn parse(s: &str) -> Result<Decimal, DecimalError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(err(Cause::Value, "empty string"));
        }
        let (neg, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        let (int_part, frac_part) = match digits.split_once('.') {
            Some((i, f)) => (i, f),
            None => (digits, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(err(Cause::Value, format!("'{s}' has no digits")));
        }
        if !int_part.chars().all(|c| c.is_ascii_digit())
            || !frac_part.chars().all(|c| c.is_ascii_digit())
        {
            return Err(err(
                Cause::Value,
                format!("'{s}' contains non-digit characters"),
            ));
        }
        if int_part.len() + frac_part.len() > MAX_PRECISION as usize + 1 {
            return Err(err(
                Cause::Overflow,
                format!("'{s}' exceeds max precision {MAX_PRECISION}"),
            ));
        }
        let mut unscaled: i128 = 0;
        for c in int_part.chars().chain(frac_part.chars()) {
            unscaled = unscaled
                .checked_mul(10)
                .and_then(|v| v.checked_add((c as u8 - b'0') as i128))
                .ok_or_else(|| err(Cause::Overflow, "overflow"))?;
        }
        if neg {
            unscaled = -unscaled;
        }
        Ok(Decimal {
            unscaled,
            scale: frac_part.len() as u8,
        })
    }

    /// Change the scale, rounding half away from zero when reducing it.
    /// Fails if the result would exceed [`MAX_PRECISION`] digits.
    pub fn rescale(self, new_scale: u8) -> Result<Decimal, DecimalError> {
        match new_scale.cmp(&self.scale) {
            Ordering::Equal => Ok(self),
            Ordering::Greater => {
                let factor = pow10(new_scale - self.scale);
                let unscaled = self
                    .unscaled
                    .checked_mul(factor)
                    .ok_or_else(|| err(Cause::Overflow, "rescale overflow"))?;
                if count_digits(unscaled) > MAX_PRECISION {
                    return Err(err(Cause::Overflow, "rescale exceeds max precision"));
                }
                Ok(Decimal {
                    unscaled,
                    scale: new_scale,
                })
            }
            Ordering::Less => {
                let factor = pow10(self.scale - new_scale);
                let q = self.unscaled / factor;
                let r = self.unscaled % factor;
                let half = factor / 2;
                let rounded = if r.abs() >= half {
                    q + self.unscaled.signum()
                } else {
                    q
                };
                Ok(Decimal {
                    unscaled: rounded,
                    scale: new_scale,
                })
            }
        }
    }

    /// Whether the value fits in `DECIMAL(precision, scale)` after rescaling
    /// to `scale`.
    pub fn fits(self, precision: u8, scale: u8) -> bool {
        match self.rescale(scale) {
            Ok(d) => count_digits(d.unscaled) <= precision,
            Err(_) => false,
        }
    }

    /// Checked addition; operands are aligned to the larger scale.
    pub fn checked_add(self, other: Decimal) -> Result<Decimal, DecimalError> {
        let scale = self.scale.max(other.scale);
        let a = self.rescale(scale)?;
        let b = other.rescale(scale)?;
        let unscaled = a
            .unscaled
            .checked_add(b.unscaled)
            .ok_or_else(|| err(Cause::Overflow, "addition overflow"))?;
        Ok(Decimal { unscaled, scale })
    }

    /// Checked subtraction.
    pub fn checked_sub(self, other: Decimal) -> Result<Decimal, DecimalError> {
        self.checked_add(Decimal {
            unscaled: -other.unscaled,
            scale: other.scale,
        })
    }

    /// Checked multiplication; scales add.
    pub fn checked_mul(self, other: Decimal) -> Result<Decimal, DecimalError> {
        let unscaled = self
            .unscaled
            .checked_mul(other.unscaled)
            .ok_or_else(|| err(Cause::Overflow, "multiplication overflow"))?;
        let scale = self
            .scale
            .checked_add(other.scale)
            .filter(|s| *s <= MAX_PRECISION)
            .ok_or_else(|| err(Cause::Overflow, "scale overflow"))?;
        Ok(Decimal { unscaled, scale })
    }

    /// Approximate conversion to `f64` (used when mixing decimals and floats
    /// in expressions, as the legacy system did).
    pub fn to_f64(self) -> f64 {
        self.unscaled as f64 / pow10(self.scale) as f64
    }

    /// Lossless conversion to `i64` if the value is integral and in range.
    pub fn to_i64_exact(self) -> Option<i64> {
        let factor = pow10(self.scale);
        if self.unscaled % factor != 0 {
            return None;
        }
        i64::try_from(self.unscaled / factor).ok()
    }
}

fn count_digits(mut v: i128) -> u8 {
    v = v.abs();
    let mut n = 1u8;
    while v >= 10 {
        v /= 10;
        n += 1;
    }
    n
}

impl PartialEq for Decimal {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl PartialOrd for Decimal {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Decimal {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare by aligning scales; fall back to f64 on overflow (only for
        // pathological 38-digit values).
        let scale = self.scale.max(other.scale);
        match (self.rescale(scale), other.rescale(scale)) {
            (Ok(a), Ok(b)) => a.unscaled.cmp(&b.unscaled),
            _ => self
                .to_f64()
                .partial_cmp(&other.to_f64())
                .unwrap_or(Ordering::Equal),
        }
    }
}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.scale == 0 {
            return write!(f, "{}", self.unscaled);
        }
        let neg = self.unscaled < 0;
        let abs = self.unscaled.unsigned_abs();
        let factor = pow10(self.scale) as u128;
        let int = abs / factor;
        let frac = abs % factor;
        let sign = if neg { "-" } else { "" };
        write!(f, "{sign}{int}.{frac:0width$}", width = self.scale as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        assert_eq!(Decimal::parse("12.34").unwrap().to_string(), "12.34");
        assert_eq!(Decimal::parse("-0.05").unwrap().to_string(), "-0.05");
        assert_eq!(Decimal::parse("7").unwrap().to_string(), "7");
        assert_eq!(Decimal::parse("+3.5").unwrap().to_string(), "3.5");
        assert_eq!(Decimal::parse(" 1.0 ").unwrap().to_string(), "1.0");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Decimal::parse("").is_err());
        assert!(Decimal::parse("abc").is_err());
        assert!(Decimal::parse("1.2.3").is_err());
        assert!(Decimal::parse("-").is_err());
        assert!(Decimal::parse(".").is_err());
        assert!(Decimal::parse("1e5").is_err());
    }

    #[test]
    fn rescale_up_and_down() {
        let d = Decimal::parse("1.25").unwrap();
        assert_eq!(d.rescale(4).unwrap().to_string(), "1.2500");
        assert_eq!(d.rescale(1).unwrap().to_string(), "1.3"); // round half away
        assert_eq!(
            Decimal::parse("-1.25")
                .unwrap()
                .rescale(1)
                .unwrap()
                .to_string(),
            "-1.3"
        );
        assert_eq!(d.rescale(0).unwrap().to_string(), "1");
    }

    #[test]
    fn fits_checks_precision() {
        let d = Decimal::parse("999.99").unwrap();
        assert!(d.fits(5, 2));
        assert!(!d.fits(4, 2));
        assert!(d.fits(6, 3));
    }

    #[test]
    fn arithmetic() {
        let a = Decimal::parse("1.50").unwrap();
        let b = Decimal::parse("2.25").unwrap();
        assert_eq!(a.checked_add(b).unwrap().to_string(), "3.75");
        assert_eq!(a.checked_sub(b).unwrap().to_string(), "-0.75");
        assert_eq!(a.checked_mul(b).unwrap().to_string(), "3.3750");
    }

    #[test]
    fn ordering_aligns_scales() {
        let a = Decimal::parse("1.5").unwrap();
        let b = Decimal::parse("1.50").unwrap();
        let c = Decimal::parse("1.51").unwrap();
        assert_eq!(a, b);
        assert!(a < c);
        assert!(c > b);
    }

    #[test]
    fn i64_exact() {
        assert_eq!(Decimal::parse("42.00").unwrap().to_i64_exact(), Some(42));
        assert_eq!(Decimal::parse("42.01").unwrap().to_i64_exact(), None);
    }

    #[test]
    fn f64_conversion() {
        assert!((Decimal::parse("3.75").unwrap().to_f64() - 3.75).abs() < 1e-12);
    }
}
