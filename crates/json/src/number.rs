//! JSON number representation.
//!
//! JSON does not distinguish integers from floats, but CDN log payloads are
//! full of identifiers (`"article_id": 1234`) that must survive a
//! parse → serialize round trip without turning into `1234.0`. [`Number`]
//! therefore keeps three internal variants (signed, unsigned, float) in the
//! same spirit as `serde_json::Number`, while exposing a small, total API.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary JSON number.
///
/// Construction goes through the `From` impls; inspection through
/// [`as_i64`][Number::as_i64] / [`as_u64`][Number::as_u64] /
/// [`as_f64`][Number::as_f64].
#[derive(Clone, Copy, Debug)]
pub struct Number(Repr);

#[derive(Clone, Copy, Debug)]
enum Repr {
    /// Negative integers (and any integer that arrived as `i64`).
    Int(i64),
    /// Non-negative integers too large for `i64`.
    UInt(u64),
    /// Everything with a fraction or exponent. Never NaN.
    Float(f64),
}

impl Number {
    /// Creates a float number, returning `None` for NaN (JSON has no NaN).
    ///
    /// Infinities are also rejected: they are unrepresentable in JSON text.
    pub fn from_f64(f: f64) -> Option<Self> {
        if f.is_finite() {
            Some(Number(Repr::Float(f)))
        } else {
            None
        }
    }

    /// Returns the value as `i64` if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            Repr::Int(i) => Some(i),
            Repr::UInt(u) => i64::try_from(u).ok(),
            Repr::Float(_) => None,
        }
    }

    /// Returns the value as `u64` if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            Repr::Int(i) => u64::try_from(i).ok(),
            Repr::UInt(u) => Some(u),
            Repr::Float(_) => None,
        }
    }

    /// Returns the value as `f64` (always possible, possibly lossy for huge
    /// integers).
    pub fn as_f64(&self) -> f64 {
        match self.0 {
            Repr::Int(i) => i as f64,
            Repr::UInt(u) => u as f64,
            Repr::Float(f) => f,
        }
    }
}

impl From<i64> for Number {
    fn from(i: i64) -> Self {
        Number(Repr::Int(i))
    }
}

impl From<u64> for Number {
    fn from(u: u64) -> Self {
        match i64::try_from(u) {
            Ok(i) => Number(Repr::Int(i)),
            Err(_) => Number(Repr::UInt(u)),
        }
    }
}

impl From<i32> for Number {
    fn from(i: i32) -> Self {
        Number(Repr::Int(i64::from(i)))
    }
}

impl From<u32> for Number {
    fn from(u: u32) -> Self {
        Number(Repr::Int(i64::from(u)))
    }
}

impl From<usize> for Number {
    fn from(u: usize) -> Self {
        Number::from(u as u64)
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self.0, other.0) {
            (Repr::Int(a), Repr::Int(b)) => a == b,
            (Repr::UInt(a), Repr::UInt(b)) => a == b,
            (Repr::Int(a), Repr::UInt(b)) | (Repr::UInt(b), Repr::Int(a)) => {
                a >= 0 && a as u64 == b
            }
            // A float compares equal to an integer only when it is that
            // integer exactly; this keeps Eq consistent with serialization.
            (Repr::Float(a), Repr::Float(b)) => a == b,
            (Repr::Float(f), Repr::Int(i)) | (Repr::Int(i), Repr::Float(f)) => {
                f.fract() == 0.0 && f == i as f64
            }
            (Repr::Float(f), Repr::UInt(u)) | (Repr::UInt(u), Repr::Float(f)) => {
                f.fract() == 0.0 && f == u as f64
            }
        }
    }
}

impl PartialOrd for Number {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.as_f64().partial_cmp(&other.as_f64())
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Repr::Int(i) => write!(f, "{i}"),
            Repr::UInt(u) => write!(f, "{u}"),
            Repr::Float(x) => {
                // `{}` on f64 prints the shortest representation that
                // round-trips; ensure a fraction/exponent marker survives so
                // the value re-parses as a float.
                let s = format!("{x}");
                if s.contains('.') || s.contains('e') || s.contains('E') {
                    f.write_str(&s)
                } else {
                    write!(f, "{s}.0")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_round_trip_exactly() {
        let n = Number::from(i64::MIN);
        assert_eq!(n.as_i64(), Some(i64::MIN));
        assert_eq!(n.to_string(), i64::MIN.to_string());

        let n = Number::from(u64::MAX);
        assert_eq!(n.as_u64(), Some(u64::MAX));
        assert_eq!(n.as_i64(), None);
        assert_eq!(n.to_string(), u64::MAX.to_string());
    }

    #[test]
    fn nan_and_infinity_rejected() {
        assert!(Number::from_f64(f64::NAN).is_none());
        assert!(Number::from_f64(f64::INFINITY).is_none());
        assert!(Number::from_f64(f64::NEG_INFINITY).is_none());
        assert!(Number::from_f64(0.5).is_some());
    }

    #[test]
    fn float_display_reparses_as_float() {
        let n = Number::from_f64(2.0).unwrap();
        assert_eq!(n.to_string(), "2.0");
    }

    #[test]
    fn cross_repr_equality() {
        assert_eq!(Number::from(5i64), Number::from(5u64));
        assert_eq!(Number::from(5i64), Number::from_f64(5.0).unwrap());
        assert_ne!(Number::from(5i64), Number::from_f64(5.5).unwrap());
        assert_ne!(Number::from(-1i64), Number::from(u64::MAX));
    }

    #[test]
    fn ordering_follows_numeric_value() {
        assert!(Number::from(1i64) < Number::from_f64(1.5).unwrap());
        assert!(Number::from_f64(1.5).unwrap() < Number::from(2i64));
    }
}
