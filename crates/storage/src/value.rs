use std::cmp::Ordering;
use std::fmt;

/// A single SQL value.
///
/// The UDF framework mirrors Teradata's constraint that UDF parameters
/// are simple types only — numbers and strings, never arrays — so this
/// enum is exactly that set plus NULL.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// Variable-length string.
    Str(String),
}

impl Value {
    /// Whether the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value: ints widen to float, NULL and
    /// strings yield `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Null | Value::Str(_) => None,
        }
    }

    /// Integer view of the value; floats are not implicitly narrowed.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view of the value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL three-valued-logic comparison: NULL compares as unknown
    /// (`None`); numbers compare exactly by value, also an Int against
    /// a Float (a NaN is unknown); strings compare lexicographically.
    /// Cross-type number/string comparison is unknown.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => int_float_cmp(*a, *b),
            (Value::Float(a), Value::Int(b)) => int_float_cmp(*b, *a).map(Ordering::reverse),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Str(_), _) | (_, Value::Str(_)) => None,
        }
    }

    /// Equality for grouping purposes: NULLs group together (as SQL
    /// `GROUP BY` does), floats compare bitwise on their canonical
    /// representation.
    pub fn group_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }

    /// Hash key for grouping, consistent with [`Value::group_eq`].
    pub fn group_key(&self) -> u64 {
        match self {
            Value::Null => 0x9e3779b97f4a7c15,
            Value::Int(i) => (*i as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ 1,
            Value::Float(f) => f.to_bits().wrapping_mul(0x9e3779b97f4a7c15) ^ 2,
            Value::Str(s) => {
                let mut h: u64 = 0xcbf29ce484222325;
                for b in s.as_bytes() {
                    h ^= u64::from(*b);
                    h = h.wrapping_mul(0x100000001b3);
                }
                h ^ 3
            }
        }
    }
}

/// Compares an `i64` with an `f64` exactly, without rounding the
/// integer to the nearest double (beyond 2^53 many integers share
/// one). `None` for NaN.
fn int_float_cmp(i: i64, f: f64) -> Option<Ordering> {
    // 2^63 is exactly representable; every i64 lies in [-2^63, 2^63).
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() {
        return None;
    }
    if f >= TWO_63 {
        return Some(Ordering::Less);
    }
    if f < -TWO_63 {
        return Some(Ordering::Greater);
    }
    // `f` now truncates to an i64 exactly; its fractional part breaks
    // a tie with `i`.
    let whole = f.trunc();
    Some(i.cmp(&(whole as i64)).then(0.0.partial_cmp(&(f - whole))?))
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Null.as_f64(), None);
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Int(3).as_i64(), Some(3));
        assert_eq!(Value::Float(3.0).as_i64(), None);
    }

    #[test]
    fn sql_cmp_three_valued() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Float(1.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Str("a".into()).sql_cmp(&Value::Str("b".into())),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn int_float_cmp_is_exact() {
        let cmp = |i: i64, f: f64| Value::Int(i).sql_cmp(&Value::Float(f));
        // 2^53 + 1 rounds to 2^53 as an f64; compared exactly it is larger.
        assert_eq!(
            cmp((1 << 53) + 1, 9_007_199_254_740_992.0),
            Some(Ordering::Greater)
        );
        assert_eq!(cmp(1 << 53, 9_007_199_254_740_992.0), Some(Ordering::Equal));
        // i64::MAX rounds up to 2^63.
        assert_eq!(
            cmp(i64::MAX, 9_223_372_036_854_775_808.0),
            Some(Ordering::Less)
        );
        assert_eq!(
            cmp(i64::MIN, -9_223_372_036_854_775_808.0),
            Some(Ordering::Equal)
        );
        assert_eq!(cmp(i64::MIN, -1e19), Some(Ordering::Greater));
        assert_eq!(cmp(i64::MAX, f64::INFINITY), Some(Ordering::Less));
        assert_eq!(cmp(-2, -1.5), Some(Ordering::Less));
        assert_eq!(cmp(-1, -1.5), Some(Ordering::Greater));
        assert_eq!(cmp(1, 1.5), Some(Ordering::Less));
        assert_eq!(cmp(0, -0.0), Some(Ordering::Equal));
        assert_eq!(cmp(0, f64::NAN), None);
        assert_eq!(
            Value::Float(9_007_199_254_740_992.0).sql_cmp(&Value::Int((1 << 53) + 1)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn group_semantics() {
        assert!(Value::Null.group_eq(&Value::Null));
        assert!(!Value::Null.group_eq(&Value::Int(0)));
        assert!(Value::Float(1.0).group_eq(&Value::Float(1.0)));
        assert!(!Value::Int(1).group_eq(&Value::Float(1.0)));
        assert_eq!(Value::Int(7).group_key(), Value::Int(7).group_key());
        assert_ne!(Value::Int(7).group_key(), Value::Int(8).group_key());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-2).to_string(), "-2");
        assert_eq!(Value::Float(1.25).to_string(), "1.25");
        assert_eq!(Value::from("hi").to_string(), "hi");
    }
}
