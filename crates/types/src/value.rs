//! The dynamically typed attribute value.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The type of a [`Value`], without the payload.
///
/// Used by [`crate::Schema`] to declare attribute types and by the
/// matching engines to partition their per-attribute indexes.
///
/// # Examples
///
/// ```
/// use boolmatch_types::{Value, ValueKind};
///
/// assert_eq!(Value::from(3_i64).kind(), ValueKind::Int);
/// assert_eq!(ValueKind::Str.to_string(), "str");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueKind {
    /// Boolean values.
    Bool,
    /// Signed 64-bit integers.
    Int,
    /// IEEE-754 double precision floats.
    Float,
    /// UTF-8 strings.
    Str,
}

impl ValueKind {
    /// Canonical lower-case name of the kind, as used by the subscription
    /// language and error messages.
    pub fn name(self) -> &'static str {
        match self {
            ValueKind::Bool => "bool",
            ValueKind::Int => "int",
            ValueKind::Float => "float",
            ValueKind::Str => "str",
        }
    }
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A dynamically typed attribute value.
///
/// `Value` is the payload of event attributes and of predicate constants.
/// It is **strictly typed**: an `Int` never equals a `Float`, even when
/// numerically identical. The matching engines rely on this — each
/// attribute index is keyed by `Value` and a predicate only matches event
/// values of its own kind. Use [`Value::coerce_to`] when lenient numeric
/// conversion is wanted at the edges of the system.
///
/// # Total order
///
/// `Value` implements [`Ord`] so it can key B-trees and sorted indexes.
/// Values of different kinds order by kind
/// (`Bool < Int < Float < Str`); floats use [`f64::total_cmp`], which
/// places `-0.0 < 0.0` and `NaN` after `+∞`. [`Eq`] and [`Hash`] are
/// consistent with this order (floats compare and hash by bit pattern).
///
/// # Examples
///
/// ```
/// use boolmatch_types::Value;
///
/// let a = Value::from(10_i64);
/// let b = Value::from(20_i64);
/// assert!(a < b);
/// assert_ne!(Value::from(10_i64), Value::from(10.0));
/// assert_eq!(Value::from("x").to_string(), "\"x\"");
/// ```
#[derive(Debug, Clone)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// A signed 64-bit integer.
    Int(i64),
    /// An IEEE-754 double precision float.
    Float(f64),
    /// A UTF-8 string. Reference counted so that events, predicates and
    /// indexes can share one allocation.
    Str(Arc<str>),
}

impl Value {
    /// The [`ValueKind`] of this value.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Bool(_) => ValueKind::Bool,
            Value::Int(_) => ValueKind::Int,
            Value::Float(_) => ValueKind::Float,
            Value::Str(_) => ValueKind::Str,
        }
    }

    /// Returns the boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float payload, if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Attempts to convert this value to another kind.
    ///
    /// Numeric conversions (`Int` ↔ `Float`) succeed when the payload is
    /// exactly representable in the target type; everything else succeeds
    /// only when the kinds already agree. Returns `None` when the
    /// conversion would be lossy or is unsupported.
    ///
    /// # Examples
    ///
    /// ```
    /// use boolmatch_types::{Value, ValueKind};
    ///
    /// assert_eq!(Value::from(4_i64).coerce_to(ValueKind::Float), Some(Value::from(4.0)));
    /// assert_eq!(Value::from(0.5).coerce_to(ValueKind::Int), None);
    /// ```
    pub fn coerce_to(&self, kind: ValueKind) -> Option<Value> {
        if self.kind() == kind {
            return Some(self.clone());
        }
        match (self, kind) {
            (Value::Int(i), ValueKind::Float) => {
                let x = *i as f64;
                // i128 comparison avoids the saturating f64 -> i64 cast
                // falsely round-tripping values near i64::MAX.
                ((x as i128) == (*i as i128)).then_some(Value::Float(x))
            }
            (Value::Float(x), ValueKind::Int) => {
                // Exactly representable: in i64 range (upper bound 2^63
                // is exclusive — `i64::MAX as f64` rounds up to it) and
                // bit-identical after the round trip, which also rejects
                // -0.0 (its sign bit cannot survive in an integer).
                let in_range = *x >= -(2f64.powi(63)) && *x < 2f64.powi(63);
                (in_range && ((*x as i64) as f64).to_bits() == x.to_bits())
                    .then_some(Value::Int(*x as i64))
            }
            _ => None,
        }
    }

    /// Approximate number of heap bytes owned by this value, used by the
    /// engines' memory accounting.
    pub fn heap_bytes(&self) -> usize {
        match self {
            // Arc<str> header (strong, weak counts) plus payload.
            Value::Str(s) => s.len() + 16,
            _ => 0,
        }
    }

    fn kind_rank(&self) -> u8 {
        match self {
            Value::Bool(_) => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.kind_rank().cmp(&other.kind_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.kind_rank().hash(state);
        match self {
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(x) => x.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    // Keep the kind visible when round-tripping through the
                    // subscription language.
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<f32> for Value {
    fn from(x: f32) -> Self {
        Value::Float(f64::from(x))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s))
    }
}

impl From<Arc<str>> for Value {
    fn from(s: Arc<str>) -> Self {
        Value::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn kinds_are_reported() {
        assert_eq!(Value::from(true).kind(), ValueKind::Bool);
        assert_eq!(Value::from(1_i64).kind(), ValueKind::Int);
        assert_eq!(Value::from(1.0).kind(), ValueKind::Float);
        assert_eq!(Value::from("a").kind(), ValueKind::Str);
    }

    #[test]
    fn accessors_return_payloads() {
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(7_i64).as_int(), Some(7));
        assert_eq!(Value::from(2.5).as_float(), Some(2.5));
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::from(7_i64).as_str(), None);
        assert_eq!(Value::from("hi").as_int(), None);
    }

    #[test]
    fn strict_typing_int_vs_float() {
        assert_ne!(Value::from(10_i64), Value::from(10.0));
        // different kinds order by kind rank
        assert!(Value::from(10_i64) < Value::from(0.0));
    }

    #[test]
    fn total_order_within_kind() {
        assert!(Value::from(1_i64) < Value::from(2_i64));
        assert!(Value::from(-1.5) < Value::from(0.0));
        assert!(Value::from("abc") < Value::from("abd"));
        assert!(Value::from(false) < Value::from(true));
    }

    #[test]
    fn float_total_order_nan_and_zero() {
        let neg_zero = Value::from(-0.0);
        let pos_zero = Value::from(0.0);
        assert!(neg_zero < pos_zero);
        assert_ne!(neg_zero, pos_zero);

        let nan = Value::from(f64::NAN);
        let inf = Value::from(f64::INFINITY);
        assert!(nan > inf);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
    }

    #[test]
    fn hash_consistent_with_eq() {
        let a = Value::from("shared");
        let b = Value::from("shared");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));

        let x = Value::from(3.5);
        let y = Value::from(3.5);
        assert_eq!(hash_of(&x), hash_of(&y));
    }

    #[test]
    fn coercion_int_float() {
        assert_eq!(
            Value::from(4_i64).coerce_to(ValueKind::Float),
            Some(Value::from(4.0))
        );
        assert_eq!(
            Value::from(4.0).coerce_to(ValueKind::Int),
            Some(Value::from(4_i64))
        );
        assert_eq!(Value::from(0.5).coerce_to(ValueKind::Int), None);
        assert_eq!(Value::from("x").coerce_to(ValueKind::Int), None);
        // Huge integers lose precision as f64 and must refuse to coerce.
        assert_eq!(Value::from(i64::MAX).coerce_to(ValueKind::Float), None);
        // Identity coercion always succeeds.
        assert_eq!(
            Value::from("x").coerce_to(ValueKind::Str),
            Some(Value::from("x"))
        );
    }

    #[test]
    fn display_round_trip_forms() {
        assert_eq!(Value::from(3_i64).to_string(), "3");
        assert_eq!(Value::from(3.0).to_string(), "3.0");
        assert_eq!(Value::from(3.25).to_string(), "3.25");
        assert_eq!(Value::from(true).to_string(), "true");
        assert_eq!(Value::from("a\"b").to_string(), "\"a\\\"b\"");
    }

    #[test]
    fn heap_bytes_only_for_strings() {
        assert_eq!(Value::from(1_i64).heap_bytes(), 0);
        assert!(Value::from("abcd").heap_bytes() >= 4);
    }
}
