//! Predicates: attribute–operator–value filters.

use std::fmt;
use std::sync::Arc;

use boolmatch_types::{Value, ValueKind};

/// The comparison operator of a [`Predicate`].
///
/// The first six operators are the classic relational comparisons; the
/// string operators (`Prefix`, `Contains`) and their complements round
/// out the language so that **every operator has a complement** — this is
/// what lets the DNF transformation push `NOT` all the way into the
/// leaves (see [`crate::transform`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum CompareOp {
    /// `=` equality.
    Eq,
    /// `!=` inequality.
    Ne,
    /// `<` strictly less than.
    Lt,
    /// `<=` less than or equal.
    Le,
    /// `>` strictly greater than.
    Gt,
    /// `>=` greater than or equal.
    Ge,
    /// `prefix` — string starts with the constant.
    Prefix,
    /// complement of [`CompareOp::Prefix`].
    NotPrefix,
    /// `contains` — string contains the constant as a substring.
    Contains,
    /// complement of [`CompareOp::Contains`].
    NotContains,
}

impl CompareOp {
    /// The operator whose result is the logical negation of `self`, for
    /// every pair of operands.
    ///
    /// # Examples
    ///
    /// ```
    /// use boolmatch_expr::CompareOp;
    /// assert_eq!(CompareOp::Lt.complement(), CompareOp::Ge);
    /// assert_eq!(CompareOp::Ge.complement(), CompareOp::Lt);
    /// assert_eq!(CompareOp::Prefix.complement(), CompareOp::NotPrefix);
    /// ```
    pub fn complement(self) -> CompareOp {
        match self {
            CompareOp::Eq => CompareOp::Ne,
            CompareOp::Ne => CompareOp::Eq,
            CompareOp::Lt => CompareOp::Ge,
            CompareOp::Le => CompareOp::Gt,
            CompareOp::Gt => CompareOp::Le,
            CompareOp::Ge => CompareOp::Lt,
            CompareOp::Prefix => CompareOp::NotPrefix,
            CompareOp::NotPrefix => CompareOp::Prefix,
            CompareOp::Contains => CompareOp::NotContains,
            CompareOp::NotContains => CompareOp::Contains,
        }
    }

    /// Whether this is an equality-style *point* operator, indexed with a
    /// hash table by the engines (paper §3.2).
    pub fn is_point(self) -> bool {
        matches!(self, CompareOp::Eq)
    }

    /// Whether this is a *range* operator, indexed with a B+ tree by the
    /// engines (paper §3.2).
    pub fn is_range(self) -> bool {
        matches!(
            self,
            CompareOp::Lt | CompareOp::Le | CompareOp::Gt | CompareOp::Ge
        )
    }

    /// Whether this is a string-search operator (prefix/substring).
    pub fn is_string_search(self) -> bool {
        matches!(
            self,
            CompareOp::Prefix | CompareOp::NotPrefix | CompareOp::Contains | CompareOp::NotContains
        )
    }

    /// The token used by the subscription language.
    pub fn symbol(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
            CompareOp::Prefix => "prefix",
            CompareOp::NotPrefix => "!prefix",
            CompareOp::Contains => "contains",
            CompareOp::NotContains => "!contains",
        }
    }

    /// Applies the operator to an event value (left operand) and the
    /// predicate constant (right operand).
    ///
    /// Comparisons are strict about kinds: an `Int` event value never
    /// satisfies a `Float` constant and vice versa, and the string
    /// operators require both sides to be strings. Relational operators
    /// across different kinds are always false.
    pub fn eval(self, event_value: &Value, constant: &Value) -> bool {
        match self {
            CompareOp::Eq => event_value == constant,
            CompareOp::Ne => event_value.kind() == constant.kind() && event_value != constant,
            CompareOp::Lt | CompareOp::Le | CompareOp::Gt | CompareOp::Ge => {
                if event_value.kind() != constant.kind() {
                    return false;
                }
                let ord = event_value.cmp(constant);
                match self {
                    CompareOp::Lt => ord.is_lt(),
                    CompareOp::Le => ord.is_le(),
                    CompareOp::Gt => ord.is_gt(),
                    CompareOp::Ge => ord.is_ge(),
                    _ => unreachable!(),
                }
            }
            CompareOp::Prefix | CompareOp::NotPrefix => {
                match (event_value.as_str(), constant.as_str()) {
                    (Some(v), Some(c)) => v.starts_with(c) == (self == CompareOp::Prefix),
                    _ => false,
                }
            }
            CompareOp::Contains | CompareOp::NotContains => {
                match (event_value.as_str(), constant.as_str()) {
                    (Some(v), Some(c)) => v.contains(c) == (self == CompareOp::Contains),
                    _ => false,
                }
            }
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An attribute–operator–value filter, the leaf of a subscription.
///
/// Predicates are plain data and are freely shared between
/// subscriptions; the engines intern them so each distinct predicate is
/// stored and evaluated once per event (paper §3.1: predicates "might be
/// shared among different subscriptions").
///
/// # Examples
///
/// ```
/// use boolmatch_expr::{CompareOp, Predicate};
/// use boolmatch_types::Event;
///
/// let p = Predicate::new("price", CompareOp::Gt, 10_i64);
/// let hit = Event::builder().attr("price", 12_i64).build();
/// let miss = Event::builder().attr("price", 9_i64).build();
/// assert!(p.eval_event(&hit));
/// assert!(!p.eval_event(&miss));
/// assert_eq!(p.to_string(), "price > 10");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Predicate {
    attr: Arc<str>,
    op: CompareOp,
    value: Value,
}

impl Predicate {
    /// Creates a predicate `attr OP value`.
    pub fn new(attr: &str, op: CompareOp, value: impl Into<Value>) -> Predicate {
        Predicate {
            attr: Arc::from(attr),
            op,
            value: value.into(),
        }
    }

    /// The attribute the predicate filters on.
    pub fn attr(&self) -> &str {
        &self.attr
    }

    /// The comparison operator.
    pub fn op(&self) -> CompareOp {
        self.op
    }

    /// The constant the event value is compared against.
    pub fn value(&self) -> &Value {
        &self.value
    }

    /// The kind of the constant.
    pub fn value_kind(&self) -> ValueKind {
        self.value.kind()
    }

    /// The complementary predicate: true exactly when `self` is false
    /// *for events that carry the attribute*.
    ///
    /// Note the open-world caveat: when an event lacks the attribute,
    /// both a predicate and its complement evaluate to false (see
    /// [`Predicate::eval_event`]). The matching engines and the DNF
    /// transformation share this convention, so all engines agree.
    pub fn complement(&self) -> Predicate {
        Predicate {
            attr: Arc::clone(&self.attr),
            op: self.op.complement(),
            value: self.value.clone(),
        }
    }

    /// Evaluates the predicate against an attribute value.
    pub fn eval_value(&self, event_value: &Value) -> bool {
        self.op.eval(event_value, &self.value)
    }

    /// Evaluates the predicate against an event. Events that do not
    /// carry the attribute never match.
    pub fn eval_event(&self, event: &boolmatch_types::Event) -> bool {
        event.get(&self.attr).is_some_and(|v| self.eval_value(v))
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.attr, self.op, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolmatch_types::Event;

    const ALL_OPS: [CompareOp; 10] = [
        CompareOp::Eq,
        CompareOp::Ne,
        CompareOp::Lt,
        CompareOp::Le,
        CompareOp::Gt,
        CompareOp::Ge,
        CompareOp::Prefix,
        CompareOp::NotPrefix,
        CompareOp::Contains,
        CompareOp::NotContains,
    ];

    #[test]
    fn complement_is_involution() {
        for op in ALL_OPS {
            assert_eq!(op.complement().complement(), op, "{op:?}");
        }
    }

    #[test]
    fn complement_negates_on_int_values() {
        let vals: Vec<Value> = (-3..=3).map(Value::from).collect();
        let c = Value::from(0_i64);
        for op in [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ] {
            for v in &vals {
                assert_eq!(
                    op.eval(v, &c),
                    !op.complement().eval(v, &c),
                    "{op:?} on {v:?}"
                );
            }
        }
    }

    #[test]
    fn complement_negates_on_string_values() {
        let vals = [Value::from("abc"), Value::from("xbc"), Value::from("")];
        let c = Value::from("ab");
        for op in [
            CompareOp::Prefix,
            CompareOp::NotPrefix,
            CompareOp::Contains,
            CompareOp::NotContains,
        ] {
            for v in &vals {
                assert_eq!(op.eval(v, &c), !op.complement().eval(v, &c));
            }
        }
    }

    #[test]
    fn relational_ops_on_ints() {
        let c = Value::from(10_i64);
        assert!(CompareOp::Gt.eval(&Value::from(11_i64), &c));
        assert!(!CompareOp::Gt.eval(&Value::from(10_i64), &c));
        assert!(CompareOp::Ge.eval(&Value::from(10_i64), &c));
        assert!(CompareOp::Lt.eval(&Value::from(9_i64), &c));
        assert!(CompareOp::Le.eval(&Value::from(10_i64), &c));
        assert!(CompareOp::Eq.eval(&Value::from(10_i64), &c));
        assert!(CompareOp::Ne.eval(&Value::from(11_i64), &c));
    }

    #[test]
    fn cross_kind_comparisons_are_false() {
        let c = Value::from(10_i64);
        let v = Value::from(11.0);
        for op in [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ] {
            assert!(!op.eval(&v, &c), "{op:?}");
        }
        // String search on non-strings is false even for the negative form.
        assert!(!CompareOp::Contains.eval(&v, &Value::from("x")));
        assert!(!CompareOp::NotContains.eval(&v, &Value::from("x")));
    }

    #[test]
    fn string_search_ops() {
        let v = Value::from("hello world");
        assert!(CompareOp::Prefix.eval(&v, &Value::from("hello")));
        assert!(!CompareOp::Prefix.eval(&v, &Value::from("world")));
        assert!(CompareOp::Contains.eval(&v, &Value::from("lo wo")));
        assert!(CompareOp::NotContains.eval(&v, &Value::from("xyz")));
    }

    #[test]
    fn predicate_eval_event_missing_attribute() {
        let p = Predicate::new("a", CompareOp::Ne, 5_i64);
        let e = Event::builder().attr("b", 1_i64).build();
        assert!(!p.eval_event(&e));
        // ... and the complement is also false: open-world convention.
        assert!(!p.complement().eval_event(&e));
    }

    #[test]
    fn predicate_accessors_and_display() {
        let p = Predicate::new("price", CompareOp::Le, 20_i64);
        assert_eq!(p.attr(), "price");
        assert_eq!(p.op(), CompareOp::Le);
        assert_eq!(p.value(), &Value::from(20_i64));
        assert_eq!(p.to_string(), "price <= 20");
        assert_eq!(
            Predicate::new("s", CompareOp::Prefix, "ab").to_string(),
            "s prefix \"ab\""
        );
    }

    #[test]
    fn predicates_are_hashable_and_shared() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Predicate::new("a", CompareOp::Eq, 1_i64));
        set.insert(Predicate::new("a", CompareOp::Eq, 1_i64));
        assert_eq!(set.len(), 1);
    }
}
