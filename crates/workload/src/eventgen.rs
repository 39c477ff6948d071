//! Event and fulfilled-set generation.

use boolmatch_core::PredicateId;
use boolmatch_expr::{CompareOp, Expr, Predicate};
use boolmatch_types::{Event, Value};

use crate::rng::StdRng;

/// Samples `k` **distinct** fulfilled predicate ids from
/// `0..universe` — the synthetic phase-1 output the paper's Fig. 3
/// parameterises as "matching predicates per event".
///
/// # Panics
///
/// Panics if `k > universe`.
///
/// # Examples
///
/// ```
/// use boolmatch_workload::synthetic_fulfilled;
/// use boolmatch_workload::rng::StdRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let ids = synthetic_fulfilled(&mut rng, 1_000, 50);
/// assert_eq!(ids.len(), 50);
/// let mut dedup = ids.clone();
/// dedup.sort();
/// dedup.dedup();
/// assert_eq!(dedup.len(), 50);
/// ```
pub fn synthetic_fulfilled(rng: &mut StdRng, universe: usize, k: usize) -> Vec<PredicateId> {
    assert!(k <= universe, "cannot fulfil {k} of {universe} predicates");
    crate::rng::sample(rng, universe, k)
        .into_iter()
        .map(PredicateId::from_index)
        .collect()
}

/// Builds an event that satisfies `expr`, if the expression is
/// satisfiable by a single consistent assignment findable by this
/// simple strategy (AND merges children, OR tries branches in order).
///
/// Negated subexpressions are handled by satisfying the complement
/// leaves. Conflicting attribute requirements make a branch fail;
/// `None` means no branch worked — not a proof of unsatisfiability.
///
/// # Examples
///
/// ```
/// use boolmatch_expr::Expr;
/// use boolmatch_workload::satisfying_event;
///
/// let e = Expr::parse("(a > 10 or a <= 5) and b = 1")?;
/// let event = satisfying_event(&e).expect("satisfiable");
/// assert!(e.eval_event(&event));
/// # Ok::<(), boolmatch_expr::ParseError>(())
/// ```
pub fn satisfying_event(expr: &Expr) -> Option<Event> {
    let nnf = boolmatch_expr::transform::eliminate_not(expr);
    let mut pairs: Vec<(String, Value)> = Vec::new();
    if !satisfy(&nnf, &mut pairs) {
        return None;
    }
    let event = Event::from_pairs(pairs.iter().map(|(n, v)| (n.as_str(), v.clone())));
    // The merge strategy is sound but double-check against the original
    // semantics (NOT handling can diverge on partial events).
    expr.eval_event(&event).then_some(event)
}

fn satisfy(expr: &Expr, pairs: &mut Vec<(String, Value)>) -> bool {
    match expr {
        Expr::Pred(p) => match witness(p) {
            Some(v) => merge(pairs, p.attr(), v),
            None => false,
        },
        Expr::And(cs) => {
            let checkpoint = pairs.len();
            for c in cs {
                if !satisfy(c, pairs) {
                    pairs.truncate(checkpoint);
                    return false;
                }
            }
            true
        }
        Expr::Or(cs) => {
            for c in cs {
                let checkpoint = pairs.len();
                if satisfy(c, pairs) {
                    return true;
                }
                pairs.truncate(checkpoint);
            }
            false
        }
        Expr::Not(_) => unreachable!("negation eliminated before satisfy"),
    }
}

/// A value fulfilling the predicate, when one obviously exists.
fn witness(p: &Predicate) -> Option<Value> {
    let v = p.value();
    match p.op() {
        CompareOp::Eq | CompareOp::Le | CompareOp::Ge => Some(v.clone()),
        CompareOp::Ne | CompareOp::Gt => match v {
            Value::Int(i) => i.checked_add(1).map(Value::from),
            Value::Float(x) => Some(Value::from(x + 1.0)),
            Value::Str(s) => Some(Value::from(format!("{s}~"))),
            Value::Bool(b) => Some(Value::from(!b)),
        },
        CompareOp::Lt => match v {
            Value::Int(i) => i.checked_sub(1).map(Value::from),
            Value::Float(x) => Some(Value::from(x - 1.0)),
            Value::Str(s) => (!s.is_empty()).then(|| Value::from("")),
            Value::Bool(b) => b.then(|| Value::from(false)),
        },
        CompareOp::Prefix | CompareOp::Contains => v.as_str().map(Value::from),
        CompareOp::NotPrefix | CompareOp::NotContains => {
            v.as_str().map(|s| Value::from(format!("\u{10FFFF}{s}")))
        }
    }
}

/// Merges an attribute requirement; existing values must agree exactly.
fn merge(pairs: &mut Vec<(String, Value)>, attr: &str, value: Value) -> bool {
    if let Some((_, existing)) = pairs.iter().find(|(n, _)| n == attr) {
        return *existing == value;
    }
    pairs.push((attr.to_owned(), value));
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_fulfilled_is_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(42);
        let ids = synthetic_fulfilled(&mut rng, 100, 100);
        assert_eq!(ids.len(), 100);
        let mut idx: Vec<usize> = ids.iter().map(|i| i.index()).collect();
        idx.sort();
        assert_eq!(idx, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot fulfil")]
    fn oversampling_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        synthetic_fulfilled(&mut rng, 10, 11);
    }

    #[test]
    fn satisfying_event_for_various_shapes() {
        let cases = [
            "a = 1",
            "a > 10 and b <= 5",
            "(a > 10 or a <= 5) and (b = 1 or c != 2)",
            "not (a = 1) and b >= 3",
            "s prefix \"ab\" and t contains \"xy\"",
        ];
        for text in cases {
            let e = Expr::parse(text).unwrap();
            let event = satisfying_event(&e).unwrap_or_else(|| panic!("no witness for {text}"));
            assert!(e.eval_event(&event), "witness fails for {text}: {event}");
        }
    }

    #[test]
    fn conflicting_conjunction_yields_none_or_valid() {
        // a = 1 and a = 2 is unsatisfiable.
        let e = Expr::parse("a = 1 and a = 2").unwrap();
        assert!(satisfying_event(&e).is_none());
        // ...but an OR around it can still be satisfied.
        let e = Expr::parse("(a = 1 and a = 2) or b = 3").unwrap();
        let event = satisfying_event(&e).unwrap();
        assert!(e.eval_event(&event));
    }
}
