//! Negation elimination.

use crate::Expr;

/// Rewrites `expr` into its negation normal form: an expression
/// without `Not` nodes that [`Expr::eval_event`] evaluates exactly as it
/// does `expr`.
///
/// Negation is pushed inward with De Morgan's laws; a negation that
/// reaches a predicate is absorbed by complementing its operator
/// ([`crate::CompareOp::complement`]). A child whose operator equals
/// its new parent's is flattened into it as the tree is built, so the
/// result is already compact ([`crate::transform::compact`]) and keeps
/// the original's linear size — no DNF expansion. This is the one form
/// every matching engine stores or expands: the non-canonical engine
/// encodes it, the counting engines expand it into DNF.
///
/// # Examples
///
/// ```
/// use boolmatch_expr::{transform, Expr};
///
/// let e = Expr::parse("not (a = 1 and b < 2)")?;
/// let nnf = transform::eliminate_not(&e);
/// assert_eq!(nnf.to_string(), "a != 1 or b >= 2");
/// assert!(!nnf.contains_not());
/// # Ok::<(), boolmatch_expr::ParseError>(())
/// ```
pub fn eliminate_not(expr: &Expr) -> Expr {
    go(expr, false)
}

fn go(expr: &Expr, negate: bool) -> Expr {
    match expr {
        Expr::Pred(p) if negate => Expr::Pred(p.complement()),
        Expr::Pred(p) => Expr::Pred(p.clone()),
        Expr::And(cs) | Expr::Or(cs) => {
            let and = matches!(expr, Expr::And(_)) != negate;
            let mut flat = Vec::with_capacity(cs.len());
            for c in cs {
                match go(c, negate) {
                    Expr::And(inner) if and => flat.extend(inner),
                    Expr::Or(inner) if !and => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            if and {
                Expr::and(flat)
            } else {
                Expr::or(flat)
            }
        }
        Expr::Not(c) => go(c, !negate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompareOp, Predicate};

    fn p(attr: &str, op: CompareOp, v: i64) -> Expr {
        Expr::pred(Predicate::new(attr, op, v))
    }

    #[test]
    fn pushes_not_through_and() {
        let e = !(Expr::and(vec![p("a", CompareOp::Eq, 1), p("b", CompareOp::Lt, 2)]));
        let nnf = eliminate_not(&e);
        assert_eq!(
            nnf,
            Expr::or(vec![p("a", CompareOp::Ne, 1), p("b", CompareOp::Ge, 2)])
        );
    }

    #[test]
    fn pushes_not_through_or() {
        let e = !(Expr::or(vec![p("a", CompareOp::Gt, 1), p("b", CompareOp::Le, 2)]));
        let nnf = eliminate_not(&e);
        assert_eq!(
            nnf,
            Expr::and(vec![p("a", CompareOp::Le, 1), p("b", CompareOp::Gt, 2)])
        );
    }

    #[test]
    fn nested_negations_cancel() {
        let inner = p("a", CompareOp::Eq, 1);
        let e = Expr::Not(Box::new(Expr::Not(Box::new(Expr::Not(Box::new(
            inner.clone(),
        ))))));
        assert_eq!(eliminate_not(&e), p("a", CompareOp::Ne, 1));
    }

    #[test]
    fn same_operator_children_are_flattened() {
        // The inner AND lands under the AND that negating the OR made.
        let e = Expr::parse("not (a = 1 or not (b = 2 and c = 3))").unwrap();
        assert_eq!(
            eliminate_not(&e),
            Expr::And(vec![
                p("a", CompareOp::Ne, 1),
                p("b", CompareOp::Eq, 2),
                p("c", CompareOp::Eq, 3),
            ])
        );
    }

    #[test]
    fn not_free_input_is_unchanged() {
        let e = Expr::and(vec![p("a", CompareOp::Eq, 1), p("b", CompareOp::Ne, 2)]);
        assert_eq!(eliminate_not(&e), e);
    }

    #[test]
    fn equivalence_under_total_assignments() {
        // On total assignments (oracle defined for every predicate and
        // consistent with complements), NNF must agree with the original.
        let e = !(Expr::or(vec![
            Expr::and(vec![p("a", CompareOp::Eq, 1), p("b", CompareOp::Lt, 2)]),
            !(p("c", CompareOp::Ge, 3)),
        ]));
        let nnf = eliminate_not(&e);
        // Enumerate assignments over base predicates by attr name.
        for bits in 0..8u32 {
            let oracle = |pred: &Predicate| -> bool {
                match (pred.attr(), pred.op()) {
                    ("a", CompareOp::Eq) => bits & 1 != 0,
                    ("a", CompareOp::Ne) => bits & 1 == 0,
                    ("b", CompareOp::Lt) => bits & 2 != 0,
                    ("b", CompareOp::Ge) => bits & 2 == 0,
                    ("c", CompareOp::Ge) => bits & 4 != 0,
                    ("c", CompareOp::Lt) => bits & 4 == 0,
                    other => unreachable!("{other:?}"),
                }
            };
            assert_eq!(
                e.eval_with(&mut { oracle }),
                nnf.eval_with(&mut { oracle }),
                "assignment {bits:03b}"
            );
        }
    }
}
