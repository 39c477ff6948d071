//! Flattening.

use crate::Expr;

/// Flattens nested same-operator nodes into n-ary form and unwraps
/// single-child nodes — the "compacting subscription trees" step of
/// paper §3.1, run by the non-canonical engine before encoding.
///
/// `compact` never drops children, so the tree shape maps 1:1 onto
/// the byte encoding. [`crate::transform::eliminate_not`] flattens the
/// same way as it pushes negation down, and is what the non-canonical
/// engine runs.
///
/// # Examples
///
/// ```
/// use boolmatch_expr::{transform, Expr};
///
/// let e = Expr::parse("a = 1 and (b = 2 and (c = 3 and d = 4))")?;
/// let c = transform::compact(&e);
/// // One 4-ary AND instead of a chain of binary ANDs.
/// assert_eq!(c.depth(), 2);
/// assert_eq!(c.node_count(), 5);
/// # Ok::<(), boolmatch_expr::ParseError>(())
/// ```
pub fn compact(expr: &Expr) -> Expr {
    match expr {
        Expr::Pred(p) => Expr::Pred(p.clone()),
        Expr::And(cs) => {
            let mut flat = Vec::with_capacity(cs.len());
            for c in cs {
                match compact(c) {
                    Expr::And(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            Expr::and(flat)
        }
        Expr::Or(cs) => {
            let mut flat = Vec::with_capacity(cs.len());
            for c in cs {
                match compact(c) {
                    Expr::Or(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            Expr::or(flat)
        }
        Expr::Not(c) => !(compact(c)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompareOp, Predicate};

    fn p(n: i64) -> Expr {
        Expr::pred(Predicate::new("a", CompareOp::Eq, n))
    }

    #[test]
    fn compact_flattens_and_chains() {
        let e = Expr::And(vec![
            p(1),
            Expr::And(vec![p(2), Expr::And(vec![p(3), p(4)])]),
        ]);
        let c = compact(&e);
        assert_eq!(c, Expr::And(vec![p(1), p(2), p(3), p(4)]));
    }

    #[test]
    fn compact_flattens_or_chains_but_not_across_ops() {
        let e = Expr::Or(vec![
            p(1),
            Expr::And(vec![p(2), p(3)]),
            Expr::Or(vec![p(4), p(5)]),
        ]);
        let c = compact(&e);
        match c {
            Expr::Or(cs) => {
                assert_eq!(cs.len(), 4);
                assert!(matches!(cs[1], Expr::And(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compact_preserves_semantics() {
        let e = Expr::parse("(a = 1 and (a = 2 and a = 3)) or not (a = 4 or (a = 5 or a = 6))")
            .unwrap();
        let c = compact(&e);
        for bits in 0..64u32 {
            let oracle = |pred: &Predicate| -> bool {
                let n = pred.value().as_int().unwrap() as u32;
                bits & (1 << (n - 1)) != 0
            };
            assert_eq!(e.eval_with(&mut { oracle }), c.eval_with(&mut { oracle }));
        }
    }

    #[test]
    fn compact_keeps_not_boundaries() {
        let e = Expr::Not(Box::new(Expr::And(vec![p(1), Expr::And(vec![p(2), p(3)])])));
        let c = compact(&e);
        match c {
            Expr::Not(inner) => match *inner {
                Expr::And(cs) => assert_eq!(cs.len(), 3),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }
}
