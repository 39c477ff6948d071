//! Transformation into disjunctive normal form.

use std::error::Error;
use std::fmt;

use crate::{Expr, Predicate};

use super::{eliminate_not, estimate_dnf_size};

/// A subscription in disjunctive normal form: a disjunction of
/// conjunctions of predicates.
///
/// This is what canonical matching engines register — every conjunct
/// becomes a separate "flat" subscription (paper §1: "treating each
/// disjunction as a separate subscription").
///
/// # Examples
///
/// ```
/// use boolmatch_expr::{transform, Expr};
///
/// let s = Expr::parse("(a = 1 or b = 2) and c = 3")?;
/// let dnf = transform::to_dnf(&s, 100)?;
/// assert_eq!(dnf.len(), 2);
/// assert_eq!(dnf.to_string(), "(a = 1 and c = 3) or (b = 2 and c = 3)");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dnf {
    conjuncts: Vec<Vec<Predicate>>,
}

impl Dnf {
    /// The conjunctions.
    pub fn conjuncts(&self) -> &[Vec<Predicate>] {
        &self.conjuncts
    }

    /// Number of conjunctions.
    pub fn len(&self) -> usize {
        self.conjuncts.len()
    }

    /// Whether there are no conjunctions (never produced by
    /// [`to_dnf`], which requires a non-empty expression).
    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// Converts back into an expression tree (an `Or` of `And`s).
    pub fn to_expr(&self) -> Expr {
        Expr::or(
            self.conjuncts
                .iter()
                .map(|c| Expr::and(c.iter().cloned().map(Expr::pred).collect()))
                .collect(),
        )
    }

    /// Evaluates the DNF with a predicate oracle; used by tests to check
    /// equivalence with the source expression.
    pub fn eval_with(&self, oracle: &mut impl FnMut(&Predicate) -> bool) -> bool {
        self.conjuncts.iter().any(|c| c.iter().all(&mut *oracle))
    }

    /// Removes duplicate conjuncts and conjuncts that contain both a
    /// predicate and its complement (always false), returning how many
    /// were dropped. The result is equivalent over total assignments.
    pub fn prune(&mut self) -> usize {
        let before = self.conjuncts.len();
        self.conjuncts
            .retain(|c| !c.iter().any(|p| c.iter().any(|q| *q == p.complement())));
        self.conjuncts.sort();
        self.conjuncts.dedup();
        before - self.conjuncts.len()
    }
}

impl fmt::Display for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.conjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, " or ")?;
            }
            let needs_parens = self.conjuncts.len() > 1 && c.len() > 1;
            if needs_parens {
                write!(f, "(")?;
            }
            for (j, p) in c.iter().enumerate() {
                if j > 0 {
                    write!(f, " and ")?;
                }
                write!(f, "{p}")?;
            }
            if needs_parens {
                write!(f, ")")?;
            }
        }
        Ok(())
    }
}

/// The DNF transformation was refused or impossible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnfError {
    /// Expanding would produce more conjunctions than the caller's
    /// limit. Carries the exact pre-computed size so callers can report
    /// the blow-up.
    TooLarge {
        /// Conjunctions the expansion would produce.
        estimate: u128,
        /// The limit that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for DnfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnfError::TooLarge { estimate, limit } => write!(
                f,
                "dnf transformation would produce {estimate} conjunctions, over the limit of {limit}"
            ),
        }
    }
}

impl Error for DnfError {}

/// Transforms `expr` into DNF, refusing when the result would exceed
/// `limit` conjunctions.
///
/// Negation is eliminated first ([`eliminate_not`]), then `And` is
/// distributed over `Or`. Duplicate predicates within a conjunct are
/// collapsed (they are idempotent under conjunction).
///
/// # Errors
///
/// Returns [`DnfError::TooLarge`] when [`estimate_dnf_size`] exceeds
/// `limit` — the expansion is never attempted in that case, so calling
/// this with a tight limit is safe even on adversarial expressions.
pub fn to_dnf(expr: &Expr, limit: usize) -> Result<Dnf, DnfError> {
    let estimate = estimate_dnf_size(expr);
    if estimate > limit as u128 {
        return Err(DnfError::TooLarge { estimate, limit });
    }
    let nnf = eliminate_not(expr);
    let conjuncts = expand(&nnf);
    debug_assert_eq!(conjuncts.len() as u128, estimate);
    Ok(Dnf { conjuncts })
}

/// Expands a NOT-free expression. Invariant: the result of each call is
/// a non-empty list of conjunctions.
fn expand(expr: &Expr) -> Vec<Vec<Predicate>> {
    match expr {
        Expr::Pred(p) => vec![vec![p.clone()]],
        Expr::Or(cs) => cs.iter().flat_map(expand).collect(),
        Expr::And(cs) => {
            let mut acc: Vec<Vec<Predicate>> = vec![Vec::new()];
            for child in cs {
                let expanded = expand(child);
                let mut next = Vec::with_capacity(acc.len() * expanded.len());
                for left in &acc {
                    for right in &expanded {
                        let mut merged = left.clone();
                        for p in right {
                            if !merged.contains(p) {
                                merged.push(p.clone());
                            }
                        }
                        next.push(merged);
                    }
                }
                acc = next;
            }
            acc
        }
        Expr::Not(_) => unreachable!("eliminate_not removed all negations"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompareOp;

    fn p(attr: &str, v: i64) -> Predicate {
        Predicate::new(attr, CompareOp::Eq, v)
    }

    fn pe(attr: &str, v: i64) -> Expr {
        Expr::pred(p(attr, v))
    }

    #[test]
    fn single_predicate() {
        let dnf = to_dnf(&pe("a", 1), 10).unwrap();
        assert_eq!(dnf.conjuncts(), &[vec![p("a", 1)]]);
    }

    #[test]
    fn distributes_and_over_or() {
        let e = Expr::and(vec![Expr::or(vec![pe("a", 1), pe("b", 2)]), pe("c", 3)]);
        let dnf = to_dnf(&e, 10).unwrap();
        assert_eq!(
            dnf.conjuncts(),
            &[vec![p("a", 1), p("c", 3)], vec![p("b", 2), p("c", 3)]]
        );
    }

    #[test]
    fn fig1_has_nine_conjunctions_of_two() {
        let e =
            Expr::parse("(a > 10 or a <= 5 or b = 1) and (c <= 20 or c = 30 or d = 5)").unwrap();
        let dnf = to_dnf(&e, 100).unwrap();
        assert_eq!(dnf.len(), 9);
        assert!(dnf.conjuncts().iter().all(|c| c.len() == 2));
    }

    #[test]
    fn too_large_is_refused_without_expansion() {
        // AND of 40 binary ORs -> 2^40 conjunctions.
        let e = Expr::and(
            (0..40)
                .map(|i| Expr::or(vec![pe(&format!("x{i}"), 0), pe(&format!("y{i}"), 1)]))
                .collect(),
        );
        match to_dnf(&e, 1 << 20) {
            Err(DnfError::TooLarge { estimate, limit }) => {
                assert_eq!(estimate, 1u128 << 40);
                assert_eq!(limit, 1 << 20);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn negation_is_eliminated_first() {
        let e = !(Expr::or(vec![pe("a", 1), pe("b", 2)]));
        let dnf = to_dnf(&e, 10).unwrap();
        assert_eq!(dnf.len(), 1);
        assert_eq!(
            dnf.conjuncts()[0],
            vec![
                Predicate::new("a", CompareOp::Ne, 1_i64),
                Predicate::new("b", CompareOp::Ne, 2_i64)
            ]
        );
    }

    #[test]
    fn duplicate_predicates_collapse_within_conjunct() {
        // (a=1 or b=2) and a=1 -> conjunct [a=1] and [b=2, a=1]
        let e = Expr::and(vec![Expr::or(vec![pe("a", 1), pe("b", 2)]), pe("a", 1)]);
        let dnf = to_dnf(&e, 10).unwrap();
        assert_eq!(dnf.conjuncts()[0], vec![p("a", 1)]);
        assert_eq!(dnf.conjuncts()[1], vec![p("b", 2), p("a", 1)]);
    }

    #[test]
    fn equivalence_with_source_on_truth_assignments() {
        let e = Expr::parse("(a = 1 or (b = 2 and c = 3)) and (d = 4 or not (a = 1 and d = 4))")
            .unwrap();
        let dnf = to_dnf(&e, 1000).unwrap();
        // collect unique base predicates (by attr) for assignment bits
        let nnf = eliminate_not(&e);
        for bits in 0..16u32 {
            let oracle = |pred: &Predicate| -> bool {
                let idx = match pred.attr() {
                    "a" => 0,
                    "b" => 1,
                    "c" => 2,
                    "d" => 3,
                    _ => unreachable!(),
                };
                let base = bits & (1 << idx) != 0;
                match pred.op() {
                    CompareOp::Eq => base,
                    CompareOp::Ne => !base,
                    _ => unreachable!(),
                }
            };
            assert_eq!(
                nnf.eval_with(&mut { oracle }),
                dnf.eval_with(&mut { oracle }),
                "bits {bits:04b}"
            );
        }
    }

    #[test]
    fn prune_drops_contradictions_and_duplicates() {
        let mut dnf = Dnf {
            conjuncts: vec![
                vec![p("a", 1), Predicate::new("a", CompareOp::Ne, 1_i64)],
                vec![p("b", 2)],
                vec![p("b", 2)],
            ],
        };
        let dropped = dnf.prune();
        assert_eq!(dropped, 2);
        assert_eq!(dnf.conjuncts(), &[vec![p("b", 2)]]);
    }

    #[test]
    fn to_expr_round_trips_semantics() {
        let e = Expr::parse("(a = 1 or b = 2) and c = 3").unwrap();
        let dnf = to_dnf(&e, 10).unwrap();
        let back = dnf.to_expr();
        for bits in 0..8u32 {
            let oracle = |pred: &Predicate| -> bool {
                match pred.attr() {
                    "a" => bits & 1 != 0,
                    "b" => bits & 2 != 0,
                    "c" => bits & 4 != 0,
                    _ => unreachable!(),
                }
            };
            assert_eq!(
                e.eval_with(&mut { oracle }),
                back.eval_with(&mut { oracle })
            );
        }
    }

    #[test]
    fn display_of_dnf() {
        let e = Expr::parse("(a = 1 or b = 2) and c = 3").unwrap();
        let dnf = to_dnf(&e, 10).unwrap();
        assert_eq!(dnf.to_string(), "(a = 1 and c = 3) or (b = 2 and c = 3)");
    }
}
