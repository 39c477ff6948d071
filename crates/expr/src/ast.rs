//! The Boolean expression tree.

use std::fmt;

use boolmatch_types::Event;

use crate::{ParseError, Predicate};

/// The deepest subscription accepted, in [`Expr::depth`] levels (a
/// lone predicate is 1). Every engine's `subscribe` refuses a deeper
/// expression, and the parser refuses text that nests parentheses and
/// `not`s more than this many levels, before it recurses any deeper.
///
/// Why 32: the paper's corpus has depth 3 and the deepest generated
/// tree (`TreeScenario`) has depth 4, so no subscription of either
/// comes near it. Every pass over a subscription recurses once per
/// level — the parser, negation normal form, DNF expansion, the tree
/// encoder and its decoder, `Display`, drop — and at 32 levels all of
/// them run on a 256 KiB thread in a debug build
/// (`tests/failure_injection.rs::subscription_depth_is_bounded`). The
/// hungriest is the parser, four frames per parenthesis: on that thread
/// it still parses 64 levels and overflows at 68, so the bound keeps a
/// factor of two in hand. Without a bound, a few KB of nested
/// parentheses overflow the parser's stack and abort the process.
pub const MAX_DEPTH: usize = 32;

/// An arbitrary Boolean expression over [`Predicate`]s.
///
/// `And`/`Or` are n-ary (paper §3.1: "binary operators are treated as
/// n-ary ones due to compacting subscription trees"); [`Expr::and`] and
/// [`Expr::or`] normalise the trivial cases so that well-formed
/// expressions never contain empty or single-child conjunctions.
///
/// `Expr` is the *source* form of a subscription. Every engine starts
/// from its negation normal form ([`crate::transform::eliminate_not`]):
/// the non-canonical engine compiles that into a compact byte encoding
/// (`boolmatch-core::encode`); the canonical baselines expand it with
/// [`crate::transform::to_dnf`].
///
/// # Examples
///
/// ```
/// use boolmatch_expr::{CompareOp, Expr, Predicate};
/// use boolmatch_types::Event;
///
/// let e = Expr::and(vec![
///     Expr::pred(Predicate::new("a", CompareOp::Gt, 10_i64)),
///     !(Expr::pred(Predicate::new("b", CompareOp::Eq, "off"))),
/// ]);
/// let ev = Event::builder().attr("a", 11_i64).attr("b", "on").build();
/// assert!(e.eval_event(&ev));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A leaf predicate.
    Pred(Predicate),
    /// N-ary conjunction. Invariant (maintained by [`Expr::and`]): at
    /// least two children.
    And(Vec<Expr>),
    /// N-ary disjunction. Invariant (maintained by [`Expr::or`]): at
    /// least two children.
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

impl Expr {
    /// Wraps a predicate as an expression.
    pub fn pred(p: Predicate) -> Expr {
        Expr::Pred(p)
    }

    /// Builds a conjunction, normalising the degenerate cases: an empty
    /// vector panics (there is no "constant true" subscription), a
    /// single child is returned unchanged.
    ///
    /// # Panics
    ///
    /// Panics when `children` is empty.
    pub fn and(mut children: Vec<Expr>) -> Expr {
        assert!(!children.is_empty(), "conjunction needs at least one child");
        if children.len() == 1 {
            // lint: allow(panic-policy, reason = "unreachable: this branch requires len() == 1, so pop() yields Some")
            children.pop().unwrap()
        } else {
            Expr::And(children)
        }
    }

    /// Builds a disjunction; same normalisation as [`Expr::and`].
    ///
    /// # Panics
    ///
    /// Panics when `children` is empty.
    pub fn or(mut children: Vec<Expr>) -> Expr {
        assert!(!children.is_empty(), "disjunction needs at least one child");
        if children.len() == 1 {
            // lint: allow(panic-policy, reason = "unreachable: this branch requires len() == 1, so pop() yields Some")
            children.pop().unwrap()
        } else {
            Expr::Or(children)
        }
    }

    /// Parses an expression from the subscription language.
    ///
    /// The grammar (loosest to tightest binding):
    ///
    /// ```text
    /// or-expr   := and-expr (("or" | "||") and-expr)*
    /// and-expr  := not-expr (("and" | "&&") not-expr)*
    /// not-expr  := ("not" | "!") not-expr | primary
    /// primary   := "(" or-expr ")" | predicate
    /// predicate := IDENT op literal
    /// op        := "=" | "==" | "!=" | "<" | "<=" | ">" | ">=" |
    ///              "prefix" | "contains"
    /// literal   := INT | FLOAT | STRING | "true" | "false"
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the offending token and its
    /// byte position.
    ///
    /// # Examples
    ///
    /// ```
    /// use boolmatch_expr::Expr;
    /// let e = Expr::parse("price > 10 and not (symbol = \"IBM\")")?;
    /// assert_eq!(e.predicate_count(), 2);
    /// # Ok::<(), boolmatch_expr::ParseError>(())
    /// ```
    pub fn parse(input: &str) -> Result<Expr, ParseError> {
        crate::parser::parse(input)
    }

    /// Evaluates the expression directly against an event.
    ///
    /// This is the *reference semantics* every engine answers: a
    /// predicate is true iff the event carries its attribute with a
    /// satisfying value, and `not` is evaluated in negation normal
    /// form — a leaf under an odd number of `not`s is tested with its
    /// complemented operator, and `and`/`or` swap under negation. That
    /// is Kleene three-valued logic in which "unknown" (a missing
    /// attribute or a kind mismatch) never matches: `not (a = 1)` is
    /// false on an event without `a`, and an expression and its
    /// negation never both match. The result equals
    /// [`crate::transform::eliminate_not`]`(self).eval_event(event)`,
    /// computed without building that tree.
    ///
    /// # Examples
    ///
    /// ```
    /// use boolmatch_expr::Expr;
    /// use boolmatch_types::Event;
    ///
    /// let e = Expr::parse("not (a = 1) and b = 2")?;
    /// let with_a = Event::builder().attr("a", 3_i64).attr("b", 2_i64).build();
    /// let without_a = Event::builder().attr("b", 2_i64).build();
    /// assert!(e.eval_event(&with_a));
    /// assert!(!e.eval_event(&without_a));
    /// assert!(!(!e).eval_event(&without_a));
    /// # Ok::<(), boolmatch_expr::ParseError>(())
    /// ```
    pub fn eval_event(&self, event: &Event) -> bool {
        self.eval_negated(event, false)
    }

    /// [`Expr::eval_event`] of `self`, or of its negation when `negate`.
    fn eval_negated(&self, event: &Event, negate: bool) -> bool {
        match self {
            Expr::Pred(p) => {
                let op = if negate { p.op().complement() } else { p.op() };
                event.get(p.attr()).is_some_and(|v| op.eval(v, p.value()))
            }
            Expr::And(cs) | Expr::Or(cs) => {
                if matches!(self, Expr::And(_)) != negate {
                    cs.iter().all(|c| c.eval_negated(event, negate))
                } else {
                    cs.iter().any(|c| c.eval_negated(event, negate))
                }
            }
            Expr::Not(c) => c.eval_negated(event, !negate),
        }
    }

    /// Evaluates with a caller-supplied predicate oracle, negating
    /// classically.
    ///
    /// Only tests use this, with truth assignments. Under an assignment
    /// that gives a predicate and its complement opposite values, it
    /// agrees with [`Expr::eval_event`]'s negation normal form.
    pub fn eval_with(&self, oracle: &mut impl FnMut(&Predicate) -> bool) -> bool {
        match self {
            Expr::Pred(p) => oracle(p),
            Expr::And(cs) => cs.iter().all(|c| c.eval_with(oracle)),
            Expr::Or(cs) => cs.iter().any(|c| c.eval_with(oracle)),
            Expr::Not(c) => !c.eval_with(oracle),
        }
    }

    /// Visits every predicate in the expression, left to right,
    /// including duplicates.
    pub fn for_each_predicate(&self, f: &mut impl FnMut(&Predicate)) {
        match self {
            Expr::Pred(p) => f(p),
            Expr::And(cs) | Expr::Or(cs) => {
                for c in cs {
                    c.for_each_predicate(f);
                }
            }
            Expr::Not(c) => c.for_each_predicate(f),
        }
    }

    /// Collects the predicates of the expression in syntactic order
    /// (duplicates included).
    pub fn predicates(&self) -> Vec<&Predicate> {
        let mut out = Vec::new();
        collect(self, &mut out);
        return out;

        fn collect<'a>(e: &'a Expr, out: &mut Vec<&'a Predicate>) {
            match e {
                Expr::Pred(p) => out.push(p),
                Expr::And(cs) | Expr::Or(cs) => cs.iter().for_each(|c| collect(c, out)),
                Expr::Not(c) => collect(c, out),
            }
        }
    }

    /// Number of predicate leaves (duplicates counted).
    pub fn predicate_count(&self) -> usize {
        match self {
            Expr::Pred(_) => 1,
            Expr::And(cs) | Expr::Or(cs) => cs.iter().map(Expr::predicate_count).sum(),
            Expr::Not(c) => c.predicate_count(),
        }
    }

    /// Height of the tree; a lone predicate has depth 1. Iterative, so
    /// it measures a tree of any depth without recursing.
    pub fn depth(&self) -> usize {
        let mut deepest = 0;
        let mut pending = vec![(self, 1)];
        while let Some((node, depth)) = pending.pop() {
            deepest = deepest.max(depth);
            match node {
                Expr::Pred(_) => {}
                Expr::And(cs) | Expr::Or(cs) => pending.extend(cs.iter().map(|c| (c, depth + 1))),
                Expr::Not(c) => pending.push((c, depth + 1)),
            }
        }
        deepest
    }

    /// Total node count (inner nodes + leaves).
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Pred(_) => 1,
            Expr::And(cs) | Expr::Or(cs) => 1 + cs.iter().map(Expr::node_count).sum::<usize>(),
            Expr::Not(c) => 1 + c.node_count(),
        }
    }

    /// Whether the expression contains a `Not` node.
    pub fn contains_not(&self) -> bool {
        match self {
            Expr::Pred(_) => false,
            Expr::And(cs) | Expr::Or(cs) => cs.iter().any(Expr::contains_not),
            Expr::Not(_) => true,
        }
    }

    /// Whether the expression is a pure conjunction of predicates — the
    /// only form classic matching algorithms support natively.
    pub fn is_conjunctive(&self) -> bool {
        match self {
            Expr::Pred(_) => true,
            Expr::And(cs) => cs.iter().all(|c| matches!(c, Expr::Pred(_))),
            _ => false,
        }
    }
}

impl From<Predicate> for Expr {
    fn from(p: Predicate) -> Self {
        Expr::Pred(p)
    }
}

/// Builds a negation. Double negation is collapsed.
///
/// `Not` is in the std prelude, so both `!expr` and the constructor
/// spelling `!(expr)` resolve here.
impl std::ops::Not for Expr {
    type Output = Expr;

    fn not(self) -> Expr {
        match self {
            Expr::Not(inner) => *inner,
            other => Expr::Not(Box::new(other)),
        }
    }
}

impl fmt::Display for Expr {
    /// Prints the expression in the subscription language; the output
    /// re-parses to an equal expression (round-trip tested).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn needs_parens(child: &Expr, parent_is_and: bool) -> bool {
            match child {
                Expr::Or(_) => parent_is_and,
                _ => false,
            }
        }
        match self {
            Expr::Pred(p) => write!(f, "{p}"),
            Expr::And(cs) => {
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " and ")?;
                    }
                    if needs_parens(c, true) {
                        write!(f, "({c})")?;
                    } else {
                        write!(f, "{c}")?;
                    }
                }
                Ok(())
            }
            Expr::Or(cs) => {
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " or ")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
            Expr::Not(c) => match c.as_ref() {
                Expr::Pred(p) => write!(f, "not {p}"),
                inner => write!(f, "not ({inner})"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompareOp;

    fn p(attr: &str, op: CompareOp, v: i64) -> Expr {
        Expr::pred(Predicate::new(attr, op, v))
    }

    fn fig1() -> Expr {
        // (a>10 or a<=5 or b=1) and (c<=20 or c=30 or d=5)
        Expr::and(vec![
            Expr::or(vec![
                p("a", CompareOp::Gt, 10),
                p("a", CompareOp::Le, 5),
                p("b", CompareOp::Eq, 1),
            ]),
            Expr::or(vec![
                p("c", CompareOp::Le, 20),
                p("c", CompareOp::Eq, 30),
                p("d", CompareOp::Eq, 5),
            ]),
        ])
    }

    #[test]
    fn and_or_normalise_singletons() {
        let x = p("a", CompareOp::Eq, 1);
        assert_eq!(Expr::and(vec![x.clone()]), x);
        assert_eq!(Expr::or(vec![x.clone()]), x);
    }

    #[test]
    #[should_panic(expected = "at least one child")]
    fn empty_and_panics() {
        let _ = Expr::and(vec![]);
    }

    #[test]
    fn double_negation_collapses() {
        let x = p("a", CompareOp::Eq, 1);
        assert_eq!(!(!(x.clone())), x);
    }

    #[test]
    fn fig1_counts() {
        let e = fig1();
        assert_eq!(e.predicate_count(), 6);
        assert_eq!(e.depth(), 3);
        assert_eq!(e.node_count(), 9);
        assert!(!e.contains_not());
        assert!(!e.is_conjunctive());
    }

    #[test]
    fn fig1_eval_semantics() {
        let e = fig1();
        let hit = Event::builder().attr("a", 12_i64).attr("c", 30_i64).build();
        assert!(e.eval_event(&hit));
        // left group satisfied, right group not
        let miss = Event::builder().attr("a", 12_i64).attr("c", 25_i64).build();
        assert!(!e.eval_event(&miss));
        // no attributes at all
        assert!(!e.eval_event(&Event::builder().build()));
    }

    #[test]
    fn eval_with_truth_assignment() {
        let e = Expr::or(vec![p("a", CompareOp::Eq, 1), !(p("b", CompareOp::Eq, 2))]);
        // oracle: everything false => not(b=2) is true => expression true
        assert!(e.eval_with(&mut |_| false));
        // oracle: everything true => a=1 true => true
        assert!(e.eval_with(&mut |_| true));
    }

    #[test]
    fn predicates_in_syntactic_order() {
        let e = fig1();
        let attrs: Vec<_> = e.predicates().iter().map(|p| p.attr().to_owned()).collect();
        assert_eq!(attrs, vec!["a", "a", "b", "c", "c", "d"]);
    }

    #[test]
    fn is_conjunctive_detects_flat_ands() {
        let conj = Expr::and(vec![p("a", CompareOp::Eq, 1), p("b", CompareOp::Eq, 2)]);
        assert!(conj.is_conjunctive());
        assert!(p("a", CompareOp::Eq, 1).is_conjunctive());
        assert!(!fig1().is_conjunctive());
        let nested = Expr::and(vec![p("a", CompareOp::Eq, 1), !(p("b", CompareOp::Eq, 2))]);
        assert!(!nested.is_conjunctive());
    }

    #[test]
    fn display_round_trips() {
        for e in [
            fig1(),
            !(fig1()),
            Expr::or(vec![
                Expr::and(vec![p("a", CompareOp::Eq, 1), p("b", CompareOp::Ne, 2)]),
                !(p("c", CompareOp::Lt, 3)),
            ]),
        ] {
            let printed = e.to_string();
            let reparsed = Expr::parse(&printed).unwrap_or_else(|err| {
                panic!("failed to reparse `{printed}`: {err}");
            });
            assert_eq!(reparsed, e, "round-trip of `{printed}`");
        }
    }
}
