//! Property-based tests for the subscription language.
//!
//! The central invariant: every transformation in
//! `boolmatch_expr::transform` preserves evaluation semantics on *total*
//! truth assignments (an oracle that answers every predicate, with
//! complemented operators answering oppositely).

use proptest::prelude::*;

use boolmatch_expr::{transform, CompareOp, Expr, Predicate};

const ATTRS: u32 = 6;
const VALUES: i64 = 4;

fn arb_pred() -> impl Strategy<Value = Predicate> {
    (0..ATTRS, 0..VALUES).prop_map(|(a, v)| Predicate::new(&format!("x{a}"), CompareOp::Eq, v))
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = arb_pred().prop_map(Expr::pred);
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Expr::And),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Expr::Or),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    })
}

/// A total assignment over the predicate universe, driven by the bits of
/// a seed. `Eq` predicates read their bit; `Ne` predicates (introduced
/// by negation elimination) read its inverse.
fn oracle(seed: u32) -> impl FnMut(&Predicate) -> bool {
    move |p: &Predicate| {
        let attr_idx: u32 = p.attr()[1..].parse().expect("attr is x<digit>");
        let value = p.value().as_int().expect("int constant");
        let bit = seed >> (attr_idx * VALUES as u32 + value as u32) & 1 != 0;
        match p.op() {
            CompareOp::Eq => bit,
            CompareOp::Ne => !bit,
            other => panic!("unexpected operator {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn nnf_is_not_free_and_equivalent(e in arb_expr(), seed in any::<u32>()) {
        let nnf = transform::eliminate_not(&e);
        prop_assert!(!nnf.contains_not());
        prop_assert_eq!(e.eval_with(&mut oracle(seed)), nnf.eval_with(&mut oracle(seed)));
    }

    #[test]
    fn dnf_is_equivalent(e in arb_expr(), seed in any::<u32>()) {
        let estimate = transform::estimate_dnf_size(&e);
        prop_assume!(estimate <= 4096);
        let dnf = transform::to_dnf(&e, 4096).unwrap();
        prop_assert_eq!(dnf.len() as u128, estimate);
        prop_assert_eq!(
            e.eval_with(&mut oracle(seed)),
            dnf.eval_with(&mut oracle(seed))
        );
    }

    #[test]
    fn dnf_prune_preserves_semantics(e in arb_expr(), seed in any::<u32>()) {
        prop_assume!(transform::estimate_dnf_size(&e) <= 1024);
        let mut dnf = transform::to_dnf(&e, 1024).unwrap();
        let before = dnf.eval_with(&mut oracle(seed));
        dnf.prune();
        prop_assert_eq!(before, dnf.eval_with(&mut oracle(seed)));
    }

    #[test]
    fn compact_is_flat_and_equivalent(e in arb_expr(), seed in any::<u32>()) {
        let c = transform::compact(&e);
        prop_assert_eq!(e.eval_with(&mut oracle(seed)), c.eval_with(&mut oracle(seed)));
        assert_no_same_op_nesting(&c);
    }

    #[test]
    fn simplify_is_equivalent_and_idempotent(e in arb_expr(), seed in any::<u32>()) {
        let s = transform::simplify(&e);
        prop_assert_eq!(e.eval_with(&mut oracle(seed)), s.eval_with(&mut oracle(seed)));
        prop_assert_eq!(transform::simplify(&s), s.clone());
    }

    #[test]
    fn display_parse_round_trip(e in arb_expr()) {
        // Display flattens same-op chains the way the parser does, so
        // round-trip structural equality holds for compacted trees.
        let c = transform::compact(&e);
        let printed = c.to_string();
        let reparsed = Expr::parse(&printed)
            .unwrap_or_else(|err| panic!("reparse of `{printed}` failed: {err}"));
        prop_assert_eq!(reparsed, c);
    }

    #[test]
    fn predicate_count_consistent_with_collection(e in arb_expr()) {
        prop_assert_eq!(e.predicate_count(), e.predicates().len());
        let mut n = 0usize;
        e.for_each_predicate(&mut |_| n += 1);
        prop_assert_eq!(n, e.predicate_count());
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(s in "\\PC{0,60}") {
        let _ = Expr::parse(&s);
    }

    #[test]
    fn reorder_preserves_semantics(e in arb_expr(), seed in any::<u32>()) {
        let r = transform::reorder(&e);
        prop_assert_eq!(e.eval_with(&mut oracle(seed)), r.eval_with(&mut oracle(seed)));
        prop_assert_eq!(r.predicate_count(), e.predicate_count());
    }
}

fn assert_no_same_op_nesting(e: &Expr) {
    match e {
        Expr::Pred(_) => {}
        Expr::And(cs) => {
            for c in cs {
                assert!(!matches!(c, Expr::And(_)), "And nested in And: {e}");
                assert_no_same_op_nesting(c);
            }
        }
        Expr::Or(cs) => {
            for c in cs {
                assert!(!matches!(c, Expr::Or(_)), "Or nested in Or: {e}");
                assert_no_same_op_nesting(c);
            }
        }
        Expr::Not(c) => {
            assert!(!matches!(c.as_ref(), Expr::Not(_)), "Not nested in Not");
            assert_no_same_op_nesting(c);
        }
    }
}
