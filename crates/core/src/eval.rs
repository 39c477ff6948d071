//! Evaluation of encoded subscription trees against a fulfilled set.
//!
//! [`eval_iterative`] is an explicit-stack machine immune to deep
//! trees. It short-circuits: an `AND` stops at the first false child,
//! an `OR` at the first true one, using the encoded child widths to
//! skip the rest of the node without walking it. [`crate::IdExpr::eval`]
//! over the decoded tree is the reference it is tested against, here
//! and on the generated-tree corpus in the non-canonical engine's
//! tests.

use crate::encode::{TAG_AND, TAG_OR, TAG_PRED};
use crate::{FulfilledSet, PredicateId};

// lint: hot-path — tree evaluation runs once per candidate
// subscription per event. Malformed-input panics below are the
// documented contract ("Panics on malformed input"): engine-encoded
// trees are always well-formed, and foreign bytes go through
// `crate::decode` first.

#[inline]
fn leaf_id(bytes: &[u8], offset: usize) -> PredicateId {
    let raw: [u8; 4] = bytes[offset + 1..offset + 5]
        .try_into()
        // lint: allow(panic-policy, reason = "documented contract: panics on malformed trees; engine-encoded trees are well-formed")
        .expect("encoded tree is well-formed");
    PredicateId::from_raw(u32::from_le_bytes(raw))
}

#[inline]
fn child_width(bytes: &[u8], widths_at: usize, i: usize) -> usize {
    u16::from_le_bytes(
        bytes[widths_at + 2 * i..widths_at + 2 * i + 2]
            .try_into()
            // lint: allow(panic-policy, reason = "documented contract: panics on malformed trees; engine-encoded trees are well-formed")
            .expect("encoded tree is well-formed"),
    ) as usize
}

/// A stack frame of the iterative evaluator: one partially evaluated
/// inner node.
#[derive(Debug)]
pub(crate) struct Frame {
    tag: u8,
    /// Offset of the width table.
    widths_at: usize,
    /// Offset of the next child to evaluate.
    next_child: usize,
    /// Children evaluated so far.
    i: usize,
    /// Total children.
    n: usize,
}

/// Explicit-stack evaluator, safe for arbitrarily deep trees. Pass a
/// reusable `stack` buffer to avoid per-call allocation (the engine
/// does).
///
/// # Panics
///
/// Panics on malformed input (engine-encoded trees are always
/// well-formed; use [`crate::decode`] to validate foreign bytes).
pub fn eval_iterative(bytes: &[u8], set: &FulfilledSet) -> bool {
    let mut stack = Vec::with_capacity(8);
    eval_iterative_with(bytes, |id| set.contains(id), &mut stack)
}

/// [`eval_iterative`] over any leaf test: `leaf` decides each predicate
/// the evaluation reaches (short-circuited ones are never asked).
pub(crate) fn eval_iterative_with(
    bytes: &[u8],
    mut leaf: impl FnMut(PredicateId) -> bool,
    stack: &mut Vec<Frame>,
) -> bool {
    stack.clear();
    let mut offset = 0usize;
    'descend: loop {
        // Evaluate the node at `offset` until a value is produced.
        let value = loop {
            match bytes[offset] {
                TAG_PRED => break leaf(leaf_id(bytes, offset)),
                tag => {
                    let n = bytes[offset + 1] as usize;
                    let widths_at = offset + 2;
                    let first_child = widths_at + 2 * n;
                    stack.push(Frame {
                        tag,
                        widths_at,
                        next_child: first_child,
                        i: 0,
                        n,
                    });
                    offset = first_child;
                }
            }
        };

        // Propagate the value up, short-circuiting as we go.
        loop {
            let Some(frame) = stack.last_mut() else {
                return value;
            };
            frame.i += 1;
            let done = match frame.tag {
                TAG_AND => !value || frame.i == frame.n,
                TAG_OR => value || frame.i == frame.n,
                // lint: allow(panic-policy, reason = "documented contract: panics on malformed trees; encode emits no other tag")
                other => unreachable!("bad tag {other} in encoded tree"),
            };
            if done {
                stack.pop();
                continue;
            }
            // Schedule the next child of this frame.
            let w = child_width(bytes, frame.widths_at, frame.i - 1);
            frame.next_child += w;
            offset = frame.next_child;
            continue 'descend;
        }
    }
}

// Re-exported privately for the engine's reusable scratch.
pub(crate) use Frame as EvalFrame;

// lint: end-hot-path

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode, IdExpr};

    fn p(i: usize) -> IdExpr {
        IdExpr::Pred(PredicateId::from_index(i))
    }

    fn set_of(ids: &[usize]) -> FulfilledSet {
        FulfilledSet::from_ids(ids.iter().map(|&i| PredicateId::from_index(i)), 1024)
    }

    fn both(tree: &IdExpr, set: &FulfilledSet) -> bool {
        let bytes = encode(tree).unwrap();
        let reference = tree.eval(set);
        assert_eq!(
            eval_iterative(&bytes, set),
            reference,
            "iterative vs reference for {tree:?}"
        );
        reference
    }

    #[test]
    fn leaf_evaluation() {
        assert!(both(&p(3), &set_of(&[3])));
        assert!(!both(&p(3), &set_of(&[4])));
        assert!(!both(&p(3), &set_of(&[])));
    }

    #[test]
    fn and_or_not_semantics() {
        let tree = IdExpr::And(vec![IdExpr::Or(vec![p(0), p(1)]), p(2)]);
        assert!(both(&tree, &set_of(&[0, 2])));
        assert!(both(&tree, &set_of(&[1, 2])));
        assert!(!both(&tree, &set_of(&[0, 1])));
        assert!(!both(&tree, &set_of(&[2])));

        // Its negation is encoded as a negation normal form: De Morgan
        // over the complements p3, p4, p5 of p0, p1, p2. With every
        // predicate's attribute present, a set holds exactly one of
        // each pair.
        let neg = IdExpr::Or(vec![IdExpr::And(vec![p(3), p(4)]), p(5)]);
        assert!(!both(&neg, &set_of(&[0, 4, 2])));
        assert!(both(&neg, &set_of(&[3, 4, 2])));
        // Attributes of p0 and p1 missing: neither they nor their
        // complements hold, so neither the tree nor its negation does.
        assert!(!both(&tree, &set_of(&[2])));
        assert!(!both(&neg, &set_of(&[2])));
    }

    #[test]
    fn paper_fig1_tree() {
        // (p0 ∨ p1 ∨ p2) ∧ (p3 ∨ p4 ∨ p5)
        let tree = IdExpr::And(vec![
            IdExpr::Or(vec![p(0), p(1), p(2)]),
            IdExpr::Or(vec![p(3), p(4), p(5)]),
        ]);
        assert!(both(&tree, &set_of(&[0, 4])));
        assert!(both(&tree, &set_of(&[2, 5])));
        assert!(!both(&tree, &set_of(&[0, 1, 2])));
        assert!(!both(&tree, &set_of(&[3, 4, 5])));
        assert!(!both(&tree, &set_of(&[])));
    }

    #[test]
    fn mixed_deep_tree() {
        // alternating and/or chain
        let mut tree = p(0);
        for d in 1..200 {
            tree = if d % 2 == 0 {
                IdExpr::And(vec![tree, p(d)])
            } else {
                IdExpr::Or(vec![tree, p(d)])
            };
        }
        assert!(both(&tree, &set_of(&[199])));
        assert!(!both(&tree, &set_of(&[])));
    }

    #[test]
    fn chunked_wide_node_evaluates() {
        let tree = IdExpr::Or((0..600).map(p).collect());
        let bytes = encode(&tree).unwrap();
        let mut wide_set = FulfilledSet::with_universe(600);
        assert!(!eval_iterative(&bytes, &wide_set));
        wide_set.insert(PredicateId::from_index(599));
        assert!(eval_iterative(&bytes, &wide_set));
    }
}
