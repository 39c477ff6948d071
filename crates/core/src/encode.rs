//! Byte encoding of subscription trees.
//!
//! The paper (§3.3) encodes subscription trees "on a byte level": one
//! byte for a Boolean operator, one byte for the child count of an
//! inner node, two bytes per child for its width, and four bytes per
//! predicate identifier. This module implements exactly that layout
//! plus a one-byte *node tag* that makes leaf/inner discrimination
//! explicit — the paper's layout does not say how a reader tells a
//! predicate id from an operator byte, and one byte per leaf settles it
//! without reserving id values:
//!
//! ```text
//! leaf  := TAG_PRED  id:u32le                     (5 bytes)
//! inner := tag:u8  n:u8  width[n]:u16le  child[n] (2 + 2n + Σwidth)
//! ```
//!
//! An inner node is an AND or an OR: the engine encodes negation
//! normal forms, whose negations live in the leaves' complemented
//! operators, so there is no NOT node.
//!
//! Child widths let the evaluator skip an already-decided child without
//! walking it, which is what makes short-circuit evaluation cheap.
//! Nodes hold at most 255 children; wider n-ary nodes are
//! transparently re-nested into same-operator chunks (semantics
//! preserved by associativity).

use std::error::Error;
use std::fmt;

use crate::{FulfilledSet, PredicateId};

/// Node tag of a predicate leaf.
pub(crate) const TAG_PRED: u8 = 0;
/// Node tag of an AND inner node.
pub(crate) const TAG_AND: u8 = 1;
/// Node tag of an OR inner node.
pub(crate) const TAG_OR: u8 = 2;

/// A subscription tree whose leaves are interned [`PredicateId`]s —
/// the form the non-canonical engine compiles the negation normal form
/// of an [`boolmatch_expr::Expr`] into before byte-encoding it. A
/// negated leaf is interned as its complement, so there is no `Not`.
///
/// # Examples
///
/// ```
/// use boolmatch_core::{encode, decode, IdExpr, PredicateId};
///
/// fn p(i: usize) -> IdExpr { IdExpr::Pred(PredicateId::from_index(i)) }
/// let tree = IdExpr::And(vec![IdExpr::Or(vec![p(0), p(1)]), p(2)]);
/// let bytes = encode(&tree)?;
/// assert_eq!(decode(&bytes)?, tree);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdExpr {
    /// Leaf: an interned predicate.
    Pred(PredicateId),
    /// N-ary conjunction (at least one child).
    And(Vec<IdExpr>),
    /// N-ary disjunction (at least one child).
    Or(Vec<IdExpr>),
}

impl IdExpr {
    /// Evaluates against a fulfilled-predicate set. This is the boxed
    /// reference evaluator the encoded evaluators are tested against.
    pub fn eval(&self, set: &FulfilledSet) -> bool {
        match self {
            IdExpr::Pred(id) => set.contains(*id),
            IdExpr::And(cs) => cs.iter().all(|c| c.eval(set)),
            IdExpr::Or(cs) => cs.iter().any(|c| c.eval(set)),
        }
    }

    /// Number of predicate leaves (duplicates counted).
    pub fn leaf_count(&self) -> usize {
        match self {
            IdExpr::Pred(_) => 1,
            IdExpr::And(cs) | IdExpr::Or(cs) => cs.iter().map(IdExpr::leaf_count).sum(),
        }
    }

    /// Visits every leaf predicate id, including duplicates.
    pub fn for_each_leaf(&self, f: &mut impl FnMut(PredicateId)) {
        match self {
            IdExpr::Pred(id) => f(*id),
            IdExpr::And(cs) | IdExpr::Or(cs) => {
                cs.iter().for_each(|c| c.for_each_leaf(f));
            }
        }
    }
}

/// Encoding was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// A child subtree encodes to more than `u16::MAX` bytes, which the
    /// paper's two-byte width field cannot represent. Carries the
    /// offending width.
    SubtreeTooWide {
        /// The encoded width that overflowed the field.
        width: usize,
    },
    /// An inner node has no children (malformed input; `boolmatch-expr`
    /// constructors never produce this).
    EmptyNode,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::SubtreeTooWide { width } => write!(
                f,
                "child subtree encodes to {width} bytes, over the 2-byte width limit of 65535"
            ),
            EncodeError::EmptyNode => write!(f, "inner node with no children"),
        }
    }
}

impl Error for EncodeError {}

/// A byte sequence failed to decode as a subscription tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended inside a node.
    UnexpectedEnd,
    /// An unknown node tag was found at the given offset.
    BadTag {
        /// The unknown tag byte.
        tag: u8,
        /// Offset of the tag in the input.
        offset: usize,
    },
    /// A node's declared child widths disagree with the input length.
    WidthMismatch,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "input ended inside a node"),
            DecodeError::BadTag { tag, offset } => {
                write!(f, "unknown node tag {tag:#04x} at offset {offset}")
            }
            DecodeError::WidthMismatch => write!(f, "child widths disagree with input length"),
        }
    }
}

impl Error for DecodeError {}

/// Maximum children per encoded node (one-byte child count, §3.3).
const MAX_CHILDREN: usize = 255;

/// Encodes a subscription tree into the byte layout described in the
/// module documentation ([`crate::encode`]-level docs).
///
/// # Errors
///
/// Returns [`EncodeError::SubtreeTooWide`] when a child subtree exceeds
/// 65 535 bytes (≈13 000 predicates — far beyond the paper's workloads)
/// and [`EncodeError::EmptyNode`] on malformed input.
pub fn encode(tree: &IdExpr) -> Result<Vec<u8>, EncodeError> {
    let mut out = Vec::with_capacity(encoded_size_estimate(tree));
    encode_into(tree, &mut out)?;
    Ok(out)
}

fn encoded_size_estimate(tree: &IdExpr) -> usize {
    match tree {
        IdExpr::Pred(_) => 5,
        IdExpr::And(cs) | IdExpr::Or(cs) => {
            2 + 2 * cs.len() + cs.iter().map(encoded_size_estimate).sum::<usize>()
        }
    }
}

fn encode_into(tree: &IdExpr, out: &mut Vec<u8>) -> Result<(), EncodeError> {
    match tree {
        IdExpr::Pred(id) => {
            out.push(TAG_PRED);
            out.extend_from_slice(&id.raw().to_le_bytes());
            Ok(())
        }
        IdExpr::And(cs) => encode_inner(TAG_AND, cs, out),
        IdExpr::Or(cs) => encode_inner(TAG_OR, cs, out),
    }
}

fn encode_inner(tag: u8, children: &[IdExpr], out: &mut Vec<u8>) -> Result<(), EncodeError> {
    if children.is_empty() {
        return Err(EncodeError::EmptyNode);
    }
    if children.len() > MAX_CHILDREN {
        // Re-nest into same-operator chunks.
        let chunked: Vec<IdExpr> = children
            .chunks(MAX_CHILDREN)
            .map(|chunk| {
                if tag == TAG_AND {
                    IdExpr::And(chunk.to_vec())
                } else {
                    IdExpr::Or(chunk.to_vec())
                }
            })
            .collect();
        return encode_inner(tag, &chunked, out);
    }

    out.push(tag);
    out.push(children.len() as u8);
    let widths_at = out.len();
    // Reserve the width table; fill it in after encoding the children.
    out.resize(widths_at + 2 * children.len(), 0);
    for (i, child) in children.iter().enumerate() {
        let start = out.len();
        encode_into(child, out)?;
        let width = out.len() - start;
        let width16 = u16::try_from(width).map_err(|_| EncodeError::SubtreeTooWide { width })?;
        out[widths_at + 2 * i..widths_at + 2 * i + 2].copy_from_slice(&width16.to_le_bytes());
    }
    Ok(())
}

/// Decodes a byte sequence produced by [`encode`].
///
/// # Errors
///
/// Returns a [`DecodeError`] describing the malformation. Note that
/// chunked nodes (created for >255 children) decode to their nested
/// form, so `decode(encode(t))` equals `t` only for trees already
/// within the 255-child limit; semantics are preserved in all cases.
pub fn decode(bytes: &[u8]) -> Result<IdExpr, DecodeError> {
    let (tree, consumed) = decode_node(bytes, 0)?;
    if consumed != bytes.len() {
        return Err(DecodeError::WidthMismatch);
    }
    Ok(tree)
}

fn decode_node(bytes: &[u8], offset: usize) -> Result<(IdExpr, usize), DecodeError> {
    let tag = *bytes.get(offset).ok_or(DecodeError::UnexpectedEnd)?;
    match tag {
        TAG_PRED => {
            let raw = bytes
                .get(offset + 1..offset + 5)
                .ok_or(DecodeError::UnexpectedEnd)?;
            let id = u32::from_le_bytes(raw.try_into().expect("4 bytes"));
            Ok((IdExpr::Pred(PredicateId::from_raw(id)), 5))
        }
        TAG_AND | TAG_OR => {
            let n = *bytes.get(offset + 1).ok_or(DecodeError::UnexpectedEnd)? as usize;
            if n == 0 {
                return Err(DecodeError::WidthMismatch);
            }
            let mut children = Vec::with_capacity(n);
            let widths_at = offset + 2;
            let mut child_at = widths_at + 2 * n;
            for i in 0..n {
                let w = bytes
                    .get(widths_at + 2 * i..widths_at + 2 * i + 2)
                    .ok_or(DecodeError::UnexpectedEnd)?;
                let width = u16::from_le_bytes(w.try_into().expect("2 bytes")) as usize;
                let (child, consumed) = decode_node(bytes, child_at)?;
                if consumed != width {
                    return Err(DecodeError::WidthMismatch);
                }
                children.push(child);
                child_at += width;
            }
            let node = if tag == TAG_AND {
                IdExpr::And(children)
            } else {
                IdExpr::Or(children)
            };
            Ok((node, child_at - offset))
        }
        other => Err(DecodeError::BadTag { tag: other, offset }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> IdExpr {
        IdExpr::Pred(PredicateId::from_index(i))
    }

    #[test]
    fn leaf_encoding_layout() {
        let bytes = encode(&p(0x01020304)).unwrap();
        assert_eq!(bytes, vec![TAG_PRED, 0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn inner_encoding_layout() {
        // AND of two leaves: tag, n=2, w0=5, w1=5, leaf, leaf
        let bytes = encode(&IdExpr::And(vec![p(1), p(2)])).unwrap();
        assert_eq!(bytes.len(), 2 + 4 + 10);
        assert_eq!(bytes[0], TAG_AND);
        assert_eq!(bytes[1], 2);
        assert_eq!(u16::from_le_bytes([bytes[2], bytes[3]]), 5);
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 5);
    }

    #[test]
    fn round_trip_various_shapes() {
        let trees = [
            p(0),
            IdExpr::And(vec![p(0), p(1), p(2)]),
            IdExpr::Or(vec![
                IdExpr::And(vec![p(0), p(1)]),
                p(2),
                IdExpr::Or(vec![p(3), p(4)]),
            ]),
        ];
        for tree in trees {
            let bytes = encode(&tree).unwrap();
            assert_eq!(decode(&bytes).unwrap(), tree);
        }
    }

    #[test]
    fn wide_nodes_are_chunked_and_equivalent() {
        let children: Vec<IdExpr> = (0..1000).map(p).collect();
        let tree = IdExpr::Or(children);
        let bytes = encode(&tree).unwrap();
        let decoded = decode(&bytes).unwrap();
        // Chunked shape differs, semantics agree.
        let mut set = FulfilledSet::with_universe(1000);
        assert!(!decoded.eval(&set));
        set.insert(PredicateId::from_index(999));
        assert!(decoded.eval(&set));
        assert!(tree.eval(&set));
        assert_eq!(decoded.leaf_count(), 1000);
    }

    #[test]
    fn empty_node_is_rejected() {
        assert_eq!(
            encode(&IdExpr::And(vec![])).unwrap_err(),
            EncodeError::EmptyNode
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(decode(&[]), Err(DecodeError::UnexpectedEnd)));
        assert!(matches!(
            decode(&[9, 1, 2]),
            Err(DecodeError::BadTag { tag: 9, offset: 0 })
        ));
        assert!(matches!(
            decode(&[TAG_PRED, 1]),
            Err(DecodeError::UnexpectedEnd)
        ));
        // Trailing bytes after a valid leaf.
        let mut bytes = encode(&p(1)).unwrap();
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn tag_3_is_a_bad_tag() {
        // Trees are negation-free, so 3 is no node tag: bytes carrying
        // it are refused at the root and below it.
        let leaf = encode(&p(0)).unwrap();
        let mut bytes = vec![3, 1, 5, 0];
        bytes.extend_from_slice(&leaf);
        assert_eq!(
            decode(&bytes),
            Err(DecodeError::BadTag { tag: 3, offset: 0 })
        );
        let mut nested = vec![TAG_AND, 1, 9, 0];
        nested.extend_from_slice(&bytes);
        assert_eq!(
            decode(&nested),
            Err(DecodeError::BadTag { tag: 3, offset: 4 })
        );
    }

    #[test]
    fn paper_fig1_encoding_size() {
        // (a>10 ∨ a<=5 ∨ b=1) ∧ (c<=20 ∨ c=30 ∨ d=5): with our 1-byte
        // tag the size is: root 2+4, two ORs (2+6) each, six leaves 5B
        // each = 6 + 16 + 30 = 52 bytes.
        let or1 = IdExpr::Or(vec![p(0), p(1), p(2)]);
        let or2 = IdExpr::Or(vec![p(3), p(4), p(5)]);
        let tree = IdExpr::And(vec![or1, or2]);
        assert_eq!(encode(&tree).unwrap().len(), 52);
    }

    #[test]
    fn size_estimate_is_exact_for_narrow_trees() {
        let tree = IdExpr::And(vec![IdExpr::Or(vec![p(0), p(1)]), p(2)]);
        assert_eq!(encoded_size_estimate(&tree), encode(&tree).unwrap().len());
    }
}
