//! One-dimensional index structures for the `boolmatch` toolkit.
//!
//! The reproduced paper (Bittner & Hinze, ICDCSW'05, §3.2) performs
//! *predicate matching* — the first phase of event filtering — with
//! one-dimensional indexes: "point predicates utilise hash tables, for
//! range predicates we deploy B+ trees". This crate provides those
//! substrates, built from scratch:
//!
//! * [`BPlusTree`] — an in-memory B+ tree with insertion, deletion
//!   (with rebalancing), point lookup and range iteration,
//! * [`HashIndex`] — a hash multimap from [`boolmatch_types::Value`]
//!   to postings,
//! * [`PredicateIndex`] — the per-attribute, per-operator composite the
//!   engines use: given an event, it yields the ids of **all fulfilled
//!   predicates** in one pass over the event's attributes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bptree;
mod hash_index;
mod predicate_index;

pub use bptree::BPlusTree;
pub use hash_index::HashIndex;
pub use predicate_index::{PredicateIndex, PredicateIndexStats};
