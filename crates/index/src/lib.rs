//! The phase-1 predicate index of the `boolmatch` toolkit.
//!
//! The reproduced paper (Bittner & Hinze, ICDCSW'05, §3.2) performs
//! *predicate matching* — the first phase of event filtering — with
//! one-dimensional indexes: "point predicates utilise hash tables, for
//! range predicates we deploy B+ trees". [`PredicateIndex`] is that
//! per-attribute, per-operator composite: given an event, it yields the
//! ids of **all fulfilled predicates** in one pass over the event's
//! attributes. Its substrates are std's: a `HashMap` per attribute for
//! point predicates and a `BTreeMap` (an ordered B-tree with the same
//! range scans) per attribute and direction for range predicates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod predicate_index;

pub use predicate_index::{PredicateIndex, PredicateIndexStats};
