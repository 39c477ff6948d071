//! The phase-1 predicate index of the `boolmatch` toolkit.
//!
//! The reproduced paper (Bittner & Hinze, ICDCSW'05, §3.2) performs
//! *predicate matching* — the first phase of event filtering — with
//! one-dimensional indexes: "point predicates utilise hash tables, for
//! range predicates we deploy B+ trees". [`PredicateIndex`] is that
//! per-attribute, per-operator composite: given an event, it yields the
//! ids of **all fulfilled predicates** in one pass over the event's
//! attributes. Point predicates sit in a std `HashMap` per attribute.
//! Range predicates sit in sorted columns, one per attribute, operator
//! and value kind: the constants and their ids in two parallel arrays
//! sorted by constant, which is a B+ tree's leaf level without the
//! inner nodes. An event value's fulfilled range predicates are then
//! one binary search and one contiguous run per column, plus a short
//! unsorted tail that takes new entries until it is merged in.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod predicate_index;

pub use predicate_index::{PredicateIndex, PredicateIndexStats};
