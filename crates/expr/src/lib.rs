//! The subscription language of the `boolmatch` toolkit.
//!
//! Subscriptions in the reproduced paper (*Bittner & Hinze, ICDCSW'05*)
//! are **arbitrary Boolean expressions** over attribute–operator–value
//! *predicates*. This crate provides:
//!
//! * [`Predicate`] and [`CompareOp`] — the leaf filters,
//! * [`Expr`] — the n-ary AND/OR/NOT expression tree,
//! * a text [`parser`] for the subscription language
//!   (`"(a > 10 or a <= 5 or b = 1) and (c <= 20 or c = 30 or d = 5)"`),
//! * [`transform`] — negation-normal form (flattened into the n-ary
//!   form as it is built), **DNF transformation** (what canonical
//!   engines are forced to do), plus DNF-size estimation so the
//!   exponential blow-up can be detected *before* it happens.
//!
//! # Examples
//!
//! ```
//! use boolmatch_expr::{Expr, transform};
//! use boolmatch_types::Event;
//!
//! // The example subscription from Fig. 1 of the paper.
//! let s = Expr::parse("(a > 10 or a <= 5 or b = 1) and (c <= 20 or c = 30 or d = 5)")?;
//! assert_eq!(s.predicate_count(), 6);
//!
//! // Its DNF has 3 x 3 = 9 conjunctions, as the paper states.
//! let dnf = transform::to_dnf(&s, 1_000)?;
//! assert_eq!(dnf.len(), 9);
//!
//! let event = Event::builder().attr("a", 12_i64).attr("c", 30_i64).build();
//! assert!(s.eval_event(&event));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ast;
pub mod parser;
mod predicate;
pub mod transform;

pub use ast::{Expr, MAX_DEPTH};
pub use parser::{parse, ParseError};
pub use predicate::{CompareOp, Predicate};
pub use transform::{Dnf, DnfError};
