//! Expression transformations.
//!
//! This module is where the paper's central tension lives:
//!
//! * [`to_dnf`] is the **canonical transformation** that classic
//!   conjunctive-only matchers force on arbitrary Boolean subscriptions.
//!   It is worst-case exponential — [`estimate_dnf_size`] computes the
//!   exact number of conjunctions *before* expanding, so callers can
//!   refuse (the paper's §2.2 argument made executable).
//! * [`eliminate_not`] rewrites an expression into its negation normal
//!   form by pushing negation into the leaves (De Morgan) and
//!   complementing the leaf operators. It is the meaning
//!   [`crate::Expr::eval_event`] gives `not`, and the form every engine
//!   stores: still linear in size, so the non-canonical engine encodes
//!   it as the subscription tree.
//! * [`compact`] flattens nested same-operator nodes into the n-ary form
//!   the non-canonical engine encodes (paper §3.1: "binary operators are
//!   treated as n-ary ones due to compacting subscription trees");
//!   [`eliminate_not`] flattens the same way as it builds.
//!
//! All transformations preserve evaluation semantics; the tests in this
//! crate verify equivalence on truth assignments.

mod cost;
mod dnf;
mod nnf;
mod simplify;

pub use cost::estimate_dnf_size;
pub use dnf::{to_dnf, Dnf, DnfError};
pub use nnf::eliminate_not;
pub use simplify::compact;
