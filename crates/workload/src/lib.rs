//! Workload generation and experiment harness support for the
//! `boolmatch` reproduction.
//!
//! Everything the paper's §4 experiments need, as a library:
//!
//! * [`Table1Config`] — the paper's Table 1 parameters, verbatim, plus
//!   the derived 2^(|p|/2) transformation factor,
//! * [`SubscriptionGenerator`] — subscriptions of the paper's shape
//!   (AND of |p|/2 binary ORs with unique predicates),
//! * [`synthetic_fulfilled`] / [`satisfying_event`] — phase-1 output
//!   synthesis (the paper parameterises on "matching predicates per
//!   event") and a concrete event that satisfies a given subscription,
//! * [`MemoryModel`] — the analytic 512 MB memory wall standing in for
//!   the paper's physical machine: we cannot page-swap the host to
//!   reproduce Fig. 3's bends, so the swap penalty is derived from each
//!   engine's measured phase-2 bytes,
//! * [`sweep`] — the parameter-sweep runner that regenerates the
//!   Fig. 3 comparison,
//! * [`scenarios`] — seeded subscription/event streams for the broker
//!   tests and examples (stock, news, auction, churn, hot key,
//!   selective, slow consumer, generated trees),
//! * [`rng`] — the seeded xoshiro256++ generator every stream draws
//!   from.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod eventgen;
mod memwall;
pub mod rng;
pub mod scenarios;
mod subgen;
pub mod sweep;
mod table1;

pub use eventgen::{satisfying_event, synthetic_fulfilled};
pub use memwall::MemoryModel;
pub use subgen::SubscriptionGenerator;
pub use table1::Table1Config;
