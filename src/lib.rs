//! # boolmatch
//!
//! A content-based publish/subscribe toolkit built around
//! **non-canonical Boolean subscription matching** — a from-scratch
//! Rust reproduction of:
//!
//! > Sven Bittner & Annika Hinze, *"On the Benefits of Non-Canonical
//! > Filtering in Publish/Subscribe Systems"*, ICDCS Workshops 2005.
//!
//! Classic pub/sub matchers only support conjunctive subscriptions;
//! arbitrary Boolean subscriptions must be DNF-transformed first, which
//! is exponential in space and multiplies per-event work. This
//! workspace implements the paper's alternative — match the *original*
//! expression over fulfilled-predicate sets — alongside the canonical
//! baselines, a broker and workload generators. `README.md` in the
//! repository describes the system, each departure from the paper in
//! the section it concerns; `tests/figure3_claims.rs` and
//! `examples/engine_comparison.rs` reproduce the Fig. 3 comparison, and
//! `benchmark/` measures the broker end to end.
//!
//! ## Quickstart
//!
//! ```
//! use boolmatch::prelude::*;
//!
//! // A broker running the paper's non-canonical engine:
//! let broker = Broker::builder().engine(EngineKind::NonCanonical).build();
//!
//! // Subscriptions are arbitrary Boolean expressions:
//! let sub = broker.subscribe(
//!     "(price > 10.0 or price <= 5.0 or kind = \"sale\") and symbol = \"NZX\"",
//! )?;
//!
//! broker.publish(
//!     Event::builder().attr("symbol", "NZX").attr("price", 12.5).build(),
//! );
//! assert!(sub.try_recv().is_some());
//! # Ok::<(), boolmatch::broker::BrokerError>(())
//! ```
//!
//! ## Layout
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `boolmatch-types` | values, events, schemas |
//! | [`expr`] | `boolmatch-expr` | predicates, Boolean ASTs, parser, DNF/NNF transforms |
//! | [`index`] | `boolmatch-index` | the phase-1 predicate index: hash tables for point predicates, B-trees for range predicates |
//! | [`core`] | `boolmatch-core` | the three matching engines |
//! | [`broker`] | `boolmatch-broker` | the pub/sub service shell |
//! | [`workload`] | `boolmatch-workload` | generators, sweeps, the memory-wall model |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use boolmatch_broker as broker;
pub use boolmatch_core as core;
pub use boolmatch_expr as expr;
pub use boolmatch_index as index;
pub use boolmatch_types as types;
pub use boolmatch_workload as workload;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use boolmatch_broker::{
        Broker, BrokerError, DeliveryPolicy, DeliveryReceiver, QuarantineConfig, SubscriberLag,
        Subscription,
    };
    pub use boolmatch_core::{
        CountingEngine, CountingVariantEngine, EngineKind, FilterEngine, MatchResult, MatchScratch,
        Matcher, NonCanonicalEngine, PlacementPolicy, ShardTranslation, SubscriptionDirectory,
        SubscriptionId,
    };
    pub use boolmatch_expr::{CompareOp, Expr, Predicate};
    pub use boolmatch_types::{Event, Schema, Value, ValueKind};
}
