//! The matching engines of the `boolmatch` toolkit.
//!
//! This crate implements the core of the reproduced paper — *"On the
//! Benefits of Non-Canonical Filtering in Publish/Subscribe Systems"*
//! (Bittner & Hinze, ICDCSW 2005) — as three interchangeable engines
//! behind the [`FilterEngine`] trait:
//!
//! * [`NonCanonicalEngine`] — **the paper's contribution** (§3): stores
//!   each subscription as its original Boolean expression, byte-encoded
//!   in a [`arena::TreeArena`], and matches events in two phases:
//!   predicate matching over one-dimensional indexes, then evaluation of
//!   only the *candidate* subscription trees.
//! * [`CountingEngine`] — the classic counting algorithm baseline
//!   (Yan & García-Molina; Pereira et al.), which requires subscriptions
//!   to be **DNF-transformed** first and compares the hit counter of
//!   *every* registered conjunction per event.
//! * [`CountingVariantEngine`] — the paper's improved baseline (§3.3):
//!   identical tables, but only *candidate* conjunctions are compared.
//!
//! All three share identical phase-1 infrastructure (predicate
//! interning and the [`boolmatch_index::PredicateIndex`]), so their
//! phase-2 behaviour — what the paper's Fig. 3 measures — is directly
//! comparable: for the same subscription workload registered in the
//! same order, the engines assign identical [`PredicateId`]s and agree
//! exactly on which subscriptions match (`tests/figure3_claims.rs`
//! feeds one synthesized fulfilled set to all three; answers on real
//! events are checked against a naive evaluation in
//! `tests/oracle_matrix.rs`).
//!
//! Matching is a **shared-read** operation: engines take `&self`, and
//! every per-event mutable buffer lives in a caller-owned
//! [`MatchScratch`] (one per thread), so publishers match concurrently
//! against one engine. Single-threaded callers can use the bundled
//! [`Matcher`] handle instead. See [`FilterEngine`] for the threading
//! model.
//!
//! For write scalability, any of the engines can be **sharded**:
//! subscriptions are partitioned across `S` inner engines, placed
//! load-aware (least-loaded shard, round-robin tie-break) and routed
//! through a [`SubscriptionDirectory`] — a global-id indirection table
//! that keeps ids stable while placement changes. The broker
//! (`boolmatch-broker`'s `Broker`) holds each shard behind its own lock
//! around that directory, and it is the one place a live subscription
//! changes shard: live migration, rebalancing and incremental resizing
//! are `Broker` methods. [`ShardedEngine`] is the lock-free standalone
//! composite of the same shards — not an engine itself, but the
//! sequential, batch and parallel walks with inherent methods, which
//! tests and the benchmark's per-layer rows drive.
//!
//! The unit of sharding is the [`Shard`]: one engine with its local →
//! global [`ShardTranslation`] map and its [`ShardSynopsis`] — a
//! conservative per-attribute summary of its residents' required
//! conjuncts. It owns **the per-shard match step**
//! ([`Shard::match_event`], one event; a batch loops it): ask the synopsis
//! first and do nothing on a shard that provably holds no candidate
//! (reported as [`MatchStats::shards_pruned`]), else run the engine and
//! translate the matched ids to global ids in place. Every walk —
//! [`ShardedEngine`]'s and the broker's — is a loop over that step, so
//! the shard walk is **content-aware** everywhere.
//! An optional [`PlacementPolicy::ClusterByAttribute`] co-places
//! subscriptions sharing a dominant equality attribute so that pruning
//! actually bites; see the `synopsis` module docs for the
//! conservativeness contract.
//!
//! For **intra-event** parallelism, one publish can fan out across the
//! shards: [`ShardedEngine::match_event_parallel`] runs the step on
//! every shard concurrently (each admitted shard drawing a warm
//! [`MatchScratch`] from a [`ScratchPool`]) and merges in shard order,
//! so the answer is bit-identical to the sequential walk. The broker
//! does not use it — its publish is the sequential walk on the calling
//! thread; the `pool` module docs name the benchmark rows that compare
//! the two.
//!
//! # Examples
//!
//! ```
//! use boolmatch_core::{FilterEngine, Matcher, NonCanonicalEngine};
//! use boolmatch_expr::Expr;
//! use boolmatch_types::Event;
//!
//! let mut engine = Matcher::new(NonCanonicalEngine::new());
//! let sub = engine.subscribe(&Expr::parse(
//!     "(price > 10 or price <= 5) and symbol = \"IBM\"",
//! )?)?;
//!
//! let event = Event::builder().attr("price", 12_i64).attr("symbol", "IBM").build();
//! let result = engine.match_event(&event);
//! assert_eq!(result.matched, vec![sub]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
mod assoc;
mod counting;
mod encode;
mod engine;
mod eval;
mod fulfilled;
mod ids;
mod interner;
mod memory;
mod noncanonical;
mod pool;
mod routing;
mod scratch;
mod shard;
mod stats;
mod synopsis;

pub use counting::{CountingEngine, CountingVariantEngine};
pub use encode::{decode, encode, DecodeError, EncodeError, IdExpr};
pub use engine::{EngineKind, FilterEngine, MatchResult, SubscribeError, UnsubscribeError};
pub use eval::eval_iterative;
pub use fulfilled::FulfilledSet;
pub use ids::{PredicateId, SubscriptionId};
pub use interner::PredicateInterner;
pub use memory::MemoryUsage;
pub use noncanonical::NonCanonicalEngine;
pub use pool::{FanOut, PooledScratch, ScratchPool, SlotGuard, WorkerPool};
pub use routing::{lock_classes, PlacementPolicy, ShardTranslation, SubscriptionDirectory};
pub use scratch::{BatchScratch, MatchScratch, Matcher};
pub use shard::{BoxedEngine, Shard, ShardedEngine};
pub use stats::MatchStats;
pub use synopsis::{attribute_hash, dominant_eq_attr, ShardSynopsis};
