//! A thread-based publish/subscribe broker built on the `boolmatch`
//! matching engines.
//!
//! The reproduced paper is about the *matching* core of a
//! publish/subscribe system; this crate wraps that core in the service
//! shell a downstream user actually runs: subscriber registration with
//! delivery channels, concurrent publishers, engine selection, delivery
//! policies and operational counters.
//!
//! # Threading model
//!
//! Subscriptions are partitioned across **engine shards**
//! ([`Broker::builder`]`.shards(n)`, default 1; resizable live with
//! [`Broker::resize`]), each behind its own [`parking_lot::RwLock`].
//! Placement is **load-aware** (least-loaded shard, round-robin
//! tie-break) and recorded in a write-side
//! [`boolmatch_core::SubscriptionDirectory`] — touched only by
//! subscribe/unsubscribe/migrate/resize — while each shard owns the
//! read-side [`boolmatch_core::ShardTranslation`] map matching uses to
//! translate its matched local ids, under the shard lock it already
//! holds. A subscription's id is therefore stable while its placement
//! is not: [`Broker::rebalance`] / [`Broker::migrate`] /
//! [`Broker::rebalance_by_match_frequency`] live-migrate subscriptions
//! between shards (write-locking only the two shards involved;
//! matching continues everywhere else) without touching any id, handle
//! or delivery stream. The broker owns no maintenance thread: the
//! caller drives every rebalance and quarantine tick, on whatever
//! schedule it likes. Matching is a
//! **shared-read** operation: `publish` visits each shard under that
//! shard's *read* lock with a thread-local
//! [`boolmatch_core::MatchScratch`] for all per-event mutable state,
//! so any number of publisher threads match concurrently and **no
//! broker-global lock sits on the steady-state matching path** (the
//! placement-directory write lock can be held indefinitely without
//! delaying a single publish; delivery afterwards takes the sender-map
//! read lock just long enough to snapshot the matched subscribers'
//! queues). Only `subscribe`/`unsubscribe` take a write lock, and only
//! on the one shard that owns the subscription: registration churn
//! stalls `1/n` of matching instead of all of it. `tests/lock_scope.rs`
//! proves all three deterministically.
//! Delivery happens outside all engine locks; events are reference
//! counted, so fan-out to thousands of subscribers copies pointers,
//! not payloads. [`Broker::publish_batch`] takes `Arc<Event>`s — one
//! allocation per event, shared across matching and delivery — and
//! amortises lock acquisition, scratch reuse and the sender-map lookup
//! across a whole batch of events.
//!
//! # The delivery tier
//!
//! A publish **enqueues and returns**: each subscriber owns a bounded
//! ring-buffer [notification queue](DeliveryPolicy) with lag counters
//! ([`SubscriberLag`]), so a slow — or completely stalled — consumer
//! can never block a publisher, stall another subscriber, or stall an
//! unsubscribe; its damage is bounded by its own queue capacity. What
//! a *full* queue does is the subscriber's [`DeliveryPolicy`]
//! (broker-wide default via [`BrokerBuilder::delivery`], per-subscriber
//! via [`Broker::subscribe_with_policy`]): grow without bound, shed
//! newest or oldest, disconnect the subscriber, or apply bounded
//! backpressure ([`DeliveryPolicy::Block`] — the publisher waits up to
//! a timeout on that one queue, holding no broker lock). A queue's
//! bound is the quarantine cap while it is quarantined, else its
//! policy's capacity; only a full queue consults the policy. Queues are
//! drained by pulling on a [`DeliveryReceiver`] — a [`Subscription`]
//! is one that also unsubscribes on drop — or, with
//! [`Broker::subscribe_consumer`], by a lazily spawned delivery worker
//! pool that invokes a callback per notification with per-subscriber
//! panic isolation. A [`quarantine`](BrokerBuilder::quarantine) tier
//! on top demotes consumers whose lag stays over a watermark — queue
//! capped (or auto-disconnected) until they drain — driven by the
//! caller through [`Broker::delivery_maintenance_tick`].
//!
//! Every publish is one per-shard step — [`boolmatch_core::Shard`]'s
//! *admit by synopsis → match → translate in place* — walked over all
//! shards in shard order **on the publishing thread**: there is one
//! publish pipeline and it hands nothing off (a queue hop costs more
//! than the whole walk on every measured workload; README "The publish
//! pipeline" has the table). Parallelism comes from concurrent
//! publishers sharing the shards' read locks. An engine that panics
//! unwinds to its `publish` caller; no lock stays held and the next
//! publish, on any thread, is unaffected.
//!
//! Scratch ownership rules: the scratch is per *publisher thread*
//! (`thread_local!`), never shared concurrently, and self-restoring
//! between events, so one thread may publish through any number of
//! brokers and engine kinds. The matched-id buffer inside it is reused
//! across publishes — the steady-state publish path performs no
//! allocation beyond the `Arc` around the event. The scratch grows to
//! the largest engine a thread has matched against and stays there, up
//! to a fixed 8 MiB trim cap (a buffer a publish leaves larger is
//! released).
//!
//! # Examples
//!
//! ```
//! use boolmatch_broker::Broker;
//! use boolmatch_core::EngineKind;
//! use boolmatch_types::Event;
//!
//! let broker = Broker::builder().engine(EngineKind::NonCanonical).build();
//! let tickers = broker.subscribe("symbol = \"IBM\" and price > 80.0")?;
//!
//! let delivered = broker.publish(
//!     Event::builder().attr("symbol", "IBM").attr("price", 84.5).build(),
//! );
//! assert_eq!(delivered, 1);
//! assert_eq!(tickers.try_recv().unwrap().get("symbol"), Some(&"IBM".into()));
//! # Ok::<(), boolmatch_broker::BrokerError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod broker;
mod delivery;
mod subscriber;

pub use broker::{
    Broker, BrokerBuilder, BrokerError, BrokerStats, DeliveryTickReport, DEFAULT_DELIVERY_WORKERS,
    MATCH_FREQUENCY_SKEW_FLOOR,
};
pub use delivery::{DeliveryPolicy, DeliveryReceiver, QuarantineConfig, SubscriberLag};
pub use subscriber::Subscription;
