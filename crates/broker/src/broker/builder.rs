//! [`BrokerBuilder`]: the broker's options and its construction.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, OnceLock};

use boolmatch_core::{
    lock_classes, BoxedEngine, EngineKind, PlacementPolicy, SubscriptionDirectory,
};
use parking_lot::{Mutex, RwLock};

use super::maintenance::FreqWindow;
use super::{AtomicStats, Broker, BrokerInner, ShardCell};
use crate::delivery::{DeliveryPolicy, QuarantineConfig, ReadyList};

/// Default number of delivery worker threads, overridable with
/// [`BrokerBuilder::delivery_workers`]. Consumer-callback queues with
/// undelivered events wait on one ready list, and at most this many
/// drainer jobs consume it, one queue per pop; a publisher hands its
/// newly scheduled queues over every 32 queues. The pool is built
/// lazily on the first [`Broker::subscribe_consumer`]; pull-only
/// brokers never spawn it.
pub const DEFAULT_DELIVERY_WORKERS: usize = 2;

/// Configures and builds a [`Broker`].
#[derive(Default)]
pub struct BrokerBuilder {
    kind: Option<EngineKind>,
    custom: Option<Vec<BoxedEngine>>,
    /// 0 means "not set" and resolves to 1.
    shards: usize,
    policy: DeliveryPolicy,
    quarantine: Option<QuarantineConfig>,
    delivery_workers: Option<usize>,
    placement: PlacementPolicy,
}

impl fmt::Debug for BrokerBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BrokerBuilder")
            .field("kind", &self.kind)
            .field("custom", &self.custom.as_ref().map(Vec::len))
            .field("shards", &self.shards.max(1))
            .field("policy", &self.policy)
            .field("quarantine", &self.quarantine)
            .field("delivery_workers", &self.delivery_workers)
            .field("placement", &self.placement)
            .finish()
    }
}

impl BrokerBuilder {
    /// Selects the matching engine (default:
    /// [`EngineKind::NonCanonical`]).
    #[must_use]
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Partitions subscriptions across `n` engine shards, each behind
    /// its own lock (default: 1, which is behaviourally identical to an
    /// unsharded broker). More shards mean subscription churn blocks a
    /// smaller slice of concurrent matching and smaller per-shard
    /// phase-2 state. The count can be changed live later with
    /// [`Broker::resize`].
    ///
    /// Ignored when [`BrokerBuilder::engine_instances`] supplies
    /// pre-built engines (the instance count is the shard count).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n > 0, "a broker needs at least one engine shard");
        self.shards = n;
        self
    }

    /// Supplies one pre-built engine per shard (shard `i` runs
    /// `engines[i]`); takes precedence over [`BrokerBuilder::engine`]
    /// and [`BrokerBuilder::shards`].
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty.
    #[must_use]
    pub fn engine_instances(mut self, engines: Vec<BoxedEngine>) -> Self {
        assert!(
            !engines.is_empty(),
            "a broker needs at least one engine shard"
        );
        self.custom = Some(engines);
        self
    }

    /// Sets the broker-wide default delivery policy (default:
    /// [`DeliveryPolicy::Unbounded`]); individual subscribers can
    /// override it with [`Broker::subscribe_with_policy`].
    #[must_use]
    pub fn delivery(mut self, policy: DeliveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables slow-consumer quarantine with the given thresholds; see
    /// [`QuarantineConfig`] and [`Broker::delivery_maintenance_tick`].
    /// Without this, lag is unmonitored and ticks are no-ops.
    #[must_use]
    pub fn quarantine(mut self, config: QuarantineConfig) -> Self {
        self.quarantine = Some(config);
        self
    }

    /// Sets the number of delivery worker threads draining
    /// consumer-callback queues (default:
    /// [`DEFAULT_DELIVERY_WORKERS`]) — also the most drainer jobs that
    /// are ever live at once. The pool spawns lazily on the first
    /// [`Broker::subscribe_consumer`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn delivery_workers(mut self, n: usize) -> Self {
        assert!(n > 0, "a delivery pool needs at least one thread");
        self.delivery_workers = Some(n);
        self
    }

    /// Chooses where new subscriptions land (default:
    /// [`PlacementPolicy::LeastLoaded`]).
    /// [`ClusterByAttribute`](PlacementPolicy::ClusterByAttribute)
    /// routes each subscription to the shard its dominant equality
    /// attribute hashes to (load-capped, falling back to least-loaded
    /// when a cluster outgrows twice the other shards' average), which
    /// makes the per-shard attribute synopses selective — on a
    /// partitionable workload an event then candidates at one or two
    /// shards and the per-shard step prunes the rest (every publish
    /// consults each shard's synopsis first; it is conservative — it
    /// may admit a shard with no matches but never excludes one with a
    /// match). Delivery is identical under either policy; only shard
    /// assignment — and therefore pruning effectiveness — changes.
    #[must_use]
    pub fn placement(mut self, policy: PlacementPolicy) -> Self {
        self.placement = policy;
        self
    }

    /// Builds the broker.
    pub fn build(self) -> Broker {
        let engines = self.custom.unwrap_or_else(|| {
            let kind = self.kind.unwrap_or(EngineKind::NonCanonical);
            (0..self.shards.max(1)).map(|_| kind.build()).collect()
        });
        let shard_count = engines.len();
        let grow_kind = engines[0].kind();
        let shards: Vec<Arc<ShardCell>> = engines
            .into_iter()
            .enumerate()
            .map(|(index, engine)| Arc::new(ShardCell::new(engine, index)))
            .collect();
        let directory = SubscriptionDirectory::new(shard_count);
        let inner = Arc::new(BrokerInner {
            shard_set: RwLock::new(shards.into()),
            directory: RwLock::new(directory),
            maintenance: Mutex::new(FreqWindow::default()),
            migration_epoch: AtomicU64::new(0),
            senders: RwLock::new(HashMap::new()),
            policy: self.policy,
            quarantine: self.quarantine,
            delivery_pool: OnceLock::new(),
            delivery_ready: Arc::new(Mutex::new(ReadyList::default())),
            delivery_workers: self.delivery_workers.unwrap_or(DEFAULT_DELIVERY_WORKERS),
            stats: AtomicStats::default(),
            grow_kind,
            placement: self.placement,
        });
        // Register the broker-global locks with lockdep (debug builds):
        // runtime enforcement of the documented order — `maintenance`
        // outermost, shard locks ascending, `directory` innermost,
        // `senders`/`delivery_ready`/`shard-set` leaves.
        inner.directory.set_class(lock_classes::DIRECTORY);
        inner.maintenance.set_class(lock_classes::MAINTENANCE);
        inner.senders.set_class(lock_classes::SENDERS);
        inner.delivery_ready.set_class(lock_classes::DELIVERY_READY);
        inner.shard_set.set_class("shard-set");
        Broker { inner }
    }
}
