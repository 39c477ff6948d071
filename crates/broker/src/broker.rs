//! The broker itself: the shard cells, subscriber registration and
//! removal, and the read-only accessors. The publish path, the
//! caller-driven maintenance ticks and the builder are child modules.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use boolmatch_core::{
    lock_classes, BoxedEngine, EngineKind, MatchStats, MemoryUsage, PlacementPolicy, Shard,
    SubscribeError, SubscriptionDirectory, SubscriptionId, WorkerPool,
};
use boolmatch_expr::{Expr, ParseError};
use boolmatch_types::Event;
use parking_lot::{Mutex, RwLock};

use crate::delivery::{
    Consumer, DeliveryPolicy, NotifyQueue, QuarantineConfig, ReadyList, SubscriberLag,
};
use crate::subscriber::Subscription;

mod builder;
mod maintenance;
mod publish;
#[cfg(test)]
mod tests;

pub use builder::{BrokerBuilder, DEFAULT_DELIVERY_WORKERS};
use maintenance::FreqWindow;
pub use maintenance::{DeliveryTickReport, MATCH_FREQUENCY_SKEW_FLOOR};

/// Errors surfaced by [`Broker`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerError {
    /// The subscription text failed to parse.
    Parse(ParseError),
    /// The engine refused the subscription.
    Subscribe(SubscribeError),
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::Parse(e) => write!(f, "subscription parse error: {e}"),
            BrokerError::Subscribe(e) => write!(f, "subscription rejected: {e}"),
        }
    }
}

impl Error for BrokerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BrokerError::Parse(e) => Some(e),
            BrokerError::Subscribe(e) => Some(e),
        }
    }
}

impl From<ParseError> for BrokerError {
    fn from(e: ParseError) -> Self {
        BrokerError::Parse(e)
    }
}

impl From<SubscribeError> for BrokerError {
    fn from(e: SubscribeError) -> Self {
        BrokerError::Subscribe(e)
    }
}

/// Monotonic operational counters; snapshot via [`Broker::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Events accepted by [`Broker::publish`].
    pub events_published: u64,
    /// Notifications placed on subscriber queues.
    pub notifications_delivered: u64,
    /// Notifications shed at enqueue: a full
    /// [`DeliveryPolicy::DropNewest`] queue, a timed-out
    /// [`DeliveryPolicy::Block`] wait, or a quarantine-capped queue.
    /// (Per-subscriber shed totals — including the evicted-oldest
    /// notifications a [`DeliveryPolicy::DropOldest`] queue replaces —
    /// are in [`SubscriberLag::dropped`].)
    pub notifications_dropped: u64,
    /// Notifications addressed to a subscriber whose queue was already
    /// closed — handle dropped without unsubscribe, or torn down by a
    /// [`DeliveryPolicy::Disconnect`] overflow / consumer panic /
    /// quarantine auto-disconnect. Each such send also prunes the
    /// subscription; before this counter existed they vanished
    /// silently.
    pub notifications_disconnected: u64,
    /// Subscriptions registered over the broker's lifetime.
    pub subscriptions_created: u64,
    /// Subscriptions removed (explicitly or by handle drop).
    pub subscriptions_removed: u64,
    /// Subscriptions live-migrated between shards by
    /// [`Broker::migrate`] / [`Broker::rebalance`] /
    /// [`Broker::rebalance_by_match_frequency`] / [`Broker::resize`].
    /// Migration never changes a subscription's id or its delivery
    /// stream — this counter only measures rebalancing work.
    ///
    /// **Ordering:** each move is counted inside the directory write
    /// section that repoints the subscription, before either lock of
    /// the migrating pair is released. The counter therefore never
    /// lags the placement: an observer that sees a move's effect on
    /// [`Broker::shard_loads`] (or on any directory read) also sees it
    /// counted here.
    pub subscriptions_migrated: u64,
    /// Always 0: matching runs on the publishing thread, so a
    /// panicking engine unwinds to the `publish` caller instead of
    /// being swallowed by a worker. The field is kept only because
    /// `benchmark/` reads it.
    pub fanout_worker_failures: u64,
    /// Slow-consumer demotions by [`Broker::delivery_maintenance_tick`]
    /// (including auto-disconnects): a subscriber's lag stayed over the
    /// [`QuarantineConfig::lag_watermark`] for the configured strikes
    /// and its queue was capped (or closed).
    pub subscribers_quarantined: u64,
    /// Quarantined subscribers whose lag drained back under the
    /// recovery floor and whose queue cap was lifted.
    pub quarantine_recoveries: u64,
    /// Consumer callbacks ([`Broker::subscribe_consumer`]) that
    /// panicked; each panic tears down only its own subscription — the
    /// delivery worker survives and every other subscriber is
    /// unaffected.
    pub consumer_panics: u64,
    /// Drainer jobs handed to the delivery worker pool. A publish
    /// submits one only while fewer than
    /// [`BrokerBuilder::delivery_workers`] drainers are live, so this
    /// grows by at most that many per publish — not per notification.
    pub drain_jobs: u64,
}

#[derive(Default)]
struct AtomicStats {
    events_published: AtomicU64,
    notifications_delivered: AtomicU64,
    notifications_dropped: AtomicU64,
    notifications_disconnected: AtomicU64,
    subscriptions_created: AtomicU64,
    subscriptions_removed: AtomicU64,
    subscriptions_migrated: AtomicU64,
    subscribers_quarantined: AtomicU64,
    quarantine_recoveries: AtomicU64,
    consumer_panics: AtomicU64,
    drain_jobs: AtomicU64,
}

/// One engine shard: the [`Shard`] (engine, local → global translation
/// map, attribute synopsis) behind a single lock, and the lock-free
/// counters the frequency-weighted rebalancer and the prune gauge
/// read. The translation map and the synopsis change only under the
/// write lock (subscribe, unsubscribe, migration) and are read under
/// the read lock publishes already hold for matching — neither the
/// prune check nor translation ever touches broker-global state. Cells
/// are shared by `Arc` across resize epochs, so a surviving shard keeps
/// its lock, its translation map and its counters when the shard set
/// around it changes.
struct ShardCell {
    state: RwLock<Shard>,
    /// Matches this shard has contributed across its lifetime
    /// (`MatchStats::matched` summed over publishes), maintained with
    /// relaxed atomics on the publish path — no lock, no shared-state
    /// contention.
    hits: AtomicU64,
    /// Publishes that skipped this shard because its attribute synopsis
    /// proved zero candidates (one count per pruned event per publish
    /// path), maintained like `hits` — relaxed atomics, no lock.
    pruned: AtomicU64,
}

impl ShardCell {
    /// `index` is the cell's position in the shard set at creation,
    /// naming its lockdep class (`shard[index]`): multiple shard locks
    /// may only ever be acquired in ascending index order. A surviving
    /// cell keeps its class across resize epochs — its index never
    /// changes while it is live (grows append, shrinks drop a suffix).
    fn new(engine: BoxedEngine, index: usize) -> Self {
        let state = RwLock::new(Shard::new(engine));
        state.set_class(&lock_classes::shard(index));
        ShardCell {
            state,
            hits: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
        }
    }

    /// Tallies one step's outcome on this shard.
    fn record(&self, stats: &MatchStats) {
        if stats.matched > 0 {
            self.hits.fetch_add(stats.matched as u64, Ordering::Relaxed);
        }
        if stats.shards_pruned > 0 {
            self.pruned
                .fetch_add(stats.shards_pruned as u64, Ordering::Relaxed);
        }
    }
}

pub(crate) struct BrokerInner {
    /// The current resize epoch's shard cells, swapped wholesale by
    /// [`Broker::resize`]. A publish clones the `Arc` once (the only
    /// broker-global lock it ever takes, held for a pointer copy) and
    /// works on an immutable snapshot from there.
    shard_set: RwLock<Arc<[Arc<ShardCell>]>>,
    /// The **write-side** placement directory: global id ↔ placement
    /// and the per-shard loads. It holds no expression — migration
    /// takes it from the source shard's engine. Touched by
    /// subscribe/unsubscribe/migrate/resize only — the publish paths
    /// never acquire this lock (each shard's translation map, under
    /// that shard's own lock, serves matched-id translation).
    /// `tests/lock_scope.rs` holds this lock's write side across
    /// publishes to prove it.
    ///
    /// **Lock order:** the directory lock is *innermost* — it is only
    /// ever acquired while holding at most shard locks, and nothing
    /// acquires a shard lock while holding it. Shard locks themselves
    /// are only ever multiply-acquired in ascending index order
    /// (migration), and the shard-set lock is never held across any
    /// other acquisition, so the broker's lock graph is acyclic.
    directory: RwLock<SubscriptionDirectory>,
    /// Serializes the control plane — migrate/rebalance/resize and the
    /// quarantine tick — so a resize can never swap the shard set out
    /// from under a running migration. It guards the frequency-weighted
    /// rebalancer's decayed planning window, which only
    /// [`Broker::rebalance_by_match_frequency`] and [`Broker::resize`]
    /// touch: the last per-shard hit snapshot plus the decayed per-tick
    /// delta scores (ticks act on windowed deltas, not lifetime totals).
    maintenance: Mutex<FreqWindow>,
    /// Each live subscriber's notification queue, keyed by global id —
    /// the delivery tier's root. Publishes take the read side only to
    /// snapshot the matched subscribers' queue `Arc`s (never across an
    /// enqueue); the write side is subscribe/unsubscribe churn.
    ///
    /// **Lock order:** queue locks (`delivery-queue[g]`) sit *inside*
    /// this lock — the quarantine tick walks queues under the read
    /// guard — and are leaves: no path acquires anything while holding
    /// one, and no path ever holds two.
    senders: RwLock<HashMap<SubscriptionId, Arc<NotifyQueue>>>,
    policy: DeliveryPolicy,
    /// Slow-consumer quarantine thresholds; `None` leaves lag
    /// unmonitored (ticks are no-ops).
    quarantine: Option<QuarantineConfig>,
    /// The worker pool running drainer jobs, spawned lazily by the
    /// first [`Broker::subscribe_consumer`] so pull-only brokers pay
    /// nothing.
    delivery_pool: OnceLock<Arc<WorkerPool>>,
    /// Consumer queues waiting for a drainer. Shared by `Arc` with the
    /// drainer jobs, which outlive a dropped broker on the pool.
    ///
    /// **Lock order:** a leaf — publishers take it after their last
    /// enqueue of a chunk, drainers between queues, neither holding any
    /// other lock.
    delivery_ready: Arc<Mutex<ReadyList>>,
    /// Thread count for `delivery_pool` when it spawns.
    delivery_workers: usize,
    stats: AtomicStats,
    /// Bumped once per committed relocation (under the directory write
    /// lock). A publish snapshots it before matching and after its last
    /// translation: only when the two differ can the matched set hold
    /// a migration duplicate, so only then does it pay the dedup sort.
    migration_epoch: AtomicU64,
    /// Engine kind a grow appends (the first shard's kind at build
    /// time).
    grow_kind: EngineKind,
    /// Where new subscriptions land (see
    /// [`BrokerBuilder::placement`]).
    placement: PlacementPolicy,
}

impl Drop for BrokerInner {
    fn drop(&mut self) {
        // Deterministic delivery teardown: close every queue (waking
        // blocked receivers and `Block`-policy publishers; queued
        // events stay drainable through surviving handles), then let
        // the delivery pool drop with the struct — `WorkerPool`'s Drop
        // runs every already-queued drainer job to completion before
        // joining, and a drainer exits only once the ready list is
        // empty, so consumer subscribers see everything that was
        // enqueued before the broker died, and nothing after.
        for queue in self.senders.get_mut().values() {
            queue.close(false);
        }
    }
}

impl BrokerInner {
    fn shard_set(&self) -> Arc<[Arc<ShardCell>]> {
        Arc::clone(&self.shard_set.read())
    }

    pub(crate) fn unsubscribe(&self, id: SubscriptionId) -> bool {
        let queue = self.senders.write().remove(&id);
        let existed = queue.is_some();
        if existed {
            // The sender map is the source of truth; the directory and
            // shard state follow. Retiring the directory entry first
            // means a concurrent migration of this subscription aborts
            // cleanly (its `relocate` finds the entry gone and undoes
            // the target-side copy) and a concurrent match drops the id
            // at translation — whose delivery the removed sender would
            // have skipped anyway. The retire is generation-checked,
            // so a stale handle from an earlier occupancy of the slot
            // was already a no-op at the sender map and can never reach
            // here.
            let (shard, local) = self
                .directory
                .write()
                .retire(id)
                .expect("sender map and directory are kept in sync");
            // The shard-set snapshot is taken *after* the retire: the
            // directory lock hand-off guarantees any resize that grew
            // the set before our entry was placed is visible. A shard
            // index beyond the snapshot means the shard was drained and
            // dropped by a shrink while we raced it — its engine went
            // with it, so there is nothing left to unsubscribe.
            let set = self.shard_set();
            if let Some(cell) = set.get(shard) {
                // `Shard::unsubscribe` carries the stale-cell guard:
                // only if this local slot still belongs to *our* global
                // id is the engine touched (a drain may have completed
                // the removal on our behalf, or — across a shrink+grow
                // — a fresh shard may live at this index).
                cell.state.write().unsubscribe(local, id);
            }
            self.stats
                .subscriptions_removed
                .fetch_add(1, Ordering::Relaxed);
        }
        // Close the queue last, with no broker lock held: a receiver
        // parked in `recv` wakes to drain the remainder and then gets
        // its `None`, and a publish racing this unsubscribe either
        // missed the map (no enqueue) or enqueues into the closed queue
        // and counts the send as disconnected.
        if let Some(queue) = queue {
            queue.close(false);
        }
        existed
    }

    /// Counts a consumer callback's panic and removes its subscription:
    /// the drainer's panic-isolation step.
    pub(crate) fn consumer_panicked(&self, id: SubscriptionId) {
        self.stats.consumer_panics.fetch_add(1, Ordering::Relaxed);
        self.unsubscribe(id);
    }
}

/// A content-based publish/subscribe broker; see the [crate docs](crate).
///
/// Cheap to clone (`Arc` inside); clones share the same engine and
/// subscriber registry. Producer threads publish through clones.
#[derive(Clone)]
pub struct Broker {
    inner: Arc<BrokerInner>,
}

impl Broker {
    /// Starts configuring a broker.
    pub fn builder() -> BrokerBuilder {
        BrokerBuilder::default()
    }

    /// The current resize epoch's shard cells.
    fn shard_set(&self) -> Arc<[Arc<ShardCell>]> {
        self.inner.shard_set()
    }

    /// Registers a subscription written in the subscription language
    /// and returns the handle notifications arrive on.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::Parse`] for malformed text and
    /// [`BrokerError::Subscribe`] when the engine refuses the
    /// expression (e.g. a canonical engine hitting its DNF limit).
    pub fn subscribe(&self, expression: &str) -> Result<Subscription, BrokerError> {
        self.subscribe_with(&Expr::parse(expression)?, self.inner.policy, None)
    }

    /// [`Broker::subscribe`] with a per-subscriber [`DeliveryPolicy`]
    /// overriding the builder-wide default — one subscriber can take
    /// bounded backpressure ([`DeliveryPolicy::Block`]) while its
    /// neighbours shed ([`DeliveryPolicy::DropOldest`]).
    ///
    /// # Errors
    ///
    /// As [`Broker::subscribe`].
    pub fn subscribe_with_policy(
        &self,
        expression: &str,
        policy: DeliveryPolicy,
    ) -> Result<Subscription, BrokerError> {
        self.subscribe_with(&Expr::parse(expression)?, policy, None)
    }

    /// Registers a **consumer-callback** subscription: instead of the
    /// subscriber pulling on its handle, the broker's delivery worker
    /// pool invokes `consumer` for each notification, in publish order,
    /// with per-subscriber panic isolation — a panicking callback tears
    /// down only its own subscription (counted in
    /// [`BrokerStats::consumer_panics`]) and never poisons the worker
    /// or other subscribers. The returned handle controls the
    /// subscription's lifetime exactly like a pull handle; its queue is
    /// drained by the pool, so pulling on it races the callback.
    ///
    /// # Errors
    ///
    /// As [`Broker::subscribe`].
    pub fn subscribe_consumer(
        &self,
        expression: &str,
        policy: DeliveryPolicy,
        consumer: impl Fn(Arc<Event>) + Send + Sync + 'static,
    ) -> Result<Subscription, BrokerError> {
        self.subscribe_with(&Expr::parse(expression)?, policy, Some(Arc::new(consumer)))
    }

    /// Registers an already-parsed subscription.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::Subscribe`] when the engine refuses it.
    pub fn subscribe_expr(&self, expr: &Expr) -> Result<Subscription, BrokerError> {
        self.subscribe_with(expr, self.inner.policy, None)
    }

    /// [`Broker::subscribe_expr`] with a per-subscriber
    /// [`DeliveryPolicy`].
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::Subscribe`] when the engine refuses it.
    pub fn subscribe_expr_with_policy(
        &self,
        expr: &Expr,
        policy: DeliveryPolicy,
    ) -> Result<Subscription, BrokerError> {
        self.subscribe_with(expr, policy, None)
    }

    /// The one subscribe body: placement → shard registration →
    /// global-id issue → delivery-queue creation. `expr` is the text
    /// paths' parsed tree or the caller's own: it is borrowed, never
    /// copied — the shard's engine keeps its own form, and refuses a
    /// tree nested too deeply before any recursive pass runs over it.
    fn subscribe_with(
        &self,
        expr: &Expr,
        policy: DeliveryPolicy,
        consumer: Option<Consumer>,
    ) -> Result<Subscription, BrokerError> {
        if consumer.is_some() {
            // First consumer subscription spawns the delivery pool;
            // pull-only brokers never pay for the threads.
            self.inner
                .delivery_pool
                .get_or_init(|| Arc::new(WorkerPool::new(self.inner.delivery_workers)));
        }
        // Load-aware placement: the directory reserves a unit of load
        // on the least-loaded shard (round-robin tie-break, so a
        // churn-free stream places like classic round-robin while a
        // drained shard is refilled first; concurrent subscribers
        // spread out because each reservation is visible to the next
        // placement). Only the chosen shard is then write-locked, so
        // registration never stalls matching on the other shards; the
        // reservation is cancelled if the engine refuses the
        // expression, and committed — issuing the global id — once the
        // engine has assigned the local id. The shard-set snapshot is
        // taken *after* the placement: the directory lock hand-off
        // guarantees a placement on a freshly grown shard only happens
        // once the grown set is visible, and a shrink restricts
        // placement before any dying cell leaves the set.
        let shard = self
            .inner
            .directory
            .write()
            .place_for(self.inner.placement, expr);
        let set = self.shard_set();
        let cell = &set[shard];
        // Nothing beyond the engine's own registration is kept: a
        // migration, which `resize` makes possible on any broker, asks
        // the source engine for the expression.
        let mut state = cell.state.write();
        let local = match state.engine_mut().subscribe(expr) {
            Ok(local) => local,
            Err(e) => {
                drop(state);
                self.inner.directory.write().cancel(shard);
                return Err(e.into());
            }
        };
        let id = self.inner.directory.write().issue(shard, local);
        state.bind(local, id, expr);
        drop(state);
        // The queue's lock is classed by the id's delivery-queue group
        // (same-class nesting detection proves no path holds two).
        let queue = Arc::new(NotifyQueue::new(id, policy, consumer));
        self.inner.senders.write().insert(id, Arc::clone(&queue));
        self.inner
            .stats
            .subscriptions_created
            .fetch_add(1, Ordering::Relaxed);
        Ok(Subscription::new(queue, Arc::downgrade(&self.inner)))
    }

    /// Removes a subscription by id (handles also unsubscribe on drop).
    /// Returns whether it was registered.
    pub fn unsubscribe(&self, id: SubscriptionId) -> bool {
        self.inner.unsubscribe(id)
    }

    /// Live subscriptions per shard (placement reservations included) —
    /// the load vector rebalancing planning works from.
    pub fn shard_loads(&self) -> Vec<usize> {
        self.inner.directory.read().loads().to_vec()
    }

    /// Lifetime matches each shard has produced
    /// (`MatchStats::matched`, summed over publishes) — the counters
    /// [`Broker::rebalance_by_match_frequency`] balances on.
    pub fn shard_match_hits(&self) -> Vec<u64> {
        self.shard_set()
            .iter()
            .map(|cell| cell.hits.load(Ordering::Relaxed))
            .collect()
    }

    /// Publish prune counts per shard: how many times each shard was
    /// skipped because its attribute synopsis proved zero candidates
    /// for the event being matched (one count per pruned event, single
    /// publish or batch). The observability counterpart of
    /// [`Broker::shard_match_hits`] for content-aware routing: on a
    /// well-clustered workload most shards accumulate prunes, not hits.
    pub fn shard_prune_counts(&self) -> Vec<u64> {
        self.shard_set()
            .iter()
            .map(|cell| cell.pruned.load(Ordering::Relaxed))
            .collect()
    }

    /// Runs `f` while holding the placement directory's **write** lock
    /// — blocking every subscribe/unsubscribe/migrate/resize, but (by
    /// design) no publish. This is a verification hook: the hot-path
    /// contract says steady-state publishing never touches the
    /// directory lock, and `tests/lock_scope.rs` proves it by publishing
    /// through this window.
    #[doc(hidden)]
    pub fn with_directory_write_held<R>(&self, f: impl FnOnce() -> R) -> R {
        // `write_untracked`: `f` publishes while this thread holds the
        // directory write lock — exactly the inversion lockdep exists to
        // reject (publish takes shard read locks; the normal order is
        // shard → directory). It cannot deadlock here because the hook
        // guarantees the inverted pair is taken by no concurrent thread
        // while this one holds the directory: publishes never block on
        // the directory at all (the property under test), and writers
        // that do take both always go shard-first and simply queue
        // behind the hook. Tracking it would poison the global order
        // graph with a cycle no production path can reach.
        let _guard = self.inner.directory.write_untracked();
        f()
    }

    /// Number of live subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.inner.senders.read().len()
    }

    /// Number of engine shards subscriptions are partitioned across
    /// (the current resize epoch's).
    pub fn shard_count(&self) -> usize {
        self.shard_set().len()
    }

    /// The engines' memory breakdown, summed across shards, plus the
    /// routing overhead — the write-side directory's tables *and* every
    /// shard's read-side translation map and synopsis — reported as
    /// `unsub_support`. No copy of an expression is kept outside the
    /// engines.
    ///
    /// Every table is charged at its capacity. The tables indexed by
    /// subscription or by counting conjunction grow by an eighth when
    /// full, so they carry at most 12.5 % slack; the per-predicate
    /// tables double. A non-canonical shard's `trees` are its 64 KiB
    /// arena blocks, the newest one charged in full however little of
    /// it is used, plus an exact-size block per tree larger than one
    /// block: a shard with one small subscription reports 64 KiB.
    ///
    /// What it leaves out: the delivery tier (the `senders` map, every
    /// subscriber's notification queue and what it holds, the ready
    /// list) and every thread's `MatchScratch`. The benchmark's
    /// `bytes_per_sub` is this total over the live subscriptions, so it
    /// leaves them out too.
    pub fn memory_usage(&self) -> MemoryUsage {
        let set = self.shard_set();
        let mut routing = self.inner.directory.read().heap_bytes();
        let mut usage = MemoryUsage::default();
        for cell in set.iter() {
            let state = cell.state.read();
            routing += state.routing_bytes();
            usage = usage + state.engine().memory_usage();
        }
        usage
            + MemoryUsage {
                unsub_support: routing,
                ..MemoryUsage::default()
            }
    }

    /// Which engine kind the broker runs (of the first shard, when
    /// heterogeneous engines were supplied).
    pub fn engine_kind(&self) -> EngineKind {
        self.shard_set()[0].state.read().engine().kind()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BrokerStats {
        let s = &self.inner.stats;
        BrokerStats {
            events_published: s.events_published.load(Ordering::Relaxed),
            notifications_delivered: s.notifications_delivered.load(Ordering::Relaxed),
            notifications_dropped: s.notifications_dropped.load(Ordering::Relaxed),
            notifications_disconnected: s.notifications_disconnected.load(Ordering::Relaxed),
            subscriptions_created: s.subscriptions_created.load(Ordering::Relaxed),
            subscriptions_removed: s.subscriptions_removed.load(Ordering::Relaxed),
            subscriptions_migrated: s.subscriptions_migrated.load(Ordering::Relaxed),
            fanout_worker_failures: 0,
            subscribers_quarantined: s.subscribers_quarantined.load(Ordering::Relaxed),
            quarantine_recoveries: s.quarantine_recoveries.load(Ordering::Relaxed),
            consumer_panics: s.consumer_panics.load(Ordering::Relaxed),
            drain_jobs: s.drain_jobs.load(Ordering::Relaxed),
        }
    }

    /// One subscriber's lag snapshot — queue depth, lifetime
    /// enqueued/shed counts, quarantine status — or `None` for an
    /// unknown id.
    pub fn subscriber_lag(&self, id: SubscriptionId) -> Option<SubscriberLag> {
        self.inner.senders.read().get(&id).map(|queue| queue.lag())
    }

    /// Number of subscribers currently quarantined (demoted and not
    /// yet recovered).
    pub fn quarantined_count(&self) -> usize {
        self.inner
            .senders
            .read()
            .values()
            .filter(|queue| queue.lag().quarantined)
            .count()
    }
}

impl fmt::Debug for Broker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Broker")
            .field("engine", &self.engine_kind())
            .field("subscriptions", &self.subscription_count())
            .finish()
    }
}
