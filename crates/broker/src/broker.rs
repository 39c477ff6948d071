//! The broker itself.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use boolmatch_core::{
    attribute_hash, dominant_eq_attr, lock_classes, BatchScratch, BoxedEngine, EngineKind,
    MatchScratch, MatchStats, MemoryUsage, PlacementPolicy, Shard, SubscribeError,
    SubscriptionDirectory, SubscriptionId, WorkerPool,
};
use boolmatch_expr::{Expr, ParseError};
use boolmatch_types::Event;
use parking_lot::{Mutex, RwLock};

use crate::delivery::{
    Consumer, DeliveryPolicy, Enqueue, NotifyQueue, QuarantineConfig, SubscriberLag, TickOutcome,
};
use crate::subscriber::Subscription;

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
    /// [`Broker::rebalance_by_match_frequency`] / [`Broker::resize`]
    /// (including the background rebalance thread). Migration never
    /// changes a subscription's id or its delivery stream — this
    /// counter only measures rebalancing work.
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

/// Per-publisher-thread reusable buffers: the match scratch plus the
/// global matched-id accumulator (publish), the batch scratch,
/// per-event matched buckets and `Arc` buffer (publish_batch), the
/// delivery snapshot of matched subscribers' queue handles, and the
/// chunk of consumer queues this publish scheduled but has not yet
/// handed to the ready list.
#[derive(Default)]
struct PublishState {
    scratch: MatchScratch,
    batch: BatchScratch,
    matched: Vec<SubscriptionId>,
    buckets: Vec<Vec<SubscriptionId>>,
    event_arcs: Vec<Arc<Event>>,
    targets: Vec<(SubscriptionId, Arc<NotifyQueue>)>,
    ready: Vec<(SubscriptionId, Arc<NotifyQueue>)>,
}

thread_local! {
    // One state per publisher thread, shared by all brokers on that
    // thread (sound: the scratch is engine-agnostic and self-restoring
    // between matches). It grows to the largest engine the thread ever
    // matched against and stays at that high-water mark until
    // [`trim_publish_scratch`] is called.
    static PUBLISH_STATE: RefCell<PublishState> = RefCell::new(PublishState::default());
}

/// Releases the calling thread's publish scratch buffers.
///
/// [`Broker::publish`] keeps one [`MatchScratch`] (plus a matched-id
/// accumulator) per thread, sized to the largest engine that thread has
/// matched against. Long-lived worker threads that once published to a
/// huge broker and now serve only small ones can call this to return
/// the high-water allocation; the next publish re-grows the buffers
/// lazily.
pub fn trim_publish_scratch() {
    PUBLISH_STATE.with(|cell| *cell.borrow_mut() = PublishState::default());
}

/// Default [`BrokerBuilder::scratch_trim_cap`]: a thread-local publish
/// buffer left with more heap than this after a publish is trimmed
/// instead of kept at its high-water capacity, so one pathological
/// event (a huge candidate spike) cannot pin its peak allocation in
/// every publisher thread forever. Generous on purpose — steady-state
/// workloads far below it never trim and so never re-allocate.
pub const DEFAULT_SCRATCH_TRIM_CAP: usize = 8 << 20;

/// Subscriptions one background-rebalance tick moves at most — the
/// "small chunks" that keep continuous rebalancing from ever stalling a
/// shard pair for long.
pub const BACKGROUND_REBALANCE_CHUNK: usize = 32;

/// Absolute per-tick match-delta floor below which
/// [`Broker::rebalance_by_match_frequency`] treats shard hit skew as
/// noise and moves nothing.
pub const MATCH_FREQUENCY_SKEW_FLOOR: u64 = 16;

/// Default number of delivery worker threads, overridable with
/// [`BrokerBuilder::delivery_workers`]. Consumer-callback queues with
/// undelivered events wait on one ready list, and at most this many
/// drainer jobs consume it, one queue per pop; a publisher hands its
/// newly scheduled queues over every 32 queues. The pool is built
/// lazily on the first [`Broker::subscribe_consumer`]; pull-only
/// brokers never spawn it.
pub const DEFAULT_DELIVERY_WORKERS: usize = 2;

/// Events a drainer moves per queue-lock acquisition: large enough to
/// amortise the lock, small enough that a deep backlog releases it (and
/// wakes `Block`-policy publishers) regularly.
const DELIVERY_DRAIN_BATCH: usize = 32;

/// Newly scheduled consumer queues a publisher collects before it takes
/// the ready-list lock to hand them over. Handing over in chunks, not
/// once after the last enqueue, lets a drainer start on the first
/// subscribers while the publisher is still enqueueing to the rest.
const READY_CHUNK: usize = 32;

/// The delivery tier's ready list: consumer queues holding undelivered
/// events that no drainer has popped yet, and the number of drainer
/// jobs queued or running on the delivery pool. A queue is pushed only
/// by the enqueue that set its scheduled bit, so it is on this list or
/// in one drainer at most once — per-subscriber FIFO.
#[derive(Default)]
struct ReadyList {
    queues: VecDeque<(SubscriptionId, Arc<NotifyQueue>)>,
    drainers: usize,
}

/// What one [`Broker::delivery_maintenance_tick`] changed; all zeros
/// when quarantine is not configured or every subscriber was steady.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryTickReport {
    /// Subscribers newly quarantined this tick (queue capped), not
    /// counting auto-disconnects.
    pub demoted: usize,
    /// Quarantined subscribers released this tick.
    pub recovered: usize,
    /// Subscribers disconnected this tick
    /// ([`QuarantineConfig::auto_disconnect`]).
    pub disconnected: usize,
}

/// What the background rebalance thread balances on each tick; see
/// [`BrokerBuilder::background_rebalance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalancePolicy {
    /// Even out per-shard **live-subscription counts** (the PR-4
    /// invariant `max − min ≤ 1`) — the right policy when every
    /// subscription costs roughly the same to match.
    SubscriptionCount,
    /// Even out per-shard **observed match frequency**: each shard
    /// carries a lock-free counter of the matches it produced, and the
    /// tick migrates subscriptions from the shard with the highest
    /// per-tick match delta to the one with the lowest. This is the
    /// policy for skewed workloads where a minority of hot
    /// subscriptions absorb most matches — count-balanced shards can
    /// still hide an arbitrarily lopsided match load (see the
    /// `HotKeyScenario` workload and `tests/hot_path.rs`).
    MatchFrequency,
}

/// How one `migrate_between` call decides to keep moving.
#[derive(Clone, Copy, PartialEq, Eq)]
enum MigrateMode {
    /// Stop when the pair's subscription counts are balanced
    /// (`load(from) ≤ load(to) + 1`).
    Balance,
    /// Stop only when the source would drop to zero subscriptions —
    /// the frequency-weighted rebalancer deliberately unbalances
    /// counts to balance match load.
    Frequency,
    /// Move everything — shard draining during a shrink.
    Drain,
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

/// A one-shot stop signal for the background rebalance thread: `signal`
/// releases a `wait_timeout` immediately instead of letting the thread
/// sleep out its interval on shutdown.
struct StopLatch {
    stopped: StdMutex<bool>,
    cv: Condvar,
}

impl StopLatch {
    fn new() -> Self {
        StopLatch {
            stopped: StdMutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn signal(&self) {
        *self.stopped.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.cv.notify_all();
    }

    /// Sleeps up to `timeout`; returns whether stop was signalled.
    fn wait_timeout(&self, timeout: Duration) -> bool {
        let guard = self.stopped.lock().unwrap_or_else(PoisonError::into_inner);
        let (guard, _) = self
            .cv
            .wait_timeout_while(guard, timeout, |stopped| !*stopped)
            .unwrap_or_else(PoisonError::into_inner);
        *guard
    }
}

/// The background rebalance thread's handle, joined when the broker's
/// last reference drops.
struct BackgroundHandle {
    stop: Arc<StopLatch>,
    thread: JoinHandle<()>,
}

/// The decayed match-frequency window
/// [`Broker::rebalance_by_match_frequency`] plans from: `baseline` is
/// the raw per-shard counter snapshot the next tick diffs against,
/// `scores` the exponentially decayed per-tick deltas (each tick halves
/// the running score before adding the fresh delta). Scoring a decayed
/// window instead of the raw last-tick delta keeps one anomalous
/// interval from dominating the plan while sustained skew still
/// accumulates; after any tick that migrated, the scores are reset so
/// the next window measures the *new* placement rather than echoes of
/// the one just fixed.
#[derive(Default)]
struct FreqWindow {
    baseline: Vec<u64>,
    scores: Vec<u64>,
}

impl FreqWindow {
    /// Forgets everything — the next tick re-arms from scratch
    /// (resize must not compare counters across shard sets).
    fn clear(&mut self) {
        self.baseline.clear();
        self.scores.clear();
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
    /// `tests/hot_path.rs` holds this lock's write side across
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
    /// background thread's ticks — so a resize can never swap the shard
    /// set out from under a running migration.
    maintenance: Mutex<()>,
    /// The frequency-weighted rebalancer's decayed planning window:
    /// the last per-shard hit snapshot plus the decayed per-tick delta
    /// scores (ticks act on windowed deltas, not lifetime totals).
    freq_baseline: Mutex<FreqWindow>,
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
    /// Heap-byte cap above which a thread-local publish buffer is
    /// trimmed after each publish/batch instead of keeping its
    /// high-water capacity.
    scratch_trim_cap: usize,
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
    /// The background rebalance thread, when configured.
    rebalancer: Mutex<Option<BackgroundHandle>>,
}

impl Drop for BrokerInner {
    fn drop(&mut self) {
        if let Some(handle) = self.rebalancer.get_mut().take() {
            handle.stop.signal();
            // The last broker reference can die on the background
            // thread itself (its tick upgrades the Weak into a
            // temporary strong handle); joining ourselves would
            // deadlock — the thread is already past its loop and
            // exits on its own.
            if handle.thread.thread().id() != std::thread::current().id() {
                let _ = handle.thread.join();
            }
        }
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
}

/// A content-based publish/subscribe broker; see the [crate docs](crate).
///
/// Cheap to clone (`Arc` inside); clones share the same engine and
/// subscriber registry.
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
        self.subscribe_with(Arc::new(Expr::parse(expression)?), self.inner.policy, None)
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
        self.subscribe_with(Arc::new(Expr::parse(expression)?), policy, None)
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
        self.subscribe_with(
            Arc::new(Expr::parse(expression)?),
            policy,
            Some(Arc::new(consumer)),
        )
    }

    /// Registers an already-parsed subscription.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::Subscribe`] when the engine refuses it.
    pub fn subscribe_expr(&self, expr: &Expr) -> Result<Subscription, BrokerError> {
        self.subscribe_with(Arc::new(expr.clone()), self.inner.policy, None)
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
        self.subscribe_with(Arc::new(expr.clone()), policy, None)
    }

    /// The one subscribe body: placement → shard registration →
    /// directory commit → delivery-queue creation. `expr` is the text
    /// paths' parsed tree or the `&Expr` paths' clone; it is freed when
    /// the call returns, since the shard's engine keeps its own form.
    fn subscribe_with(
        &self,
        expr: Arc<Expr>,
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
        let shard = {
            let mut directory = self.inner.directory.write();
            match self.inner.placement {
                PlacementPolicy::LeastLoaded => directory.place(),
                // Clustered: route to the shard the subscription's
                // dominant equality attribute hashes to (load-capped;
                // the directory falls back to least-loaded when the
                // cluster target is overloaded), so shard synopses
                // become selective and pruning actually bites.
                PlacementPolicy::ClusterByAttribute => match dominant_eq_attr(&expr) {
                    Some(attr) => directory.place_clustered(attribute_hash(attr)),
                    None => directory.place(),
                },
            }
        };
        let set = self.shard_set();
        let cell = &set[shard];
        // Nothing beyond the engine's own registration is kept: a
        // migration, which `resize` makes possible on any broker, asks
        // the source engine for the expression. A caller's `&Expr` was
        // cloned before this point, so the copy does not extend the
        // window in which publishes on this shard are stalled.
        let mut state = cell.state.write();
        let local = match state.engine_mut().subscribe(&expr) {
            Ok(local) => local,
            Err(e) => {
                drop(state);
                self.inner.directory.write().cancel(shard);
                return Err(e.into());
            }
        };
        let id = self
            .inner
            .directory
            .write()
            .commit(shard, local, Arc::clone(&expr));
        state.bind(local, id, &expr);
        drop(state);
        // The queue's lock is classed by the id's delivery-queue group
        // (same-class nesting detection proves no path holds two).
        let queue = Arc::new(NotifyQueue::new(id.slot(), policy, consumer));
        self.inner.senders.write().insert(id, Arc::clone(&queue));
        self.inner
            .stats
            .subscriptions_created
            .fetch_add(1, Ordering::Relaxed);
        Ok(Subscription::new(id, queue, Arc::downgrade(&self.inner)))
    }

    /// Removes a subscription by id (handles also unsubscribe on drop).
    /// Returns whether it was registered.
    pub fn unsubscribe(&self, id: SubscriptionId) -> bool {
        self.inner.unsubscribe(id)
    }

    /// Live-migrates up to `max_moves` subscriptions from the currently
    /// most-loaded to the currently least-loaded shard, one batch of
    /// shard-lock acquisitions per skewed pair. Each move re-subscribes
    /// the expression the source engine gives back
    /// ([`FilterEngine::expression`]) on the target shard, retires the
    /// source entry and repoints the directory — the subscription's id,
    /// handle and delivery stream are untouched, and matching continues
    /// on every shard not in the migrating pair (see
    /// `tests/rebalance.rs` for the deterministic lock-level proof).
    /// Returns the number of subscriptions moved.
    ///
    /// Stops early when the loads are balanced (spread ≤ 1) or a target
    /// engine refuses an expression (possible only with heterogeneous
    /// [`BrokerBuilder::engine_instances`]; the subscription stays
    /// put).
    ///
    /// **Visibility window:** an event whose publish races a migration
    /// may observe the moving subscription as momentarily absent — the
    /// same anomaly as an event racing an unsubscribe+resubscribe —
    /// and is delivered to it at most once (never twice; publish
    /// deduplicates matched ids). Events published after `migrate`
    /// returns always see the subscription at its new placement.
    // lint: lock-order — migration/rebalance/resize hold multiple
    // shard locks (ascending index order only: the `(lo, hi)` idiom)
    // and consult the directory innermost (no shard acquisition while
    // a directory guard is live).
    pub fn migrate(&self, max_moves: usize) -> usize {
        let _maintenance = self.inner.maintenance.lock();
        self.migrate_locked(max_moves)
    }

    /// [`Broker::migrate`] body, with the maintenance lock already
    /// held (so `resize` and the background thread can compose it).
    fn migrate_locked(&self, max_moves: usize) -> usize {
        // Bound how long one lock acquisition of the shard pair is
        // held: a large drain (rebalance() on a heavily skewed broker)
        // is chunked, releasing and re-acquiring the pair's write
        // locks between chunks so publishers reaching those shards are
        // stalled for at most one chunk, not the whole drain.
        const MIGRATE_CHUNK: usize = 64;
        let set = self.shard_set();
        let mut moved = 0;
        while moved < max_moves {
            let Some((from, to)) = self.inner.directory.read().skew_pair() else {
                break;
            };
            let step = self.migrate_between(
                &set,
                from,
                to,
                (max_moves - moved).min(MIGRATE_CHUNK),
                MigrateMode::Balance,
            );
            if step == 0 {
                break;
            }
            moved += step;
        }
        moved
    }

    /// [`Broker::migrate`] until the per-shard loads are as even as
    /// they can be: afterwards `max(load) − min(load) ≤ 1` (unless a
    /// heterogeneous target shard refused a move). Returns the number
    /// of subscriptions moved.
    pub fn rebalance(&self) -> usize {
        self.migrate(usize::MAX)
    }

    /// One frequency-weighted rebalance tick: compares each shard's
    /// match counter against the last tick's snapshot and live-migrates
    /// up to `max_moves` subscriptions from the shard with the highest
    /// match delta to the one with the lowest — evening out observed
    /// **match load**, not subscription counts. Returns the number of
    /// subscriptions moved (0 when the skew is within
    /// [`MATCH_FREQUENCY_SKEW_FLOOR`], when the hot shard has a single
    /// subscription, or on the re-arming call after a resize changed
    /// the shard set).
    ///
    /// This is the tick the
    /// [`MatchFrequency`](RebalancePolicy::MatchFrequency) background
    /// thread runs on its interval; it is public so operators and tests
    /// can drive the same policy deterministically.
    pub fn rebalance_by_match_frequency(&self, max_moves: usize) -> usize {
        let _maintenance = self.inner.maintenance.lock();
        let set = self.shard_set();
        if set.len() < 2 {
            return 0;
        }
        let hits: Vec<u64> = set
            .iter()
            .map(|cell| cell.hits.load(Ordering::Relaxed))
            .collect();
        let scores: Vec<u64> = {
            let mut window = self.inner.freq_baseline.lock();
            let FreqWindow { baseline, scores } = &mut *window;
            if baseline.len() != hits.len() {
                // The shard set changed since the last tick: re-arm and
                // measure a fresh interval instead of comparing
                // counters across unrelated cells.
                *baseline = hits;
                *scores = vec![0; baseline.len()];
                return 0;
            }
            for ((score, hit), base) in scores.iter_mut().zip(&hits).zip(baseline.iter()) {
                // Exponential decay: halve the running score, then add
                // this tick's delta. Saturating: a shrink+grow can put
                // a fresh cell (with a zeroed counter) at an index
                // that had history.
                *score = *score / 2 + hit.saturating_sub(*base);
            }
            *baseline = hits;
            scores.clone()
        };
        let mut hot = 0;
        let mut cool = 0;
        for (i, &score) in scores.iter().enumerate() {
            if score > scores[hot] {
                hot = i;
            }
            if score < scores[cool] {
                cool = i;
            }
        }
        // Act only on real skew: the hot shard's windowed score must
        // out-match the cool one's by 2× plus an absolute floor, and
        // the hot shard must keep at least one subscription.
        if hot == cool
            || scores[hot] < 2 * scores[cool] + MATCH_FREQUENCY_SKEW_FLOOR
            || self.inner.directory.read().load(hot) <= 1
        {
            return 0;
        }
        let moved = self.migrate_between(&set, hot, cool, max_moves, MigrateMode::Frequency);
        if moved > 0 {
            // The placement just changed: the decayed scores describe
            // the pre-migration world. Reset them (keeping the raw
            // baseline) so the next window measures the new placement
            // instead of re-migrating on stale echoes.
            let mut window = self.inner.freq_baseline.lock();
            window.scores.iter_mut().for_each(|s| *s = 0);
        }
        moved
    }

    /// One migration batch between a fixed shard pair, bounded by
    /// `cap` moves: both shard locks are taken once (in ascending index
    /// order — the broker-wide discipline that keeps concurrent
    /// migrations deadlock-free) and held while subscriptions move,
    /// with `mode` deciding when the pair is done.
    fn migrate_between(
        &self,
        set: &[Arc<ShardCell>],
        from: usize,
        to: usize,
        cap: usize,
        mode: MigrateMode,
    ) -> usize {
        debug_assert_ne!(from, to);
        let (lo, hi) = (from.min(to), from.max(to));
        let lo_guard = set[lo].state.write();
        let hi_guard = set[hi].state.write();
        let (mut from_state, mut to_state) = if from < to {
            (lo_guard, hi_guard)
        } else {
            (hi_guard, lo_guard)
        };
        let mut moved = 0;
        while moved < cap {
            {
                // Re-plan every step against the live directory:
                // concurrent unsubscribes (which never need these shard
                // locks to retire an entry) may have rebalanced the
                // pair already.
                let directory = self.inner.directory.read();
                let done = match mode {
                    MigrateMode::Balance => directory.load(from) <= directory.load(to) + 1,
                    MigrateMode::Frequency => directory.load(from) <= 1,
                    MigrateMode::Drain => false,
                };
                if done {
                    break;
                }
            }
            // The victim comes from the source shard's own translation
            // map (we hold its write lock, so the map cannot move under
            // us); the directory is then consulted only to confirm the
            // entry is still live.
            let Some((global, local)) = from_state.translation().last_resident() else {
                break;
            };
            let live = matches!(
                self.inner.directory.read().placement_of(global),
                Some((shard, at)) if shard == from && at == local
            );
            if !live {
                // A racing unsubscribe retired the entry directory-first
                // and is now parked on this shard's write lock (which we
                // hold). Complete the shard-side removal on its behalf;
                // its own stale-cell guard then finds the slot gone and
                // skips. Not a migration — re-plan.
                let released = from_state.unsubscribe(local, global);
                debug_assert!(released);
                continue;
            }
            // Under the source shard's write lock the registration
            // cannot change, so its engine gives back the expression
            // it holds: the only copy there is.
            let expr = from_state
                .engine()
                .expression(local)
                .expect("a resident local id is registered in its engine");
            let Ok(new_local) = to_state.engine_mut().subscribe(&expr) else {
                // A heterogeneous target refused the expression. For
                // balancing that just means the subscription stays put
                // — but a drain has nowhere else to leave it, and
                // silently retrying would spin forever on the same
                // refusal: honour `resize`'s documented panic instead.
                assert!(
                    mode != MigrateMode::Drain,
                    "a surviving shard refused a drained subscription"
                );
                break;
            };
            let relocated = {
                let mut directory = self.inner.directory.write();
                let relocated = directory.relocate(global, from, local, to, new_local);
                if relocated {
                    // Bumped inside the directory critical section: a
                    // racing publish that translated the moved
                    // subscription on both shards is then guaranteed to
                    // observe the bumped epoch on its post-match check
                    // and dedup; a failed relocate changed no mapping,
                    // so it bumps nothing and forces no spurious sorts.
                    self.inner.migration_epoch.fetch_add(1, Ordering::Release);
                    // Counted here too, so whoever reads the moved load
                    // through the directory lock also reads the count.
                    self.inner
                        .stats
                        .subscriptions_migrated
                        .fetch_add(1, Ordering::Relaxed);
                }
                relocated
            };
            if relocated {
                let released = from_state.unsubscribe(local, global);
                debug_assert!(released, "relocated entries were resident");
                to_state.bind(new_local, global, &expr);
                moved += 1;
            } else {
                // The victim was retired between planning and commit;
                // undo the target-side copy and re-plan (the next
                // iteration's placement check completes the
                // source-side removal).
                to_state
                    .engine_mut()
                    .unsubscribe(new_local)
                    .expect("the fresh target copy is removable");
            }
        }
        moved
    }

    /// Grows or shrinks the broker to `new_shards` engine shards,
    /// **live**: publishes, subscribes and unsubscribes keep flowing
    /// throughout, and no subscription changes its id, handle or
    /// delivery stream. Returns the number of subscriptions migrated
    /// (growing moves none — new shards start empty; follow with
    /// [`Broker::rebalance`], or let the background thread spread load
    /// onto them).
    ///
    /// The shard/lock array itself is replaced behind an **epoch
    /// swap**: surviving shards keep their cells (lock, translation
    /// map, match counters — publishes holding the old epoch finish
    /// against the same cells), a grow appends fresh engines of the
    /// build-time kind, and a shrink first restricts placement to the
    /// survivors, drains each dying shard via live migration, and only
    /// then swaps the dying cells out.
    ///
    /// # Panics
    ///
    /// Panics if `new_shards` is zero, or if a surviving shard refuses
    /// a drained subscription (possible only with heterogeneous
    /// [`BrokerBuilder::engine_instances`]).
    pub fn resize(&self, new_shards: usize) -> usize {
        assert!(new_shards > 0, "a broker needs at least one engine shard");
        let _maintenance = self.inner.maintenance.lock();
        let old_set = self.shard_set();
        let old = old_set.len();
        let mut moved = 0;
        if new_shards == old {
            return 0;
        }
        if new_shards > old {
            let mut shards = old_set.to_vec();
            for index in old..new_shards {
                shards.push(Arc::new(ShardCell::new(
                    self.inner.grow_kind.build(),
                    index,
                )));
            }
            // Swap first, then grow the directory: a placement can only
            // choose the new shards after the directory grows, and any
            // thread that observes the grown directory also observes
            // the swapped set (both handed off through the locks in
            // that order).
            *self.inner.shard_set.write() = shards.into();
            let mut directory = self.inner.directory.write();
            for _ in old..new_shards {
                directory.add_shard();
            }
        } else {
            // Shrink. 1: no new subscription may land on a dying shard
            // from here on.
            self.inner.directory.write().restrict_placement(new_shards);
            // 2: drain every dying shard onto the survivors via live
            // migration, spreading chunk by chunk (least-loaded target
            // per chunk). A dying shard's load can briefly exceed its
            // residents — an in-flight subscribe placed there before
            // the restriction commits moments later — so the drain
            // loops until the directory agrees the shard is empty.
            const DRAIN_CHUNK: usize = 64;
            for dying in (new_shards..old).rev() {
                loop {
                    let drained = {
                        let directory = self.inner.directory.read();
                        directory.load(dying) == 0
                    } && old_set[dying].state.read().translation().is_empty();
                    if drained {
                        break;
                    }
                    let to = {
                        let mut directory = self.inner.directory.write();
                        let to = directory.place_among(new_shards);
                        directory.cancel(to); // relocate moves the load itself
                        to
                    };
                    let step =
                        self.migrate_between(&old_set, dying, to, DRAIN_CHUNK, MigrateMode::Drain);
                    moved += step;
                    if step == 0 {
                        // Nothing movable yet (in-flight reservation):
                        // let the subscriber commit or cancel.
                        std::thread::yield_now();
                    }
                }
            }
            // 3: swap the dying cells out of the epoch; publishes still
            // holding the old set match empty engines there.
            *self.inner.shard_set.write() = old_set[..new_shards].into();
            // 4: shrink the directory to match.
            let mut directory = self.inner.directory.write();
            for _ in new_shards..old {
                directory.remove_last_shard();
            }
        }
        // Frequency ticks must not compare counters across shard sets.
        self.inner.freq_baseline.lock().clear();
        moved
    }
    // lint: end-lock-order

    /// Live subscriptions per shard (placement reservations included) —
    /// the load vector rebalancing planning works from.
    pub fn shard_loads(&self) -> Vec<usize> {
        self.inner.directory.read().loads().to_vec()
    }

    /// Lifetime matches each shard has produced
    /// (`MatchStats::matched`, summed over publishes) — the counters
    /// the [`MatchFrequency`](RebalancePolicy::MatchFrequency)
    /// rebalancer balances on.
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

    /// Whether a background rebalance thread is attached (see
    /// [`BrokerBuilder::background_rebalance`]).
    pub fn background_rebalance_active(&self) -> bool {
        self.inner.rebalancer.lock().is_some()
    }

    /// Runs `f` while holding the placement directory's **write** lock
    /// — blocking every subscribe/unsubscribe/migrate/resize, but (by
    /// design) no publish. This is a verification hook: the hot-path
    /// contract says steady-state publishing never touches the
    /// directory lock, and `tests/hot_path.rs` proves it by publishing
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

    // lint: hot-path — the publish/match/delivery pipeline: no
    // broker-global lock may be acquired here beyond the one-pointer
    // shard-set clone (and the by-design sender-map read during
    // delivery, allowed inline below).

    /// Publishes an event: matches it against every subscription and
    /// queues notifications to the matching subscribers. Returns the
    /// number of notifications delivered. The event is wrapped in an
    /// `Arc` once; see [`Broker::publish_arc`], which this is.
    pub fn publish(&self, event: Event) -> usize {
        self.publish_arc(Arc::new(event))
    }

    /// Publishes an event the caller already holds by `Arc` — the
    /// zero-copy entry every publish goes through: the same allocation
    /// is shared by every delivered notification, and the event is
    /// never cloned.
    ///
    /// Matching runs the per-shard step ([`Shard::match_event`]) on
    /// each shard under that shard's **read** lock: the synopsis prune
    /// check, the engine match into a thread-local [`MatchScratch`] and
    /// the translation of matched local ids through the shard's own map
    /// all happen under that one guard — the matching phase acquires
    /// no broker-global lock beyond the one-pointer clone of the
    /// current shard set (and, in particular, never the placement
    /// directory's; delivery afterwards takes the sender-map read lock
    /// just long enough to snapshot the matched queues, then enqueues
    /// with no broker lock held). Translating under the shard's read
    /// lock is what makes it sound against migration, which commits a
    /// relocation only while holding that shard's write lock; an id
    /// retired by a racing unsubscribe has no translation and is
    /// dropped, exactly as delivery would drop its removed sender.
    /// Concurrent publishers match in parallel and a write-locked shard
    /// (a subscription in progress) delays only its own shard's portion
    /// of the match. All locks are released before delivery; the
    /// thread-local borrow covers only matching. The matched buffer is
    /// reused across publishes on the same thread.
    ///
    /// The shards are walked one after another **on the calling
    /// thread** — there is no hand-off, so an engine that panics
    /// unwinds to the caller (releasing the shard's read guard and the
    /// thread-local borrow on the way) instead of costing the publish a
    /// shard silently.
    ///
    /// Subscribers found disconnected (handle dropped without
    /// unsubscribe — possible when the handle's broker reference was
    /// already gone) are pruned.
    pub fn publish_arc(&self, event: Arc<Event>) -> usize {
        let set = self.shard_set();
        let epoch = self.migration_epoch();
        // The matched buffer is swapped out of the thread-local state
        // so the RefCell borrow ends before delivery (which takes the
        // sender-map lock and may re-enter the broker to prune dead
        // subscribers).
        let mut matched = PUBLISH_STATE.with(|cell| {
            let state = &mut *cell.borrow_mut();
            let mut matched = std::mem::take(&mut state.matched);
            matched.clear();
            for cell in set.iter() {
                let stats = cell.state.read().match_event(&event, &mut state.scratch);
                cell.record(&stats);
                matched.extend_from_slice(state.scratch.matched());
            }
            if state.scratch.heap_bytes() > self.inner.scratch_trim_cap {
                state.scratch.trim();
            }
            matched
        });
        self.dedup_matched(epoch, &mut matched);
        self.inner
            .stats
            .events_published
            .fetch_add(1, Ordering::Relaxed);
        let delivered = self.deliver_matched_arc(&event, &matched);
        self.return_matched(matched);
        delivered
    }

    /// Snapshot of the migration epoch, taken before matching starts;
    /// pair with [`Broker::dedup_matched`] after the last translation.
    fn migration_epoch(&self) -> u64 {
        self.inner.migration_epoch.load(Ordering::Acquire)
    }

    /// Shards are visited one lock at a time, so a publish racing a
    /// live migration can see the migrating subscription on both its
    /// source and its target shard; deduplicating keeps delivery
    /// at-most-once per subscriber per event. (The mirror race — the
    /// event observing the subscription on *neither* shard — is the
    /// same anomaly as an event racing an unsubscribe+resubscribe and
    /// is documented on [`Broker::migrate`].)
    ///
    /// The sort only runs when a relocation actually committed during
    /// the match window (`epoch_before` no longer current): any
    /// relocation able to duplicate this publish's matched set commits
    /// under a shard write lock *between* two of its shard visits, and
    /// therefore between the two epoch reads. Migration-quiescent
    /// publishes — and single-shard brokers, which cannot migrate —
    /// pay nothing.
    fn dedup_matched(&self, epoch_before: u64, matched: &mut Vec<SubscriptionId>) {
        if self.inner.migration_epoch.load(Ordering::Acquire) != epoch_before {
            matched.sort_unstable();
            matched.dedup();
        }
    }

    /// Returns the matched buffer's capacity to the thread for the next
    /// publish — unless the publish grew it past the scratch trim cap,
    /// in which case the spike capacity is dropped rather than pinned
    /// in the thread-local state (the matched-accumulator half of the
    /// high-water fix; the publish bodies trim the scratch themselves).
    fn return_matched(&self, mut matched: Vec<SubscriptionId>) {
        self.release_if_oversized(&mut matched);
        PUBLISH_STATE.with(|cell| cell.borrow_mut().matched = matched);
    }

    /// The one place the trim-cap rule for the thread-local buffers
    /// lives: a vector grown past [`BrokerBuilder::scratch_trim_cap`] is
    /// replaced by an empty one (capacity released) before being parked
    /// for reuse.
    fn release_if_oversized<T>(&self, buffer: &mut Vec<T>) {
        if buffer.capacity() * std::mem::size_of::<T>() > self.inner.scratch_trim_cap {
            *buffer = Vec::new();
        }
    }

    /// Publishes a batch of events — the amortised hot path. Returns
    /// the total number of notifications delivered, and delivers
    /// exactly the same notifications, in the same per-subscriber
    /// order, as the equivalent sequence of [`Broker::publish`] calls.
    ///
    /// The batch is taken as `Arc<Event>`s: one allocation per event,
    /// made by the caller, shared untouched across every shard's
    /// matching and every delivered notification — the batch path never
    /// clones an event. Callers holding plain events can use the
    /// [`Broker::publish_batch_events`] convenience wrapper.
    ///
    /// Compared to the one-by-one sequence, the batch visits each shard
    /// once ([`Shard::match_batch`]): the shard's read lock is acquired
    /// **once**, the thread-local batch scratch serves every event,
    /// each admitted event is matched and its ids translated under that
    /// same guard, and delivery snapshots each event's queues as the
    /// single publish does. The matching of one event costs what it
    /// costs in [`Broker::publish_arc`]; what is amortised is the
    /// visit. Like the single publish, the walk runs on the calling
    /// thread.
    pub fn publish_batch(&self, events: &[Arc<Event>]) -> usize {
        if events.is_empty() {
            return 0;
        }
        // Phase A: match every event against every shard, bucketing
        // matched global ids per event. Shard-major order amortises
        // lock acquisitions; buckets keep delivery event-major so
        // per-subscriber notification order equals the sequential one.
        let set = self.shard_set();
        let epoch = self.migration_epoch();
        let buckets = PUBLISH_STATE.with(|cell| {
            let state = &mut *cell.borrow_mut();
            let mut buckets = std::mem::take(&mut state.buckets);
            buckets.iter_mut().for_each(Vec::clear);
            if buckets.len() < events.len() {
                // Grow to the high-water batch length, never shrink:
                // a short batch must not free the longer tail's
                // capacity (everything zips against `events`, so
                // extra cleared buckets are simply ignored).
                buckets.resize_with(events.len(), Vec::new);
            }
            // Shard order per event, so per-event ids concatenate
            // exactly like the one-by-one walk.
            for cell in set.iter() {
                let stats = cell.state.read().match_batch(events, &[], &mut state.batch);
                cell.record(&stats);
                for (e, bucket) in buckets.iter_mut().enumerate().take(events.len()) {
                    bucket.extend_from_slice(state.batch.matched(e));
                }
            }
            if state.batch.heap_bytes() > self.inner.scratch_trim_cap {
                state.batch.trim();
            }
            for bucket in buckets.iter_mut().take(events.len()) {
                // Same migration-race guard as the single-publish path.
                self.dedup_matched(epoch, bucket);
            }
            buckets
        });
        self.inner
            .stats
            .events_published
            .fetch_add(events.len() as u64, Ordering::Relaxed);

        // Phase B: delivery, outside the scratch borrow and all engine
        // locks. Each event snapshots its matched subscribers' queues
        // under a short sender-map read and enqueues outside it — the
        // same two-phase walk as the single-publish path, so a slow
        // consumer (or a `Block`-policy wait) in the middle of a batch
        // never extends the window in which an unsubscribe is stalled.
        // The caller's Arcs are delivered as-is: no event is cloned.
        let mut delivered = 0usize;
        for (event, matched) in events.iter().zip(&buckets) {
            delivered += self.deliver_matched_arc(event, matched);
        }
        // Bucket half of the high-water fix: a bucket a pathological
        // event grew past the trim cap is released, not parked.
        let mut buckets = buckets;
        for bucket in &mut buckets {
            self.release_if_oversized(bucket);
        }
        PUBLISH_STATE.with(|cell| cell.borrow_mut().buckets = buckets);
        delivered
    }

    /// [`Broker::publish_batch`] for callers holding plain events: each
    /// is cloned into an `Arc` once (the only copies made — matching
    /// and delivery then share them). The `Arc` list itself lives in a
    /// reusable thread-local buffer, so the steady-state wrapper adds
    /// no allocation beyond the per-event `Arc`s.
    pub fn publish_batch_events(&self, events: &[Event]) -> usize {
        // Take the buffer *out* of the thread-local cell: publish_batch
        // re-borrows PUBLISH_STATE, so the RefCell borrow must not be
        // live across the call.
        let mut shared =
            PUBLISH_STATE.with(|cell| std::mem::take(&mut cell.borrow_mut().event_arcs));
        shared.clear();
        shared.extend(events.iter().map(|e| Arc::new(e.clone())));
        let delivered = self.publish_batch(&shared);
        // Drop the Arcs now (deliveries hold their own clones) and park
        // the buffer's capacity for the next batch — unless a
        // pathological batch grew it past the trim cap.
        shared.clear();
        self.release_if_oversized(&mut shared);
        PUBLISH_STATE.with(|cell| cell.borrow_mut().event_arcs = shared);
        delivered
    }

    /// Queues `event` — shared, so every subscriber receives the
    /// caller's `Arc` (zero copies) — to the subscribers in `matched`.
    ///
    /// Delivery is two-phase (the unsubscribe-stall fix): the
    /// sender-map read lock is held only long enough to snapshot the
    /// matched subscribers' queue handles into a thread-local buffer;
    /// every enqueue — including a [`DeliveryPolicy::Block`] wait —
    /// then runs with **no** broker lock held, so subscribe/unsubscribe
    /// churn never queues behind a long fan-out walk. At-most-once
    /// still holds: a subscriber unsubscribed after the snapshot has
    /// its queue closed by the unsubscribe, and the late enqueue lands
    /// as a counted disconnected send, not a delivery.
    fn deliver_matched_arc(&self, event: &Arc<Event>, matched: &[SubscriptionId]) -> usize {
        if matched.is_empty() {
            return 0;
        }
        let (mut targets, mut ready) = PUBLISH_STATE.with(|cell| {
            let state = &mut *cell.borrow_mut();
            let mut targets = std::mem::take(&mut state.targets);
            targets.clear();
            {
                // lint: allow(hot-path-locking, reason = "delivery snapshots the sender map by design — held for the matched-id lookups only, never across an enqueue")
                let senders = self.inner.senders.read();
                targets.extend(
                    matched
                        .iter()
                        .filter_map(|id| senders.get(id).map(|q| (*id, Arc::clone(q)))),
                );
            }
            (targets, std::mem::take(&mut state.ready))
        });
        let delivered = self.enqueue_targets(&targets, event, &mut ready);
        // Same trim-cap rule as the matched-id buffer: a pathological
        // fan-out must not pin its peak snapshot capacity per thread.
        targets.clear();
        self.release_if_oversized(&mut targets);
        self.release_if_oversized(&mut ready);
        PUBLISH_STATE.with(|cell| {
            let state = &mut *cell.borrow_mut();
            state.targets = targets;
            state.ready = ready;
        });
        delivered
    }

    /// Delivery core: enqueues `event` onto each snapshot target's
    /// queue — no broker lock held, one classed queue lock per target —
    /// handing the consumer queues it scheduled to the ready list in
    /// chunks of [`READY_CHUNK`] (collected in `ready`, empty again on
    /// return), and pruning subscribers whose queue turned out closed.
    fn enqueue_targets(
        &self,
        targets: &[(SubscriptionId, Arc<NotifyQueue>)],
        event: &Arc<Event>,
        ready: &mut Vec<(SubscriptionId, Arc<NotifyQueue>)>,
    ) -> usize {
        let mut delivered = 0usize;
        let mut dropped = 0u64;
        let mut disconnected = 0u64;
        let mut dead: Vec<SubscriptionId> = Vec::new();
        for (id, queue) in targets {
            if queue.may_park() {
                // A `Block` wait may follow: the queues scheduled so far
                // must not wait out its timeout with the publisher.
                self.hand_over(ready);
            }
            let (outcome, schedule) = queue.enqueue(Arc::clone(event));
            match outcome {
                Enqueue::Delivered => delivered += 1,
                Enqueue::Dropped => dropped += 1,
                Enqueue::Disconnected => {
                    disconnected += 1;
                    dead.push(*id);
                }
            }
            if schedule {
                ready.push((*id, Arc::clone(queue)));
                if ready.len() == READY_CHUNK {
                    self.hand_over(ready);
                }
            }
        }
        self.hand_over(ready);
        let stats = &self.inner.stats;
        if delivered > 0 {
            stats
                .notifications_delivered
                .fetch_add(delivered as u64, Ordering::Relaxed);
        }
        if dropped > 0 {
            stats
                .notifications_dropped
                .fetch_add(dropped, Ordering::Relaxed);
        }
        if disconnected > 0 {
            stats
                .notifications_disconnected
                .fetch_add(disconnected, Ordering::Relaxed);
        }
        self.prune_dead(dead);
        delivered
    }

    /// Moves `chunk` — consumer queues whose scheduled bit this
    /// publisher set — onto the ready list under one lock acquisition,
    /// and submits a drainer job for each pool thread not already
    /// draining, up to one per waiting queue: none while enough
    /// drainers are live. The jobs capture the ready list and a `Weak`
    /// broker reference only: they can never keep a dropped broker
    /// alive, and the pool's own Drop (which runs queued jobs to
    /// completion) cannot deadlock on the broker's teardown.
    fn hand_over(&self, chunk: &mut Vec<(SubscriptionId, Arc<NotifyQueue>)>) {
        if chunk.is_empty() {
            return;
        }
        let Some(pool) = self.inner.delivery_pool.get() else {
            // Unreachable in practice: the scheduled bit only flips on
            // consumer queues, and the first consumer subscribe built
            // the pool. Degrades to pull-only delivery if not.
            chunk.clear();
            return;
        };
        let jobs = {
            // lint: allow(hot-path-locking, reason = "the ready-list hand-off: one acquisition per READY_CHUNK scheduled queues, a leaf held for an append and a count")
            let mut list = self.inner.delivery_ready.lock();
            list.queues.extend(chunk.drain(..));
            let jobs = (pool.threads() - list.drainers).min(list.queues.len());
            list.drainers += jobs;
            jobs
        };
        if jobs == 0 {
            return;
        }
        self.inner
            .stats
            .drain_jobs
            .fetch_add(jobs as u64, Ordering::Relaxed);
        for _ in 0..jobs {
            let ready = Arc::clone(&self.inner.delivery_ready);
            let weak = Arc::downgrade(&self.inner);
            pool.submit(move || run_drainer(&ready, &weak));
        }
    }

    /// Unsubscribes disconnected subscribers found during delivery
    /// (idempotent: batch delivery may report one subscriber several
    /// times).
    fn prune_dead(&self, dead: Vec<SubscriptionId>) {
        for id in dead {
            self.inner.unsubscribe(id);
        }
    }

    // lint: end-hot-path

    /// A cloneable publishing handle for producer threads.
    pub fn publisher(&self) -> Publisher {
        Publisher {
            broker: self.clone(),
        }
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
            .filter(|queue| queue.quarantined())
            .count()
    }

    /// One slow-consumer quarantine tick: every subscriber's lag is
    /// checked against the configured [`QuarantineConfig`] — consumers
    /// over the watermark accumulate strikes toward demotion (queue
    /// capped, or closed under
    /// [`auto_disconnect`](QuarantineConfig::auto_disconnect));
    /// quarantined consumers that drained accumulate strikes toward
    /// release. A no-op unless [`BrokerBuilder::quarantine`] was set.
    ///
    /// The broker runs no tick on its own: the caller decides when.
    /// Ticks serialize with migration/resize on the maintenance lock.
    /// Subscribes and unsubscribes may still run during a tick: the
    /// `senders` read guard only pins the map, and each queue is judged
    /// under its own lock.
    pub fn delivery_maintenance_tick(&self) -> DeliveryTickReport {
        let Some(config) = self.inner.quarantine else {
            return DeliveryTickReport::default();
        };
        let _maintenance = self.inner.maintenance.lock();
        let mut report = DeliveryTickReport::default();
        let mut to_disconnect: Vec<SubscriptionId> = Vec::new();
        {
            // Lock order: `senders` read → per-queue leaf locks, one at
            // a time (never two queues at once).
            let senders = self.inner.senders.read();
            for (id, queue) in senders.iter() {
                match queue.maintenance_tick(&config) {
                    TickOutcome::Steady => {}
                    TickOutcome::Demoted => report.demoted += 1,
                    TickOutcome::Recovered => report.recovered += 1,
                    TickOutcome::Disconnect => {
                        report.disconnected += 1;
                        to_disconnect.push(*id);
                    }
                }
            }
        }
        // Unsubscribing takes the sender-map write lock — strictly
        // after the read guard above is gone.
        for id in to_disconnect {
            self.inner.unsubscribe(id);
        }
        let stats = &self.inner.stats;
        let demotions = (report.demoted + report.disconnected) as u64;
        if demotions > 0 {
            stats
                .subscribers_quarantined
                .fetch_add(demotions, Ordering::Relaxed);
        }
        if report.recovered > 0 {
            stats
                .quarantine_recoveries
                .fetch_add(report.recovered as u64, Ordering::Relaxed);
        }
        report
    }

    /// One background tick of `policy`; returns the subscriptions
    /// moved.
    fn background_tick(&self, policy: RebalancePolicy) -> usize {
        match policy {
            RebalancePolicy::SubscriptionCount => self.migrate(BACKGROUND_REBALANCE_CHUNK),
            RebalancePolicy::MatchFrequency => {
                self.rebalance_by_match_frequency(BACKGROUND_REBALANCE_CHUNK)
            }
        }
    }
}

/// The background rebalance thread body: tick `policy` every
/// `interval` until the broker goes away or shutdown is signalled. The
/// thread holds only a `Weak` reference — it can never keep a dropped
/// broker alive, and a failed upgrade is its exit signal.
fn background_rebalance_loop(
    weak: Weak<BrokerInner>,
    stop: Arc<StopLatch>,
    interval: Duration,
    policy: RebalancePolicy,
) {
    while !stop.wait_timeout(interval) {
        let Some(inner) = weak.upgrade() else {
            break;
        };
        let broker = Broker { inner };
        broker.background_tick(policy);
        // `broker` drops here; if an exiting owner raced us, this may
        // be the last reference — BrokerInner's Drop skips joining the
        // thread it is running on, so the teardown stays clean.
    }
}

/// One drainer job: pops one queue at a time off the ready list and
/// drains it, until the list is empty. The ready lock is held only for
/// the pop; the exit decrements `drainers` under the same acquisition
/// that found the list empty, so a publisher appending after it sees
/// the drainer gone and submits a fresh one. Taking one queue per pop
/// is the stall-isolation rule: a wedged callback holds its own queue
/// and this worker, and every other queue stays poppable.
fn run_drainer(ready: &Mutex<ReadyList>, weak: &Weak<BrokerInner>) {
    let _unwind = DrainerUnwind(ready);
    let mut batch: Vec<Arc<Event>> = Vec::with_capacity(DELIVERY_DRAIN_BATCH);
    loop {
        let (id, queue) = {
            let mut list = ready.lock();
            match list.queues.pop_front() {
                Some(entry) => entry,
                None => {
                    list.drainers -= 1;
                    return;
                }
            }
        };
        drain_queue(weak, id, &queue, &mut batch);
    }
}

/// Keeps `ReadyList::drainers` exact when a drainer unwinds between
/// pops (the `expect` in `BrokerInner::unsubscribe` after a consumer
/// panic); the normal exit decrements in `run_drainer` itself.
struct DrainerUnwind<'a>(&'a Mutex<ReadyList>);

impl Drop for DrainerUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().drainers -= 1;
        }
    }
}

/// Feeds `queue`'s backlog to the subscriber's callback, `batch` (empty
/// on entry and on return) at a time, until the queue is empty — which
/// clears the scheduled bit under the queue lock, so the next enqueue
/// puts it on the ready list again. Nothing is locked across the
/// callback; a panicking callback is caught, its subscription torn
/// down, and the drainer — and every other subscriber — continues.
fn drain_queue(
    weak: &Weak<BrokerInner>,
    id: SubscriptionId,
    queue: &NotifyQueue,
    batch: &mut Vec<Arc<Event>>,
) {
    let Some(consumer) = queue.consumer() else {
        return;
    };
    while queue.pop_batch(batch, DELIVERY_DRAIN_BATCH) {
        for event in batch.drain(..) {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                consumer(event);
            }));
            if outcome.is_err() {
                // Panic isolation: discard this subscriber's backlog
                // and remove it; the broker may already be mid-drop
                // (failed upgrade), in which case the queue close is
                // all that is left to do. The closed queue keeps its
                // scheduled bit and is never pushed again.
                queue.close(true);
                if let Some(inner) = weak.upgrade() {
                    inner.stats.consumer_panics.fetch_add(1, Ordering::Relaxed);
                    inner.unsubscribe(id);
                }
                return;
            }
        }
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

/// A cloneable handle for publishing from producer threads.
///
/// # Examples
///
/// ```
/// use boolmatch_broker::Broker;
/// use boolmatch_types::Event;
///
/// let broker = Broker::builder().build();
/// let publisher = broker.publisher();
/// std::thread::spawn(move || {
///     publisher.publish(Event::builder().attr("n", 1_i64).build());
/// })
/// .join()
/// .unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct Publisher {
    broker: Broker,
}

impl Publisher {
    /// Publishes an event; see [`Broker::publish`].
    pub fn publish(&self, event: Event) -> usize {
        self.broker.publish(event)
    }

    /// Publishes an already-shared event; see [`Broker::publish_arc`].
    pub fn publish_arc(&self, event: Arc<Event>) -> usize {
        self.broker.publish_arc(event)
    }

    /// Publishes a batch of shared events; see
    /// [`Broker::publish_batch`].
    pub fn publish_batch(&self, events: &[Arc<Event>]) -> usize {
        self.broker.publish_batch(events)
    }

    /// Publishes a batch of plain events; see
    /// [`Broker::publish_batch_events`].
    pub fn publish_batch_events(&self, events: &[Event]) -> usize {
        self.broker.publish_batch_events(events)
    }
}

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
    scratch_trim_cap: Option<usize>,
    background: Option<(Duration, RebalancePolicy)>,
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
            .field("scratch_trim_cap", &self.scratch_trim_cap)
            .field("background_rebalance", &self.background)
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

    /// Supplies a single pre-built (possibly custom) engine instead of
    /// an [`EngineKind`]; takes precedence over
    /// [`BrokerBuilder::engine`] and [`BrokerBuilder::shards`]. Useful
    /// for non-default engine configurations and for instrumented
    /// engines in tests.
    #[must_use]
    pub fn engine_instance(self, engine: BoxedEngine) -> Self {
        self.engine_instances(vec![engine])
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

    /// Attaches a **background rebalance thread**: every `interval` it
    /// runs one tick of `policy`, live-migrating at most
    /// [`BACKGROUND_REBALANCE_CHUNK`] subscriptions — continuous,
    /// amortised rebalancing instead of operator-triggered
    /// [`Broker::rebalance`] bursts. The thread parks between ticks,
    /// holds only a weak reference to the broker (it can never keep a
    /// dropped broker alive), wakes immediately on shutdown, and is
    /// joined when the last broker handle drops. Ticks serialize with
    /// operator-driven migration and [`Broker::resize`] on the broker's
    /// maintenance lock; none of it ever blocks the publish hot path.
    #[must_use]
    pub fn background_rebalance(mut self, interval: Duration, policy: RebalancePolicy) -> Self {
        self.background = Some((interval, policy));
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

    /// Sets the heap-byte cap above which a publish scratch is trimmed
    /// — capacity released — instead of kept at its high-water size
    /// (default: [`DEFAULT_SCRATCH_TRIM_CAP`]). Applied to each of the
    /// publishing thread's reusable buffers (match scratch, batch
    /// scratch, matched ids, batch buckets, delivery targets, ready
    /// chunk) after each publish/batch. Without a cap, one pathological
    /// event (say, a 100k-candidate spike) would pin its peak
    /// allocation in every publisher thread for the thread's lifetime.
    /// `usize::MAX`
    /// disables trimming (the pre-cap behaviour); `0` trims after every
    /// publish — useful in memory-starved deployments, at the price of
    /// re-growing the buffers each publish.
    #[must_use]
    pub fn scratch_trim_cap(mut self, bytes: usize) -> Self {
        self.scratch_trim_cap = Some(bytes);
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
        let scratch_trim_cap = self.scratch_trim_cap.unwrap_or(DEFAULT_SCRATCH_TRIM_CAP);
        let shards: Vec<Arc<ShardCell>> = engines
            .into_iter()
            .enumerate()
            .map(|(index, engine)| Arc::new(ShardCell::new(engine, index)))
            .collect();
        let directory = SubscriptionDirectory::new(shard_count);
        let inner = Arc::new(BrokerInner {
            shard_set: RwLock::new(shards.into()),
            directory: RwLock::new(directory),
            maintenance: Mutex::new(()),
            freq_baseline: Mutex::new(FreqWindow::default()),
            scratch_trim_cap,
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
            rebalancer: Mutex::new(None),
        });
        // Register the broker-global locks with lockdep (debug builds):
        // runtime enforcement of the documented order — `maintenance`
        // outermost, shard locks ascending, `directory` innermost,
        // `senders`/`delivery_ready`/`shard-set`/`freq-baseline`/
        // `rebalancer` leaves.
        inner.directory.set_class(lock_classes::DIRECTORY);
        inner.maintenance.set_class(lock_classes::MAINTENANCE);
        inner.senders.set_class(lock_classes::SENDERS);
        inner.delivery_ready.set_class(lock_classes::DELIVERY_READY);
        inner.shard_set.set_class("shard-set");
        inner.freq_baseline.set_class("freq-baseline");
        inner.rebalancer.set_class("rebalancer");
        if let Some((interval, policy)) = self.background {
            let stop = Arc::new(StopLatch::new());
            let weak = Arc::downgrade(&inner);
            let thread = {
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name("boolmatch-rebalancer".into())
                    .spawn(move || background_rebalance_loop(weak, stop, interval, policy))
                    .expect("spawning the background rebalance thread")
            };
            *inner.rebalancer.lock() = Some(BackgroundHandle { stop, thread });
        }
        Broker { inner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pairs: &[(&str, i64)]) -> Event {
        Event::from_pairs(pairs.iter().map(|(n, v)| (*n, *v)))
    }

    #[test]
    fn subscribe_publish_receive() {
        let broker = Broker::builder().build();
        let sub = broker.subscribe("a = 1 and b = 2").unwrap();
        assert_eq!(broker.publish(ev(&[("a", 1), ("b", 2)])), 1);
        assert_eq!(broker.publish(ev(&[("a", 1)])), 0);
        let got = sub.try_recv().unwrap();
        assert_eq!(got.get("b"), Some(&2_i64.into()));
        assert!(sub.try_recv().is_none());
    }

    #[test]
    fn every_engine_kind_works() {
        for kind in EngineKind::ALL {
            let broker = Broker::builder().engine(kind).build();
            assert_eq!(broker.engine_kind(), kind);
            let sub = broker.subscribe("(a = 1 or b = 2) and c = 3").unwrap();
            assert_eq!(broker.publish(ev(&[("b", 2), ("c", 3)])), 1);
            assert!(sub.try_recv().is_some());
        }
    }

    #[test]
    fn parse_errors_surface() {
        let broker = Broker::builder().build();
        assert!(matches!(
            broker.subscribe("a >"),
            Err(BrokerError::Parse(_))
        ));
    }

    #[test]
    fn explicit_unsubscribe_stops_delivery() {
        let broker = Broker::builder().build();
        let sub = broker.subscribe("a = 1").unwrap();
        let id = sub.id();
        assert!(broker.unsubscribe(id));
        assert!(!broker.unsubscribe(id));
        assert_eq!(broker.publish(ev(&[("a", 1)])), 0);
        assert_eq!(broker.subscription_count(), 0);
    }

    #[test]
    fn handle_drop_unsubscribes() {
        let broker = Broker::builder().build();
        {
            let _sub = broker.subscribe("a = 1").unwrap();
            assert_eq!(broker.subscription_count(), 1);
        }
        assert_eq!(broker.subscription_count(), 0);
        assert_eq!(broker.publish(ev(&[("a", 1)])), 0);
        let stats = broker.stats();
        assert_eq!(stats.subscriptions_created, 1);
        assert_eq!(stats.subscriptions_removed, 1);
    }

    #[test]
    fn drop_newest_policy_counts_drops() {
        let broker = Broker::builder()
            .delivery(DeliveryPolicy::DropNewest { capacity: 1 })
            .build();
        let sub = broker.subscribe("a = 1").unwrap();
        assert_eq!(broker.publish(ev(&[("a", 1)])), 1);
        assert_eq!(broker.publish(ev(&[("a", 1)])), 0); // queue full
        assert_eq!(broker.stats().notifications_dropped, 1);
        assert!(sub.try_recv().is_some());
        assert_eq!(broker.publish(ev(&[("a", 1)])), 1);
    }

    #[test]
    fn fanout_to_many_subscribers() {
        let broker = Broker::builder().build();
        let subs: Vec<_> = (0..20)
            .map(|_| broker.subscribe("tick = 1").unwrap())
            .collect();
        assert_eq!(broker.publish(ev(&[("tick", 1)])), 20);
        for sub in &subs {
            assert!(sub.try_recv().is_some());
        }
    }

    #[test]
    fn concurrent_publishers_and_subscribers() {
        let broker = Broker::builder().build();
        let subs: Vec<_> = (0..8)
            .map(|i| broker.subscribe(&format!("topic = {i}")).unwrap())
            .collect();
        let mut handles = Vec::new();
        for t in 0..4 {
            let publisher = broker.publisher();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    publisher.publish(Event::builder().attr("topic", ((t + i) % 8) as i64).build());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: usize = subs.iter().map(|s| s.drain().len()).sum();
        assert_eq!(total, 400);
        assert_eq!(broker.stats().events_published, 400);
        assert_eq!(broker.stats().notifications_delivered, 400);
    }

    #[test]
    fn stats_snapshot_is_consistent() {
        let broker = Broker::builder().build();
        let _sub = broker.subscribe("a = 1").unwrap();
        broker.publish(ev(&[("a", 1)]));
        broker.publish(ev(&[("a", 2)]));
        let s = broker.stats();
        assert_eq!(s.events_published, 2);
        assert_eq!(s.notifications_delivered, 1);
        assert_eq!(s.subscriptions_created, 1);
    }

    #[test]
    fn memory_usage_is_exposed() {
        let broker = Broker::builder().build();
        let _sub = broker.subscribe("(a = 1 or b = 2) and c = 3").unwrap();
        assert!(broker.memory_usage().total() > 0);
    }

    #[test]
    fn default_broker_has_one_shard() {
        let broker = Broker::builder().build();
        assert_eq!(broker.shard_count(), 1);
        assert_eq!(Broker::builder().shards(1).build().shard_count(), 1);
        assert_eq!(Broker::builder().shards(4).build().shard_count(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one engine shard")]
    fn zero_shards_panics() {
        let _ = Broker::builder().shards(0);
    }

    #[test]
    fn sharded_unsubscribe_routes_to_owning_shard() {
        let broker = Broker::builder().shards(3).build();
        let subs: Vec<_> = (0..9)
            .map(|i| broker.subscribe(&format!("a = {i}")).unwrap())
            .collect();
        let id = subs[4].id();
        assert!(broker.unsubscribe(id));
        assert!(!broker.unsubscribe(id));
        assert_eq!(broker.subscription_count(), 8);
        assert_eq!(broker.publish(ev(&[("a", 4)])), 0);
        assert_eq!(broker.publish(ev(&[("a", 5)])), 1);
    }

    #[test]
    fn rejected_subscription_does_not_skew_placement() {
        // 2^17 DNF conjunctions: over the counting engine's default
        // 65,536 limit, so registration is rejected.
        let huge: String = (0..17)
            .map(|i| format!("(a{i} = 1 or b{i} = 1)"))
            .collect::<Vec<_>>()
            .join(" and ");
        let flat = Broker::builder().engine(EngineKind::Counting).build();
        let sharded = Broker::builder()
            .engine(EngineKind::Counting)
            .shards(2)
            .build();
        for broker in [&flat, &sharded] {
            let a = broker.subscribe("x = 1").unwrap();
            assert!(matches!(
                broker.subscribe(&huge),
                Err(BrokerError::Subscribe(_))
            ));
            let c = broker.subscribe("x = 2").unwrap();
            // The rejection consumed no slot: the next subscription
            // takes the slot after `a`'s, as on an unsharded broker.
            assert_eq!(a.id().slot(), 0);
            assert_eq!(c.id().slot(), 1);
        }
    }

    #[test]
    fn publish_batch_empty_and_repeated() {
        let broker = Broker::builder().shards(2).build();
        assert_eq!(broker.publish_batch(&[]), 0);
        let sub = broker.subscribe("a = 1").unwrap();
        // Repeated batches reuse the thread-local buckets (shrinking
        // and growing the batch length between calls); the plain-event
        // wrapper and the Arc form interleave freely.
        assert_eq!(
            broker.publish_batch_events(&[ev(&[("a", 1)]), ev(&[("a", 2)])]),
            1
        );
        assert_eq!(broker.publish_batch(&[Arc::new(ev(&[("a", 1)]))]), 1);
        assert_eq!(
            broker.publish_batch_events(&[ev(&[("a", 1)]), ev(&[("a", 1)]), ev(&[("a", 3)])]),
            2
        );
        assert_eq!(sub.drain().len(), 4);
        assert_eq!(broker.stats().events_published, 6);
    }

    #[test]
    fn publish_arc_shares_the_allocation_with_delivery() {
        let broker = Broker::builder().shards(2).build();
        let sub = broker.subscribe("a = 1").unwrap();
        let event = Arc::new(ev(&[("a", 1)]));
        assert_eq!(broker.publish_arc(Arc::clone(&event)), 1);
        let got = sub.try_recv().unwrap();
        // Delivery queued the caller's Arc itself, not a copy.
        assert!(Arc::ptr_eq(&got, &event));
    }

    #[test]
    fn heterogeneous_engine_instances() {
        let broker = Broker::builder()
            .engine_instances(vec![
                EngineKind::NonCanonical.build(),
                EngineKind::Counting.build(),
            ])
            .build();
        assert_eq!(broker.shard_count(), 2);
        assert_eq!(broker.engine_kind(), EngineKind::NonCanonical);
        let a = broker.subscribe("a = 1").unwrap(); // shard 0
        let b = broker.subscribe("a = 2").unwrap(); // shard 1
        assert_eq!(broker.publish(ev(&[("a", 1)])), 1);
        assert_eq!(broker.publish(ev(&[("a", 2)])), 1);
        assert_eq!(a.drain().len(), 1);
        assert_eq!(b.drain().len(), 1);
        assert!(broker.memory_usage().total() > 0);
    }

    #[test]
    fn drained_shard_is_refilled_first() {
        // The churn-skew regression at the broker layer: unsubscribes
        // empty one shard; the old blind round-robin cursor kept
        // striding past it, least-loaded placement refills it.
        let broker = Broker::builder().shards(4).build();
        let mut subs: Vec<_> = (0..12)
            .map(|i| broker.subscribe(&format!("a = {i}")).unwrap())
            .collect();
        assert_eq!(broker.shard_loads(), vec![3, 3, 3, 3]);
        // Arrivals 2, 6, 10 are shard 2's; drop them.
        for &i in &[10usize, 6, 2] {
            drop(subs.remove(i));
        }
        assert_eq!(broker.shard_loads(), vec![3, 3, 0, 3]);
        for i in 12..15 {
            subs.push(broker.subscribe(&format!("a = {i}")).unwrap());
        }
        assert_eq!(broker.shard_loads(), vec![3, 3, 3, 3]);
        // And the refilled shard actually matches.
        assert_eq!(broker.publish(ev(&[("a", 13)])), 1);
    }

    #[test]
    fn rebalance_moves_load_without_touching_subscribers() {
        let broker = Broker::builder().shards(3).build();
        let mut subs: Vec<_> = (0..12)
            .map(|i| broker.subscribe(&format!("a = {i} or all = 1")).unwrap())
            .collect();
        // Drain shard 1 (arrivals 1, 4, 7, 10) to skew the loads.
        for &i in &[10usize, 7, 4, 1] {
            drop(subs.remove(i));
        }
        assert_eq!(broker.shard_loads(), vec![4, 0, 4]);

        // Bounded step first, then the rest.
        assert_eq!(broker.migrate(1), 1);
        let moved = broker.rebalance();
        assert!(moved >= 1);
        let loads = broker.shard_loads();
        let spread = loads.iter().max().unwrap() - loads.iter().min().unwrap();
        assert!(spread <= 1, "balanced after rebalance: {loads:?}");
        assert_eq!(loads.iter().sum::<usize>(), 8, "no subscription lost");
        assert_eq!(broker.stats().subscriptions_migrated, (1 + moved) as u64);
        assert_eq!(broker.rebalance(), 0, "already balanced");

        // Ids, handles and delivery survived every move.
        assert_eq!(broker.publish(ev(&[("all", 1)])), 8);
        for sub in &subs {
            assert_eq!(sub.drain().len(), 1);
            assert!(broker.unsubscribe(sub.id()));
        }
        assert_eq!(broker.subscription_count(), 0);
    }

    #[test]
    fn migrated_subscriptions_can_still_unsubscribe_by_handle_drop() {
        let broker = Broker::builder().shards(2).build();
        let mut subs: Vec<_> = (0..8)
            .map(|i| broker.subscribe(&format!("a = {i}")).unwrap())
            .collect();
        // Drop three of shard 0's (arrivals 0, 2, 4) to skew.
        for &i in &[4usize, 2, 0] {
            drop(subs.remove(i));
        }
        assert_eq!(broker.shard_loads(), vec![1, 4]);
        assert!(broker.rebalance() >= 1);
        // Handle drop must route through the directory to wherever the
        // subscription lives now.
        drop(subs);
        assert_eq!(broker.subscription_count(), 0);
        assert_eq!(broker.shard_loads(), vec![0, 0]);
    }

    #[test]
    fn memory_usage_charges_routing_on_every_shape() {
        // Every broker charges its directory slots, translation maps
        // and synopses — a single-shard one too, which `resize` can
        // turn into a migrating one. None of it grows with the
        // expression: the engine holds the only copy of a tree, and a
        // migration asks the engine for it.
        for shards in [1, 2] {
            let small = Broker::builder().shards(shards).build();
            let large = Broker::builder().shards(shards).build();
            let _subs: Vec<_> = (0..50)
                .flat_map(|i| {
                    [
                        small.subscribe(&format!("a = {i} or b = {i}")).unwrap(),
                        large
                            .subscribe(&format!(
                                "a = {i} or b = {i} or (c > {i} and not (d = {i} or e = {i}))"
                            ))
                            .unwrap(),
                    ]
                })
                .collect();
            let (small, large) = (small.memory_usage(), large.memory_usage());
            // At least a 16-byte directory slot and an 8-byte
            // translation entry per subscription.
            assert!(small.unsub_support >= 50 * 24, "S={shards}");
            assert_eq!(large.unsub_support, small.unsub_support, "S={shards}");
            assert!(large.total() > small.total(), "the engines hold more");
        }
        // An empty broker charges (almost) nothing by comparison.
        assert!(Broker::builder().build().memory_usage().unsub_support < 50 * 24);
    }

    #[test]
    fn single_shard_broker_has_nothing_to_migrate() {
        let broker = Broker::builder().build();
        let _sub = broker.subscribe("a = 1").unwrap();
        assert_eq!(broker.rebalance(), 0);
        assert_eq!(broker.rebalance_by_match_frequency(8), 0);
        assert_eq!(broker.shard_loads(), vec![1]);
        assert_eq!(broker.stats().subscriptions_migrated, 0);
    }

    /// Heap bytes of the calling thread's publish buffers: `scratch`,
    /// `batch`, `matched`, the largest of `buckets` (the cap applies to
    /// each bucket on its own) and `targets`.
    fn publish_state_bytes() -> [usize; 5] {
        PUBLISH_STATE.with(|cell| {
            let state = cell.borrow();
            let id = std::mem::size_of::<SubscriptionId>();
            let target = std::mem::size_of::<(SubscriptionId, Arc<NotifyQueue>)>();
            [
                state.scratch.heap_bytes(),
                state.batch.heap_bytes(),
                state.matched.capacity() * id,
                state
                    .buckets
                    .iter()
                    .map(|b| b.capacity() * id)
                    .max()
                    .unwrap_or(0),
                state.targets.capacity() * target,
            ]
        })
    }

    #[test]
    fn scratch_trim_cap_bounds_the_thread_local_publish_state() {
        // One pathological spike event must not pin its peak allocation
        // in the publishing thread's buffers. Steady traffic below the
        // cap keeps its warm capacity (no trim, no re-allocation); what
        // the spike grew past the cap is released after the publish;
        // steady traffic then re-warms and keeps matching correctly.
        let cap = 24 << 10; // between the steady and spike footprints
        let broker = Broker::builder().shards(2).scratch_trim_cap(cap).build();
        // A small steady population and a large spike-only population:
        // the spike subs size the stamp arrays (steady footprint) but
        // only the spike event explodes the candidate/matched buffers.
        let _steady: Vec<_> = (0..8)
            .map(|i| broker.subscribe(&format!("tick = {i}")).unwrap())
            .collect();
        let _spikers: Vec<_> = (0..4_000)
            .map(|_| broker.subscribe("boom = 1").unwrap())
            .collect();
        let steady = Arc::new(ev(&[("tick", 3)]));
        let spike = Arc::new(ev(&[("boom", 1)]));
        let steady_round = || {
            assert_eq!(broker.publish_arc(Arc::clone(&steady)), 1);
            assert_eq!(
                broker.publish_batch(&[Arc::clone(&steady), Arc::clone(&steady)]),
                2
            );
        };

        for _ in 0..50 {
            steady_round();
        }
        let warm = publish_state_bytes();
        assert!(
            warm.iter().all(|&bytes| bytes > 0 && bytes <= cap),
            "test invariant: the steady footprint {warm:?} is warm and fits the cap {cap}"
        );
        for _ in 0..50 {
            steady_round();
        }
        assert_eq!(publish_state_bytes(), warm, "steady traffic never trims");

        // The spike, single width: `matched` and `targets` must grow to
        // 4 000 entries (32 000 and 64 000 bytes) to deliver it.
        assert_eq!(broker.publish_arc(Arc::clone(&spike)), 4_000);
        let [scratch, _, matched, _, targets] = publish_state_bytes();
        assert!(
            scratch < warm[0] && matched == 0 && targets == 0,
            "spike capacity was kept: scratch {scratch}, matched {matched}, targets {targets}"
        );
        // Batch width: the spike's bucket grows the same way.
        assert_eq!(
            broker.publish_batch(&[Arc::clone(&spike), Arc::clone(&steady)]),
            4_001
        );
        let [_, batch, _, bucket, _] = publish_state_bytes();
        assert!(
            batch < warm[1] && bucket <= cap,
            "spike capacity was kept: batch {batch}, largest bucket {bucket}"
        );

        // Steady traffic re-warms lazily to the steady footprint, not
        // the spike's, and the spike still delivers exactly.
        for _ in 0..50 {
            steady_round();
        }
        let rewarmed = publish_state_bytes();
        assert!(
            rewarmed.iter().all(|&bytes| bytes > 0 && bytes <= cap),
            "re-warmed to {rewarmed:?}"
        );
        assert_eq!(broker.publish_arc(spike), 4_000);
        steady_round();
    }

    #[test]
    fn trim_publish_scratch_keeps_publishing_correct() {
        let broker = Broker::builder().build();
        let sub = broker.subscribe("a = 1").unwrap();
        assert_eq!(broker.publish(ev(&[("a", 1)])), 1);
        // Trimming between publishes releases the thread's buffers; the
        // next publish re-grows them and still matches correctly.
        trim_publish_scratch();
        assert_eq!(broker.publish(ev(&[("a", 1)])), 1);
        assert_eq!(sub.drain().len(), 2);
    }

    #[test]
    fn resize_grows_live_and_rebalance_spreads() {
        let broker = Broker::builder().shards(2).build();
        let subs: Vec<_> = (0..8)
            .map(|i| broker.subscribe(&format!("a = {i} or all = 1")).unwrap())
            .collect();
        assert_eq!(broker.resize(4), 0, "growing migrates nothing");
        assert_eq!(broker.shard_count(), 4);
        assert_eq!(broker.shard_loads(), vec![4, 4, 0, 0]);
        // Delivery is unchanged through the grow.
        assert_eq!(broker.publish(ev(&[("all", 1)])), 8);
        // New subscriptions fill the new shards first; rebalance then
        // evens everything out.
        let extra = broker.subscribe("a = 100").unwrap();
        assert_eq!(
            broker
                .inner
                .directory
                .read()
                .placement_of(extra.id())
                .unwrap()
                .0,
            2
        );
        broker.rebalance();
        let loads = broker.shard_loads();
        assert!(loads.iter().max().unwrap() - loads.iter().min().unwrap() <= 1);
        assert_eq!(broker.publish(ev(&[("all", 1)])), 8);
        for sub in &subs {
            assert_eq!(sub.drain().len(), 2);
        }
    }

    #[test]
    fn resize_shrinks_live_and_keeps_every_subscription() {
        let broker = Broker::builder().shards(4).build();
        let subs: Vec<_> = (0..12)
            .map(|i| broker.subscribe(&format!("a = {i} or all = 1")).unwrap())
            .collect();
        let moved = broker.resize(2);
        assert!(moved >= 1, "shrinking drains the dying shards");
        assert_eq!(broker.shard_count(), 2);
        assert_eq!(broker.shard_loads().len(), 2);
        assert_eq!(broker.shard_loads().iter().sum::<usize>(), 12);
        assert_eq!(broker.stats().subscriptions_migrated, moved as u64);
        assert_eq!(broker.publish(ev(&[("all", 1)])), 12);
        // All the way down to a flat broker.
        broker.resize(1);
        assert_eq!(broker.shard_count(), 1);
        assert_eq!(broker.publish(ev(&[("all", 1)])), 12);
        for sub in &subs {
            assert_eq!(sub.drain().len(), 2);
            assert!(broker.unsubscribe(sub.id()));
        }
        assert_eq!(broker.subscription_count(), 0);
        assert_eq!(broker.resize(1), 0, "no-op resize");
    }

    #[test]
    #[should_panic(expected = "a surviving shard refused a drained subscription")]
    fn shrink_panics_when_a_survivor_refuses_a_drained_subscription() {
        // Heterogeneous shards: the surviving counting shard cannot
        // accept the huge non-canonical expression living on the dying
        // shard. The drain must panic, not spin forever on the
        // refusal.
        let broker = Broker::builder()
            .engine_instances(vec![
                EngineKind::Counting.build(),
                EngineKind::NonCanonical.build(),
            ])
            .build();
        let _anchor = broker.subscribe("x = 1").unwrap(); // shard 0
        let huge: String = (0..17)
            .map(|i| format!("(a{i} = 1 or b{i} = 1)"))
            .collect::<Vec<_>>()
            .join(" and ");
        let _wide = broker.subscribe(&huge).unwrap(); // shard 1 accepts it
        broker.resize(1);
    }

    #[test]
    fn resize_then_unsubscribe_routes_correctly() {
        // Ids survive a shrink that migrated their subscriptions, and
        // handle drops still land on the right shard afterwards.
        let broker = Broker::builder().shards(3).build();
        let subs: Vec<_> = (0..9)
            .map(|i| broker.subscribe(&format!("a = {i}")).unwrap())
            .collect();
        broker.resize(1);
        broker.resize(4);
        drop(subs);
        assert_eq!(broker.subscription_count(), 0);
        assert_eq!(broker.shard_loads(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn recycled_ids_bound_the_table_and_stay_aba_safe() {
        let broker = Broker::builder().shards(2).build();
        let keeper = broker.subscribe("a = 1").unwrap();
        // Churn one slot: subscribe/unsubscribe repeatedly.
        for i in 0..20 {
            let sub = broker.subscribe(&format!("b = {i}")).unwrap();
            drop(sub);
        }
        // The table stayed bounded: only two slots were ever needed.
        assert_eq!(broker.inner.directory.read().id_bound(), 2);
        // The survivor still matches and can still be removed by its
        // (generation-tagged) id.
        assert_eq!(broker.publish(ev(&[("a", 1)])), 1);
        assert_eq!(keeper.drain().len(), 1);
        drop(keeper);
        assert_eq!(broker.subscription_count(), 0);
    }

    #[test]
    fn shard_match_hits_follow_delivered_matches() {
        let broker = Broker::builder().shards(2).build();
        let _a = broker.subscribe("a = 1").unwrap(); // shard 0
        let _b = broker.subscribe("b = 1").unwrap(); // shard 1
        assert_eq!(broker.shard_match_hits(), vec![0, 0]);
        broker.publish(ev(&[("a", 1)]));
        broker.publish(ev(&[("a", 1)]));
        broker.publish(ev(&[("b", 1)]));
        assert_eq!(broker.shard_match_hits(), vec![2, 1]);
        // The batch path feeds the same counters.
        broker.publish_batch_events(&[ev(&[("a", 1)]), ev(&[("b", 1)])]);
        assert_eq!(broker.shard_match_hits(), vec![3, 2]);
    }

    #[test]
    fn content_aware_pruning_skips_shards_on_every_pipeline() {
        // Single publish and batch: a clustered partitionable workload
        // keeps each group on one shard, so a one-group event prunes
        // the other three.
        let broker = Broker::builder()
            .shards(4)
            .placement(PlacementPolicy::ClusterByAttribute)
            .build();
        let _subs: Vec<_> = (0..16)
            .map(|i| broker.subscribe(&format!("g{} = 1", i % 4)).unwrap())
            .collect();
        assert_eq!(broker.publish(ev(&[("g0", 1)])), 4);
        let after_publish: u64 = broker.shard_prune_counts().iter().sum();
        assert_eq!(
            after_publish, 3,
            "a one-group event candidates exactly one shard"
        );
        assert_eq!(
            broker.publish_batch_events(&[ev(&[("g1", 1)]), ev(&[("g2", 1)])]),
            8
        );
        let after_batch: u64 = broker.shard_prune_counts().iter().sum();
        assert_eq!(after_batch, 3 + 2 * 3, "three prunes per batched event");
    }

    #[test]
    fn synopsis_survives_migration_resize_and_churn() {
        // Drive every synopsis maintenance path — subscribe,
        // unsubscribe, count- and frequency-based migration, grow,
        // shrink — then verify no subscription was over-pruned: each
        // survivor still receives an event tailored to it, with
        // pruning active.
        let broker = Broker::builder()
            .shards(3)
            .placement(PlacementPolicy::ClusterByAttribute)
            .build();
        let mut subs: Vec<(usize, Subscription)> = (0..24)
            .map(|i| {
                let sub = broker
                    .subscribe(&format!("topic = {} and n >= {}", i % 6, i / 6))
                    .unwrap();
                (i, sub)
            })
            .collect();
        for &i in &[21usize, 13, 8, 2] {
            let pos = subs.iter().position(|(n, _)| *n == i).unwrap();
            drop(subs.remove(pos).1);
        }
        broker.rebalance();
        broker.resize(5);
        broker.resize(2);
        broker.rebalance_by_match_frequency(usize::MAX);
        broker.resize(3);
        broker.rebalance();

        for (i, sub) in &subs {
            let event = ev(&[("topic", (i % 6) as i64), ("n", (i / 6) as i64)]);
            assert!(
                broker.publish(event) >= 1,
                "survivor {i} lost to over-pruning"
            );
            assert!(!sub.drain().is_empty(), "survivor {i} missed its delivery");
        }
    }

    #[test]
    fn match_frequency_rebalance_moves_load_off_the_hot_shard() {
        let broker = Broker::builder().shards(2).build();
        // Shard 0 gets the hot subscriptions (arrivals 0, 2, 4, ...),
        // shard 1 the cold ones — every publish of the hot event then
        // hits only shard 0.
        let _subs: Vec<_> = (0..8)
            .map(|i| {
                broker
                    .subscribe(if i % 2 == 0 { "hot = 1" } else { "cold = 1" })
                    .unwrap()
            })
            .collect();
        assert_eq!(broker.shard_loads(), vec![4, 4]);
        // First tick only arms the baseline.
        assert_eq!(broker.rebalance_by_match_frequency(8), 0);
        for _ in 0..50 {
            broker.publish(ev(&[("hot", 1)]));
        }
        let hits = broker.shard_match_hits();
        assert!(hits[0] >= 200 && hits[1] == 0, "skewed: {hits:?}");
        // The tick sees the skew and moves subscriptions from the hot
        // shard to the cool one — deliberately unbalancing counts.
        let moved = broker.rebalance_by_match_frequency(2);
        assert_eq!(moved, 2);
        assert_eq!(broker.shard_loads(), vec![2, 6]);
        // Delivery is untouched throughout.
        assert_eq!(broker.publish(ev(&[("hot", 1)])), 4);
        // A quiet interval moves nothing.
        assert_eq!(broker.rebalance_by_match_frequency(2), 0);
    }

    #[test]
    fn background_rebalance_thread_balances_and_shuts_down() {
        let broker = Broker::builder()
            .shards(3)
            .background_rebalance(Duration::from_millis(1), RebalancePolicy::SubscriptionCount)
            .build();
        assert!(broker.background_rebalance_active());
        let mut subs: Vec<_> = (0..12)
            .map(|i| broker.subscribe(&format!("a = {i}")).unwrap())
            .collect();
        // Skew the loads by draining shard 1 (arrivals 1, 4, 7, 10).
        for &i in &[10usize, 7, 4, 1] {
            drop(subs.remove(i));
        }
        // The background thread must even this out on its own.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let loads = broker.shard_loads();
            let spread = loads.iter().max().unwrap() - loads.iter().min().unwrap();
            if spread <= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "background rebalance never balanced: {loads:?}"
            );
            std::thread::yield_now();
        }
        assert!(broker.stats().subscriptions_migrated >= 1);
        // Dropping the last handle joins the thread (deadlock here
        // would hang the test).
        drop(subs);
        drop(broker);
    }

    #[test]
    fn directory_write_hook_blocks_subscribes_but_not_publishes() {
        let broker = Broker::builder().shards(2).build();
        let _sub = broker.subscribe("a = 1").unwrap();
        let delivered = broker.with_directory_write_held(|| {
            // A publish completes while the directory is write-held;
            // the full latch-gated proof lives in tests/hot_path.rs.
            broker.publish(ev(&[("a", 1)]))
        });
        assert_eq!(delivered, 1);
    }
}
