//! The asynchronous delivery tier: per-subscriber notification queues,
//! overflow policies and slow-consumer quarantine.
//!
//! Every subscriber owns one bounded (or unbounded) [`NotifyQueue`]: a
//! ring buffer of `Arc<Event>` plus lag counters, guarded by a classed
//! leaf mutex (`delivery-queue[g]`, see
//! `boolmatch_core::lock_classes::delivery_queue`). A publish
//! **enqueues and returns** — what happens to a full queue is the
//! subscriber's [`DeliveryPolicy`], not the publisher's problem — and
//! the queue is drained either by the subscriber pulling on its
//! [`DeliveryReceiver`] (reached through the [`crate::Subscription`]
//! handle) or, for consumer-callback subscriptions, by the broker's
//! delivery worker pool.
//!
//! The quarantine state machine (driven by
//! [`crate::Broker::delivery_maintenance_tick`]) demotes a subscriber
//! whose lag stays above the configured watermark: its queue is capped
//! at [`QuarantineConfig::quarantine_capacity`] (degrading to
//! drop-newest regardless of policy) until the lag drains, or — with
//! [`QuarantineConfig::auto_disconnect`] — the subscriber is dropped
//! outright.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use boolmatch_core::{lock_classes, SubscriptionId};
use boolmatch_types::Event;
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::broker::BrokerInner;

/// What a full queue does with the next notification — per subscriber,
/// chosen at [`crate::Broker::subscribe_with_policy`] time or
/// defaulted from [`crate::BrokerBuilder::delivery`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DeliveryPolicy {
    /// Unbounded queue: the broker never blocks and never drops; a
    /// subscriber that stops draining grows the queue (pair with
    /// [`crate::BrokerBuilder::quarantine`] to bound the damage).
    #[default]
    Unbounded,
    /// Bounded queue; when full, **new** notifications are dropped and
    /// counted in [`crate::BrokerStats::notifications_dropped`]. This
    /// is the classic real-time notification trade-off (Elvin's
    /// "quenching" drops at the source instead): the subscriber keeps
    /// the oldest backlog.
    DropNewest {
        /// Queue capacity per subscriber.
        capacity: usize,
    },
    /// Bounded queue; when full, the **oldest** queued notification is
    /// evicted (counted dropped) to make room — the subscriber always
    /// holds the freshest `capacity` events, the right policy for
    /// last-value-wins feeds like tickers.
    DropOldest {
        /// Queue capacity per subscriber.
        capacity: usize,
    },
    /// Bounded queue; overflow **disconnects** the subscriber: its
    /// queue closes (already-queued events stay drainable), the
    /// overflowing notification counts in
    /// [`crate::BrokerStats::notifications_disconnected`], and the
    /// broker unsubscribes it — the strictest contract: fall behind
    /// and you are gone.
    Disconnect {
        /// Queue capacity per subscriber.
        capacity: usize,
    },
    /// Bounded queue with **bounded backpressure**: a publish into a
    /// full queue waits up to `timeout` for the subscriber to drain,
    /// then drops the notification. The wait holds no broker lock —
    /// only this subscriber's queue lock — so it delays the publishing
    /// thread, never unsubscribe or other subscribers' deliveries.
    Block {
        /// Queue capacity per subscriber.
        capacity: usize,
        /// Longest a publish will wait for space on this queue.
        timeout: Duration,
    },
}

/// Slow-consumer quarantine thresholds; enable with
/// [`crate::BrokerBuilder::quarantine`] and drive with
/// [`crate::Broker::delivery_maintenance_tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineConfig {
    /// Queue depth above which a tick counts a strike against the
    /// subscriber (and below half of which a quarantined subscriber
    /// earns a recovery strike).
    pub lag_watermark: usize,
    /// Consecutive lagging ticks before demotion — and consecutive
    /// recovered ticks before release.
    pub strikes: u32,
    /// The capped queue depth while quarantined: the queue degrades to
    /// drop-newest at this capacity regardless of its policy, and the
    /// backlog beyond it is shed (oldest first) at demotion.
    pub quarantine_capacity: usize,
    /// Disconnect the subscriber at demotion instead of capping it.
    pub auto_disconnect: bool,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        QuarantineConfig {
            lag_watermark: 1_024,
            strikes: 3,
            quarantine_capacity: 64,
            auto_disconnect: false,
        }
    }
}

/// A consumer-callback subscription's event sink; see
/// [`crate::Broker::subscribe_consumer`].
pub(crate) type Consumer = Arc<dyn Fn(Arc<Event>) + Send + Sync>;

/// One subscriber's lag snapshot; see
/// [`crate::Broker::subscriber_lag`] and [`DeliveryReceiver::lag`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubscriberLag {
    /// Notifications currently queued (enqueued minus drained).
    pub queued: usize,
    /// Notifications ever placed on this queue.
    pub enqueued: u64,
    /// Notifications this queue shed: policy drops, block timeouts,
    /// drop-oldest evictions and quarantine backlog sheds.
    pub dropped: u64,
    /// Whether the subscriber is currently quarantined.
    pub quarantined: bool,
}

/// Where an enqueue attempt ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Enqueue {
    /// Placed on the queue.
    Delivered,
    /// Shed by policy (full bounded queue, block timeout, or the
    /// quarantine cap).
    Dropped,
    /// The queue was closed — subscriber gone or a
    /// [`DeliveryPolicy::Disconnect`] overflow just closed it. The
    /// caller should prune the subscription.
    Disconnected,
}

/// What one quarantine maintenance tick decided for a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TickOutcome {
    /// No state change.
    Steady,
    /// Lag exceeded the watermark for the configured strikes: the
    /// queue is now capped and marked quarantined.
    Demoted,
    /// A quarantined queue drained below the recovery floor for the
    /// configured strikes: cap lifted.
    Recovered,
    /// Demotion under [`QuarantineConfig::auto_disconnect`]: the queue
    /// closed; the caller unsubscribes the id.
    Disconnect,
}

/// The mutable half of a queue, inside the classed leaf mutex.
#[derive(Default)]
struct QueueState {
    buf: VecDeque<Arc<Event>>,
    /// No further enqueues; queued events stay drainable. Set by
    /// unsubscribe, last-receiver drop, `Disconnect` overflow, consumer
    /// panic, auto-disconnect quarantine and broker drop.
    closed: bool,
    /// Live [`DeliveryReceiver`]s (the one inside each
    /// [`crate::Subscription`], detached ones and their clones); the
    /// queue closes when the last one drops, mirroring channel
    /// semantics.
    receivers: usize,
    /// `Some(cap)` while quarantined: the queue's bound is `cap`, and
    /// overflow is drop-newest regardless of policy.
    cap_override: Option<usize>,
    /// Consecutive lagging (or, while quarantined, recovered)
    /// maintenance ticks.
    strikes: u32,
    /// The queue is on the broker's ready list or in a drainer; only
    /// the enqueue that makes the `false → true` transition puts it on
    /// the list, and the drainer clears it (under this lock) only after
    /// seeing the buffer empty — the classic wakeup protocol, race-free
    /// because both sides hold the queue lock.
    scheduled: bool,
    /// Receivers parked in the receive wait (skip the condvar notify
    /// when zero — the steady-state enqueue's fast path).
    waiting_recv: usize,
    /// Publishers parked in a [`DeliveryPolicy::Block`] wait.
    waiting_send: usize,
}

/// One subscriber's notification queue; shared by the broker's sender
/// map, the subscriber's [`DeliveryReceiver`]s and, while scheduled,
/// the ready list or the drainer holding it, via `Arc`.
pub(crate) struct NotifyQueue {
    id: SubscriptionId,
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    policy: DeliveryPolicy,
    /// The policy's capacity (`usize::MAX` for
    /// [`DeliveryPolicy::Unbounded`]): the queue's bound while it is
    /// not quarantined.
    capacity: usize,
    /// Consumer-callback subscriptions only; pull subscriptions leave
    /// it `None` and the drain-scheduling branch compiles to a load.
    consumer: Option<Consumer>,
    /// Lifetime notifications placed on the queue (lock-free for lag
    /// snapshots).
    enqueued: AtomicU64,
    /// Lifetime notifications this queue shed (see
    /// [`SubscriberLag::dropped`]).
    dropped: AtomicU64,
}

impl NotifyQueue {
    /// Creates the queue for subscription `id`, classed into its id
    /// slot's delivery-queue lockdep group. It has no receiver until a
    /// [`DeliveryReceiver`] is made on it.
    pub(crate) fn new(
        id: SubscriptionId,
        policy: DeliveryPolicy,
        consumer: Option<Consumer>,
    ) -> Self {
        let capacity = match policy {
            DeliveryPolicy::Unbounded => usize::MAX,
            DeliveryPolicy::DropNewest { capacity }
            | DeliveryPolicy::DropOldest { capacity }
            | DeliveryPolicy::Disconnect { capacity }
            | DeliveryPolicy::Block { capacity, .. } => capacity,
        };
        let queue = NotifyQueue {
            id,
            state: Mutex::new(QueueState::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            policy,
            capacity,
            consumer,
            enqueued: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        };
        // Release builds discard the class: skip building its name.
        if parking_lot::lockdep::is_active() {
            queue
                .state
                .set_class(&lock_classes::delivery_queue(id.slot()));
        }
        queue
    }

    /// The subscription this queue delivers to.
    pub(crate) fn id(&self) -> SubscriptionId {
        self.id
    }

    pub(crate) fn consumer(&self) -> Option<&Consumer> {
        self.consumer.as_ref()
    }

    /// Whether an enqueue may park the publisher: a
    /// [`DeliveryPolicy::Block`] queue (the policy never changes, so no
    /// lock is needed to ask).
    pub(crate) fn may_park(&self) -> bool {
        matches!(self.policy, DeliveryPolicy::Block { .. })
    }

    // lint: hot-path — the enqueue path runs on every publish for
    // every matched subscriber: one classed leaf lock (this queue's),
    // no broker-global lock, no unwrap. A `Block` policy may park on
    // the queue's own condvar, still holding nothing else.

    /// Attempts to place `event` on the queue. Below the bound — the
    /// quarantine cap while quarantined, else the policy's capacity —
    /// every policy appends; a full queue asks [`NotifyQueue::overflow`].
    /// Returns the outcome plus whether the caller must put the queue
    /// on the broker's ready list (consumer queues only, on the
    /// unscheduled→scheduled transition).
    pub(crate) fn enqueue(&self, event: Arc<Event>) -> (Enqueue, bool) {
        let mut state = self.state.lock();
        if state.closed {
            return (Enqueue::Disconnected, false);
        }
        let bound = state.cap_override.unwrap_or(self.capacity);
        let outcome = if state.buf.len() < bound {
            Enqueue::Delivered
        } else {
            self.overflow(&mut state, bound)
        };
        let mut schedule = false;
        match outcome {
            Enqueue::Delivered => {
                state.buf.push_back(event);
                self.enqueued.fetch_add(1, Ordering::Relaxed);
                if self.consumer.is_some() && !state.scheduled {
                    state.scheduled = true;
                    schedule = true;
                }
            }
            Enqueue::Dropped => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Enqueue::Disconnected => {}
        }
        let wake_recv = outcome == Enqueue::Delivered && state.waiting_recv > 0;
        drop(state);
        if wake_recv {
            self.not_empty.notify_one();
        }
        (outcome, schedule)
    }

    /// What a full queue (`bound` events queued) does with one more
    /// notification — the one place the enqueue path reads the policy.
    /// `Delivered` means room was made and the caller appends.
    fn overflow(&self, state: &mut MutexGuard<'_, QueueState>, bound: usize) -> Enqueue {
        if state.cap_override.is_some() {
            // Quarantined: drop-newest at the cap, whatever the policy
            // — graceful degradation, not the subscriber's contract.
            return Enqueue::Dropped;
        }
        match self.policy {
            DeliveryPolicy::Unbounded | DeliveryPolicy::DropNewest { .. } => Enqueue::Dropped,
            DeliveryPolicy::DropOldest { .. } => {
                // A zero-capacity queue has nothing to evict.
                if state.buf.pop_front().is_none() {
                    return Enqueue::Dropped;
                }
                self.dropped.fetch_add(1, Ordering::Relaxed);
                Enqueue::Delivered
            }
            DeliveryPolicy::Disconnect { .. } => {
                state.closed = true;
                self.wake_all(state);
                Enqueue::Disconnected
            }
            DeliveryPolicy::Block { timeout, .. } => {
                let deadline = Instant::now() + timeout;
                while state.buf.len() >= bound && !state.closed {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Enqueue::Dropped;
                    }
                    state.waiting_send += 1;
                    let _ = self.not_full.wait_for(state, remaining);
                    state.waiting_send -= 1;
                }
                if state.closed {
                    Enqueue::Disconnected
                } else {
                    Enqueue::Delivered
                }
            }
        }
    }

    /// Moves up to `max` queued events into `out` for a drainer.
    /// Returns `false` — clearing the scheduled bit under the lock —
    /// when the queue is empty, which is the drainer's signal to move
    /// on (an enqueue racing this sees the bit cleared and puts the
    /// queue on the ready list again).
    pub(crate) fn pop_batch(&self, out: &mut Vec<Arc<Event>>, max: usize) -> bool {
        let mut state = self.state.lock();
        if state.buf.is_empty() {
            state.scheduled = false;
            return false;
        }
        self.release_many(state, out, max);
        true
    }

    // lint: end-hot-path

    /// Frees one slot: pops the front event, releases the lock and
    /// wakes one parked [`DeliveryPolicy::Block`] publisher, if any.
    fn release_one(&self, mut state: MutexGuard<'_, QueueState>) -> Option<Arc<Event>> {
        let event = state.buf.pop_front();
        let wake_send = event.is_some() && state.waiting_send > 0;
        drop(state);
        if wake_send {
            self.not_full.notify_one();
        }
        event
    }

    /// Frees up to `max` slots into `out`, releases the lock and wakes
    /// every parked [`DeliveryPolicy::Block`] publisher, if any.
    fn release_many(
        &self,
        mut state: MutexGuard<'_, QueueState>,
        out: &mut Vec<Arc<Event>>,
        max: usize,
    ) {
        let take = max.min(state.buf.len());
        out.extend(state.buf.drain(..take));
        let wake_send = take > 0 && state.waiting_send > 0;
        drop(state);
        if wake_send {
            self.not_full.notify_all();
        }
    }

    /// The lag snapshot surfaced through [`crate::Broker`] stats.
    pub(crate) fn lag(&self) -> SubscriberLag {
        let state = self.state.lock();
        SubscriberLag {
            queued: state.buf.len(),
            enqueued: self.enqueued.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            quarantined: state.cap_override.is_some(),
        }
    }

    /// Closes the queue: no further enqueues; parked receivers and
    /// blocked publishers wake immediately. Queued events stay
    /// drainable unless `discard` (consumer panic teardown) frees them.
    pub(crate) fn close(&self, discard: bool) {
        let mut state = self.state.lock();
        state.closed = true;
        if discard {
            state.buf = VecDeque::new();
        }
        self.wake_all(&state);
    }

    /// One quarantine maintenance tick; see [`TickOutcome`].
    pub(crate) fn maintenance_tick(&self, config: &QuarantineConfig) -> TickOutcome {
        let mut state = self.state.lock();
        if state.closed {
            return TickOutcome::Steady;
        }
        if state.cap_override.is_none() {
            if state.buf.len() > config.lag_watermark {
                state.strikes += 1;
            } else {
                state.strikes = 0;
            }
            if state.strikes < config.strikes.max(1) {
                return TickOutcome::Steady;
            }
            state.strikes = 0;
            if config.auto_disconnect {
                state.closed = true;
                self.wake_all(&state);
                return TickOutcome::Disconnect;
            }
            state.cap_override = Some(config.quarantine_capacity);
            // Shed the backlog beyond the cap, oldest first: the
            // freshest events are the ones a recovering consumer
            // still wants.
            while state.buf.len() > config.quarantine_capacity {
                state.buf.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            TickOutcome::Demoted
        } else {
            if state.buf.len() <= config.lag_watermark / 2 {
                state.strikes += 1;
            } else {
                state.strikes = 0;
            }
            if state.strikes < config.strikes.max(1) {
                return TickOutcome::Steady;
            }
            state.strikes = 0;
            state.cap_override = None;
            TickOutcome::Recovered
        }
    }

    /// Wakes everyone parked on the queue (close paths).
    fn wake_all(&self, state: &QueueState) {
        if state.waiting_recv > 0 {
            self.not_empty.notify_all();
        }
        if state.waiting_send > 0 {
            self.not_full.notify_all();
        }
    }
}

impl std::fmt::Debug for NotifyQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let lag = self.lag();
        f.debug_struct("NotifyQueue")
            .field("id", &self.id)
            .field("policy", &self.policy)
            .field("queued", &lag.queued)
            .field("dropped", &lag.dropped)
            .field("quarantined", &lag.quarantined)
            .finish()
    }
}

/// The pull side of a subscription's queue: every receive operation
/// lives here. A [`crate::Subscription`] is one of these plus a guard
/// that unsubscribes on drop; [`crate::Subscription::detach`] returns
/// the bare receiver, whose drop no longer unsubscribes (use
/// [`crate::Broker::unsubscribe`]). Clones share the queue; when the
/// last clone drops, the queue closes, its backlog is discarded, and
/// later deliveries count as disconnected.
#[derive(Debug)]
pub struct DeliveryReceiver {
    queue: Arc<NotifyQueue>,
}

impl DeliveryReceiver {
    pub(crate) fn new(queue: Arc<NotifyQueue>) -> Self {
        queue.state.lock().receivers += 1;
        DeliveryReceiver { queue }
    }

    /// Takes the next queued notification without blocking.
    pub fn try_recv(&self) -> Option<Arc<Event>> {
        self.queue.release_one(self.queue.state.lock())
    }

    /// Blocks until a notification arrives or the queue closes empty
    /// (unsubscribed, disconnected, or the broker is gone).
    pub fn recv(&self) -> Option<Arc<Event>> {
        self.recv_until(None)
    }

    /// Blocks up to `timeout`; `None` on timeout or close.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Arc<Event>> {
        // A deadline past what `Instant` can hold is no deadline.
        self.recv_until(Instant::now().checked_add(timeout))
    }

    /// The one blocking receive: waits until an event arrives, the
    /// queue closes empty, or `deadline` (if any) passes.
    fn recv_until(&self, deadline: Option<Instant>) -> Option<Arc<Event>> {
        let queue = &*self.queue;
        let mut state = queue.state.lock();
        loop {
            if !state.buf.is_empty() {
                return queue.release_one(state);
            }
            if state.closed {
                return None;
            }
            let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if remaining.is_some_and(|r| r.is_zero()) {
                return None;
            }
            state.waiting_recv += 1;
            match remaining {
                Some(remaining) => {
                    let _ = queue.not_empty.wait_for(&mut state, remaining);
                }
                None => queue.not_empty.wait(&mut state),
            }
            state.waiting_recv -= 1;
        }
    }

    /// Drains everything currently queued.
    pub fn drain(&self) -> Vec<Arc<Event>> {
        let mut drained = Vec::new();
        self.queue
            .release_many(self.queue.state.lock(), &mut drained, usize::MAX);
        drained
    }

    /// Notifications currently queued.
    pub fn len(&self) -> usize {
        self.queue.state.lock().buf.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This subscriber's lag snapshot: queue depth, lifetime
    /// enqueued/dropped counts, and quarantine status.
    pub fn lag(&self) -> SubscriberLag {
        self.queue.lag()
    }

    /// Receivers and publishers currently parked on the queue:
    /// `(waiting_recv, waiting_send)`. Lets a test wait for the parked
    /// path instead of sleeping toward it.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> (usize, usize) {
        let state = self.queue.state.lock();
        (state.waiting_recv, state.waiting_send)
    }
}

impl Clone for DeliveryReceiver {
    fn clone(&self) -> Self {
        DeliveryReceiver::new(Arc::clone(&self.queue))
    }
}

impl Drop for DeliveryReceiver {
    /// The last receiver out closes the queue and discards the backlog
    /// (nobody is left to drain it).
    fn drop(&mut self) {
        let mut state = self.queue.state.lock();
        state.receivers -= 1;
        if state.receivers == 0 && !state.closed {
            state.closed = true;
            state.buf = VecDeque::new();
            self.queue.wake_all(&state);
        }
    }
}

/// Events a drainer moves per queue-lock acquisition: large enough to
/// amortise the lock, small enough that a deep backlog releases it (and
/// wakes `Block`-policy publishers) regularly.
const DELIVERY_DRAIN_BATCH: usize = 32;

/// The delivery tier's ready list: consumer queues holding undelivered
/// events that no drainer has popped yet, and the number of drainer
/// jobs queued or running on the delivery pool. A queue is pushed only
/// by the enqueue that set its scheduled bit, so it is on this list or
/// in one drainer at most once — per-subscriber FIFO.
#[derive(Default)]
pub(crate) struct ReadyList {
    pub(crate) queues: VecDeque<Arc<NotifyQueue>>,
    pub(crate) drainers: usize,
}

/// One drainer job: pops one queue at a time off the ready list and
/// drains it, until the list is empty. The ready lock is held only for
/// the pop; the exit decrements `drainers` under the same acquisition
/// that found the list empty, so a publisher appending after it sees
/// the drainer gone and submits a fresh one. Taking one queue per pop
/// is the stall-isolation rule: a wedged callback holds its own queue
/// and this worker, and every other queue stays poppable.
pub(crate) fn run_drainer(ready: &Mutex<ReadyList>, weak: &Weak<BrokerInner>) {
    let _unwind = DrainerUnwind(ready);
    let mut batch: Vec<Arc<Event>> = Vec::with_capacity(DELIVERY_DRAIN_BATCH);
    loop {
        let queue = {
            let mut list = ready.lock();
            match list.queues.pop_front() {
                Some(queue) => queue,
                None => {
                    list.drainers -= 1;
                    return;
                }
            }
        };
        drain_queue(weak, &queue, &mut batch);
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
fn drain_queue(weak: &Weak<BrokerInner>, queue: &NotifyQueue, batch: &mut Vec<Arc<Event>>) {
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
                    inner.consumer_panicked(queue.id());
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;

    use super::*;

    fn event() -> Arc<Event> {
        Arc::new(Event::builder().attr("a", 1_i64).build())
    }

    fn valued(v: i64) -> Arc<Event> {
        Arc::new(Event::builder().attr("v", v).build())
    }

    fn values(events: &[Arc<Event>]) -> Vec<i64> {
        events
            .iter()
            .map(|e| e.get("v").and_then(boolmatch_types::Value::as_int).unwrap())
            .collect()
    }

    /// `(queued, enqueued, dropped)` from the lag snapshot.
    fn counts(rx: &DeliveryReceiver) -> (usize, u64, u64) {
        let lag = rx.lag();
        (lag.queued, lag.enqueued, lag.dropped)
    }

    /// A pull queue and its one receiver.
    fn queue(policy: DeliveryPolicy) -> (Arc<NotifyQueue>, DeliveryReceiver) {
        let q = Arc::new(NotifyQueue::new(
            SubscriptionId::from_index(0),
            policy,
            None,
        ));
        let rx = DeliveryReceiver::new(Arc::clone(&q));
        (q, rx)
    }

    /// Enqueues `event`; a publisher that parks is released by a
    /// receive on another thread, which only runs once the publisher
    /// is parked. Returns the outcome and whether the publisher parked.
    fn enqueue_or_rescue(
        q: &NotifyQueue,
        rx: &DeliveryReceiver,
        event: Arc<Event>,
    ) -> (Enqueue, bool) {
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let rescuer = s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    if rx.parked() == (0, 1) {
                        rx.try_recv();
                        return true;
                    }
                    std::thread::yield_now();
                }
                false
            });
            let outcome = q.enqueue(event).0;
            done.store(true, Ordering::Release);
            (outcome, rescuer.join().unwrap())
        })
    }

    #[test]
    fn unbounded_never_drops() {
        let (q, rx) = queue(DeliveryPolicy::Unbounded);
        for _ in 0..1000 {
            assert_eq!(q.enqueue(event()).0, Enqueue::Delivered);
        }
        assert_eq!(rx.len(), 1000);
        assert_eq!(rx.lag().dropped, 0);
    }

    /// The bound rule over every policy: below the bound every policy
    /// appends; at the policy's capacity each overflows its own way;
    /// at the quarantine cap every policy drops the newest, without
    /// parking, and stays open.
    #[test]
    fn quarantine_outranks_every_policy() {
        use DeliveryPolicy::*;
        use Enqueue::{Delivered, Disconnected, Dropped};
        // A `Block` publisher that is not rescued waits out the hour.
        let hour = Duration::from_secs(3_600);
        // (policy, at capacity 2: the third enqueue's outcome and
        // whether it parked; after one receive, a fourth enqueue's
        // outcome; then (queued, enqueued, dropped) and the values
        // left queued).
        let table = [
            (
                Unbounded,
                Delivered,
                false,
                Delivered,
                (3, 4, 0),
                vec![1, 2, 3],
            ),
            (
                DropNewest { capacity: 2 },
                Dropped,
                false,
                Delivered,
                (2, 3, 1),
                vec![1, 3],
            ),
            (
                DropOldest { capacity: 2 },
                Delivered,
                false,
                Delivered,
                (2, 4, 1),
                vec![2, 3],
            ),
            (
                Disconnect { capacity: 2 },
                Disconnected,
                false,
                Disconnected,
                (1, 2, 0),
                vec![1],
            ),
            (
                Block {
                    capacity: 2,
                    timeout: hour,
                },
                Delivered,
                true,
                Delivered,
                (2, 4, 0),
                vec![2, 3],
            ),
        ];
        let config = QuarantineConfig {
            lag_watermark: 1,
            strikes: 1,
            quarantine_capacity: 2,
            auto_disconnect: false,
        };
        for (policy, at_bound, parks, after_receive, lag, kept) in table {
            let (q, rx) = queue(policy);
            let send = |v| enqueue_or_rescue(&q, &rx, valued(v));
            let below = (Delivered, false);
            assert_eq!([send(0), send(1)], [below, below], "{policy:?}");
            assert_eq!(send(2), (at_bound, parks), "{policy:?}");
            rx.try_recv().unwrap();
            assert_eq!(send(3), (after_receive, false), "{policy:?}");
            assert_eq!(counts(&rx), lag, "{policy:?}");
            assert_eq!(values(&rx.drain()), kept, "{policy:?}");

            // Quarantined at a cap equal to the policy's capacity.
            let (q, rx) = queue(policy);
            let send = |v| enqueue_or_rescue(&q, &rx, valued(v));
            assert_eq!([send(0), send(1)], [below, below], "{policy:?}");
            let demoted = q.maintenance_tick(&config);
            assert_eq!(demoted, TickOutcome::Demoted, "{policy:?}");
            assert_eq!(send(2), (Dropped, false), "{policy:?}");
            // Still open, oldest kept: a receive makes room again.
            assert_eq!(values(&[rx.try_recv().unwrap()]), [0], "{policy:?}");
            assert_eq!(send(3), below, "{policy:?}");
            assert_eq!(counts(&rx), (2, 3, 1), "{policy:?}");
            assert!(rx.lag().quarantined, "{policy:?}");
            assert_eq!(values(&rx.drain()), [1, 3], "{policy:?}");
        }
    }

    #[test]
    fn disconnect_policy_closes_on_overflow() {
        let (q, rx) = queue(DeliveryPolicy::Disconnect { capacity: 1 });
        assert_eq!(q.enqueue(event()).0, Enqueue::Delivered);
        assert_eq!(q.enqueue(event()).0, Enqueue::Disconnected);
        // Closed, but the queued backlog stays drainable.
        assert_eq!(rx.len(), 1);
        assert!(rx.recv().is_some());
        assert!(rx.recv().is_none());
    }

    #[test]
    fn block_policy_times_out_then_drops() {
        let (q, rx) = queue(DeliveryPolicy::Block {
            capacity: 1,
            timeout: Duration::from_millis(20),
        });
        assert_eq!(q.enqueue(event()).0, Enqueue::Delivered);
        let start = Instant::now();
        assert_eq!(q.enqueue(event()).0, Enqueue::Dropped);
        assert!(start.elapsed() >= Duration::from_millis(15));
        assert_eq!(rx.lag().dropped, 1);
    }

    #[test]
    fn block_policy_waits_for_a_drain() {
        let (q, rx) = queue(DeliveryPolicy::Block {
            capacity: 1,
            timeout: Duration::from_secs(5),
        });
        assert_eq!(q.enqueue(event()).0, Enqueue::Delivered);
        // A clone, so the queue outlives the drainer's receiver.
        let drainer_rx = rx.clone();
        let drainer = std::thread::spawn(move || {
            // Free the slot only once the publisher is parked on it.
            while drainer_rx.parked() != (0, 1) {
                std::thread::yield_now();
            }
            drainer_rx.try_recv()
        });
        let start = Instant::now();
        assert_eq!(q.enqueue(event()).0, Enqueue::Delivered);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(drainer.join().unwrap().is_some());
    }

    #[test]
    fn closed_queue_reports_disconnected() {
        let (q, _rx) = queue(DeliveryPolicy::Unbounded);
        q.close(false);
        assert_eq!(q.enqueue(event()).0, Enqueue::Disconnected);
    }

    #[test]
    fn last_receiver_drop_discards_and_closes() {
        let q = Arc::new(NotifyQueue::new(
            SubscriptionId::from_index(0),
            DeliveryPolicy::Unbounded,
            None,
        ));
        q.enqueue(event());
        let first = DeliveryReceiver::new(Arc::clone(&q));
        let clone = first.clone();
        drop(first);
        assert_eq!(
            q.enqueue(event()).0,
            Enqueue::Delivered,
            "clone keeps it open"
        );
        drop(clone);
        assert_eq!(q.enqueue(event()).0, Enqueue::Disconnected);
        assert_eq!(
            q.lag().queued,
            0,
            "backlog discarded with the last receiver"
        );
    }

    #[test]
    fn quarantine_demotes_caps_and_recovers() {
        let config = QuarantineConfig {
            lag_watermark: 4,
            strikes: 2,
            quarantine_capacity: 2,
            auto_disconnect: false,
        };
        let (q, rx) = queue(DeliveryPolicy::Unbounded);
        for _ in 0..10 {
            q.enqueue(event());
        }
        assert_eq!(q.maintenance_tick(&config), TickOutcome::Steady);
        assert_eq!(q.maintenance_tick(&config), TickOutcome::Demoted);
        assert!(rx.lag().quarantined);
        // Backlog shed to the cap; overflow now drops newest.
        assert_eq!(rx.len(), 2);
        assert_eq!(q.enqueue(event()).0, Enqueue::Dropped);
        // Drain below the recovery floor and earn the release.
        rx.drain();
        assert_eq!(q.maintenance_tick(&config), TickOutcome::Steady);
        assert_eq!(q.maintenance_tick(&config), TickOutcome::Recovered);
        assert!(!rx.lag().quarantined);
        assert_eq!(q.enqueue(event()).0, Enqueue::Delivered);
    }

    #[test]
    fn quarantine_auto_disconnect_closes() {
        let config = QuarantineConfig {
            lag_watermark: 1,
            strikes: 1,
            quarantine_capacity: 1,
            auto_disconnect: true,
        };
        let (q, _rx) = queue(DeliveryPolicy::Unbounded);
        for _ in 0..3 {
            q.enqueue(event());
        }
        assert_eq!(q.maintenance_tick(&config), TickOutcome::Disconnect);
        assert_eq!(q.enqueue(event()).0, Enqueue::Disconnected);
    }

    #[test]
    fn healthy_ticks_reset_strikes() {
        let config = QuarantineConfig {
            lag_watermark: 2,
            strikes: 2,
            quarantine_capacity: 1,
            auto_disconnect: false,
        };
        let (q, rx) = queue(DeliveryPolicy::Unbounded);
        for _ in 0..5 {
            q.enqueue(event());
        }
        assert_eq!(q.maintenance_tick(&config), TickOutcome::Steady);
        rx.drain(); // consumer catches up before the second strike
        assert_eq!(q.maintenance_tick(&config), TickOutcome::Steady);
        for _ in 0..5 {
            q.enqueue(event());
        }
        // The strike count restarted: still one more tick to demotion.
        assert_eq!(q.maintenance_tick(&config), TickOutcome::Steady);
        assert_eq!(q.maintenance_tick(&config), TickOutcome::Demoted);
    }
}
