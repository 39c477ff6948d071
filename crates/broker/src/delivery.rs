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
//! [`crate::Subscription`] handle or, for consumer-callback
//! subscriptions, by the broker's delivery worker pool.
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
use parking_lot::{Condvar, Mutex};

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
/// [`crate::Broker::subscriber_lag`] and [`crate::Subscription::lag`].
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
    /// unsubscribe, handle/receiver drop, `Disconnect` overflow,
    /// consumer panic, auto-disconnect quarantine and broker drop.
    closed: bool,
    /// Live pull-side handles ([`crate::Subscription`] +
    /// [`DeliveryReceiver`] clones); the queue closes when the last
    /// one drops, mirroring channel semantics.
    receivers: usize,
    /// `Some(cap)` while quarantined: overflow degrades to
    /// drop-newest at `cap` regardless of policy.
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
    /// Receivers parked in `recv`/`recv_timeout` (skip the condvar
    /// notify when zero — the steady-state enqueue's fast path).
    waiting_recv: usize,
    /// Publishers parked in a [`DeliveryPolicy::Block`] wait.
    waiting_send: usize,
}

/// One subscriber's notification queue; shared by the broker's sender
/// map, the [`crate::Subscription`] handle and, while scheduled, the
/// ready list or the drainer holding it, via `Arc`.
pub(crate) struct NotifyQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    policy: DeliveryPolicy,
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
    /// Creates the queue for the subscription in id slot `id_slot`,
    /// classed into that slot's delivery-queue lockdep group.
    pub(crate) fn new(id_slot: usize, policy: DeliveryPolicy, consumer: Option<Consumer>) -> Self {
        let queue = NotifyQueue {
            state: Mutex::new(QueueState {
                receivers: 1,
                ..QueueState::default()
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            policy,
            consumer,
            enqueued: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        };
        // Release builds discard the class: skip building its name.
        if parking_lot::lockdep::is_active() {
            queue
                .state
                .set_class(&lock_classes::delivery_queue(id_slot));
        }
        queue
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

    /// Receivers and publishers currently parked on the queue:
    /// `(waiting_recv, waiting_send)`. Lets a test wait for the parked
    /// path instead of sleeping toward it.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> (usize, usize) {
        let state = self.state.lock();
        (state.waiting_recv, state.waiting_send)
    }

    // lint: hot-path — the enqueue path runs on every publish for
    // every matched subscriber: one classed leaf lock (this queue's),
    // no broker-global lock, no unwrap. A `Block` policy may park on
    // the queue's own condvar, still holding nothing else.

    /// Attempts to place `event` on the queue under this queue's
    /// policy. Returns the outcome plus whether the caller must put the
    /// queue on the broker's ready list (consumer queues only, on the
    /// unscheduled→scheduled transition).
    pub(crate) fn enqueue(&self, event: Arc<Event>) -> (Enqueue, bool) {
        let mut state = self.state.lock();
        if state.closed {
            return (Enqueue::Disconnected, false);
        }
        let outcome = if let Some(cap) = state.cap_override {
            // Quarantined: drop-newest at the quarantine cap,
            // regardless of policy — graceful degradation, not the
            // subscriber's contract.
            if state.buf.len() >= cap {
                Enqueue::Dropped
            } else {
                state.buf.push_back(event);
                Enqueue::Delivered
            }
        } else {
            match self.policy {
                DeliveryPolicy::Unbounded => {
                    state.buf.push_back(event);
                    Enqueue::Delivered
                }
                DeliveryPolicy::DropNewest { capacity } => {
                    if state.buf.len() >= capacity {
                        Enqueue::Dropped
                    } else {
                        state.buf.push_back(event);
                        Enqueue::Delivered
                    }
                }
                DeliveryPolicy::DropOldest { capacity } => {
                    if capacity == 0 {
                        Enqueue::Dropped
                    } else {
                        if state.buf.len() >= capacity {
                            state.buf.pop_front();
                            self.dropped.fetch_add(1, Ordering::Relaxed);
                        }
                        state.buf.push_back(event);
                        Enqueue::Delivered
                    }
                }
                DeliveryPolicy::Disconnect { capacity } => {
                    if state.buf.len() >= capacity {
                        state.closed = true;
                        self.wake_all(&state);
                        Enqueue::Disconnected
                    } else {
                        state.buf.push_back(event);
                        Enqueue::Delivered
                    }
                }
                DeliveryPolicy::Block { capacity, timeout } => {
                    let deadline = Instant::now() + timeout;
                    let mut timed_out = false;
                    while state.buf.len() >= capacity && !state.closed && !timed_out {
                        let remaining = deadline.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            break;
                        }
                        state.waiting_send += 1;
                        timed_out = self.not_full.wait_for(&mut state, remaining).timed_out()
                            && state.buf.len() >= capacity;
                        state.waiting_send -= 1;
                    }
                    if state.closed {
                        Enqueue::Disconnected
                    } else if state.buf.len() >= capacity {
                        Enqueue::Dropped
                    } else {
                        state.buf.push_back(event);
                        Enqueue::Delivered
                    }
                }
            }
        };
        let mut schedule = false;
        if outcome == Enqueue::Delivered {
            self.enqueued.fetch_add(1, Ordering::Relaxed);
            if self.consumer.is_some() && !state.scheduled {
                state.scheduled = true;
                schedule = true;
            }
        } else if outcome == Enqueue::Dropped {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let wake_recv = outcome == Enqueue::Delivered && state.waiting_recv > 0;
        drop(state);
        if wake_recv {
            self.not_empty.notify_one();
        }
        (outcome, schedule)
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
        let take = max.min(state.buf.len());
        out.extend(state.buf.drain(..take));
        let wake_send = state.waiting_send > 0;
        drop(state);
        if wake_send {
            self.not_full.notify_all();
        }
        true
    }

    // lint: end-hot-path

    /// Takes the next queued event without blocking.
    pub(crate) fn try_recv(&self) -> Option<Arc<Event>> {
        let mut state = self.state.lock();
        let event = state.buf.pop_front();
        let wake_send = event.is_some() && state.waiting_send > 0;
        drop(state);
        if wake_send {
            self.not_full.notify_one();
        }
        event
    }

    /// Blocks until an event arrives or the queue closes empty.
    pub(crate) fn recv(&self) -> Option<Arc<Event>> {
        let mut state = self.state.lock();
        loop {
            if let Some(event) = state.buf.pop_front() {
                let wake_send = state.waiting_send > 0;
                drop(state);
                if wake_send {
                    self.not_full.notify_one();
                }
                return Some(event);
            }
            if state.closed {
                return None;
            }
            state.waiting_recv += 1;
            self.not_empty.wait(&mut state);
            state.waiting_recv -= 1;
        }
    }

    /// [`NotifyQueue::recv`] bounded by `timeout`.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Option<Arc<Event>> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock();
        loop {
            if let Some(event) = state.buf.pop_front() {
                let wake_send = state.waiting_send > 0;
                drop(state);
                if wake_send {
                    self.not_full.notify_one();
                }
                return Some(event);
            }
            if state.closed {
                return None;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            state.waiting_recv += 1;
            let _ = self.not_empty.wait_for(&mut state, remaining);
            state.waiting_recv -= 1;
        }
    }

    /// Drains everything currently queued.
    pub(crate) fn drain(&self) -> Vec<Arc<Event>> {
        let mut state = self.state.lock();
        let drained: Vec<Arc<Event>> = state.buf.drain(..).collect();
        let wake_send = !drained.is_empty() && state.waiting_send > 0;
        drop(state);
        if wake_send {
            self.not_full.notify_all();
        }
        drained
    }

    /// Events currently queued.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().buf.len()
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

    /// Whether the subscriber is currently quarantined.
    pub(crate) fn quarantined(&self) -> bool {
        self.state.lock().cap_override.is_some()
    }

    /// Closes the queue: no further enqueues; parked receivers and
    /// blocked publishers wake immediately. Queued events stay
    /// drainable unless `discard` (consumer panic teardown, receiver
    /// death) frees them.
    pub(crate) fn close(&self, discard: bool) {
        let mut state = self.state.lock();
        state.closed = true;
        if discard {
            state.buf = VecDeque::new();
        }
        self.wake_all(&state);
    }

    /// Registers one more pull-side handle (receiver clone/detach).
    pub(crate) fn add_receiver(&self) {
        self.state.lock().receivers += 1;
    }

    /// Drops one pull-side handle; the last one out closes the queue
    /// and discards the backlog (nobody is left to drain it).
    pub(crate) fn drop_receiver(&self) {
        let mut state = self.state.lock();
        state.receivers = state.receivers.saturating_sub(1);
        if state.receivers == 0 && !state.closed {
            state.closed = true;
            state.buf = VecDeque::new();
            self.wake_all(&state);
        }
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
            .field("policy", &self.policy)
            .field("queued", &lag.queued)
            .field("dropped", &lag.dropped)
            .field("quarantined", &lag.quarantined)
            .finish()
    }
}

/// A detached pull handle for a subscription's queue, returned by
/// [`crate::Subscription::detach`]: receiving continues, but dropping
/// the last handle no longer unsubscribes (use
/// [`crate::Broker::unsubscribe`]). Clones share the queue; when the
/// last clone drops, the queue closes and later deliveries count as
/// disconnected.
#[derive(Debug)]
pub struct DeliveryReceiver {
    queue: Arc<NotifyQueue>,
}

impl DeliveryReceiver {
    pub(crate) fn new(queue: Arc<NotifyQueue>) -> Self {
        queue.add_receiver();
        DeliveryReceiver { queue }
    }

    /// Takes the next queued notification without blocking.
    pub fn try_recv(&self) -> Option<Arc<Event>> {
        self.queue.try_recv()
    }

    /// Blocks until a notification arrives or the queue closes empty.
    pub fn recv(&self) -> Option<Arc<Event>> {
        self.queue.recv()
    }

    /// Blocks up to `timeout`; `None` on timeout or close.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Arc<Event>> {
        self.queue.recv_timeout(timeout)
    }

    /// Drains everything currently queued.
    pub fn drain(&self) -> Vec<Arc<Event>> {
        self.queue.drain()
    }

    /// Notifications currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Clone for DeliveryReceiver {
    fn clone(&self) -> Self {
        DeliveryReceiver::new(Arc::clone(&self.queue))
    }
}

impl Drop for DeliveryReceiver {
    fn drop(&mut self) {
        self.queue.drop_receiver();
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
    pub(crate) queues: VecDeque<(SubscriptionId, Arc<NotifyQueue>)>,
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
                    inner.consumer_panicked(id);
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event() -> Arc<Event> {
        Arc::new(Event::builder().attr("a", 1_i64).build())
    }

    fn queue(policy: DeliveryPolicy) -> NotifyQueue {
        NotifyQueue::new(0, policy, None)
    }

    #[test]
    fn unbounded_never_drops() {
        let q = queue(DeliveryPolicy::Unbounded);
        for _ in 0..1000 {
            assert_eq!(q.enqueue(event()).0, Enqueue::Delivered);
        }
        assert_eq!(q.len(), 1000);
        assert_eq!(q.lag().dropped, 0);
    }

    #[test]
    fn drop_newest_drops_when_full() {
        let q = queue(DeliveryPolicy::DropNewest { capacity: 2 });
        assert_eq!(q.enqueue(event()).0, Enqueue::Delivered);
        assert_eq!(q.enqueue(event()).0, Enqueue::Delivered);
        assert_eq!(q.enqueue(event()).0, Enqueue::Dropped);
        assert!(q.try_recv().is_some());
        assert_eq!(q.enqueue(event()).0, Enqueue::Delivered);
        assert_eq!(q.lag().dropped, 1);
    }

    #[test]
    fn drop_oldest_keeps_the_freshest() {
        let q = queue(DeliveryPolicy::DropOldest { capacity: 2 });
        for v in 0..5_i64 {
            let e = Arc::new(Event::builder().attr("v", v).build());
            assert_eq!(q.enqueue(e).0, Enqueue::Delivered);
        }
        let lag = q.lag();
        assert_eq!((lag.queued, lag.dropped, lag.enqueued), (2, 3, 5));
        let kept: Vec<i64> = q
            .drain()
            .iter()
            .map(|e| e.get("v").and_then(boolmatch_types::Value::as_int).unwrap())
            .collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn disconnect_policy_closes_on_overflow() {
        let q = queue(DeliveryPolicy::Disconnect { capacity: 1 });
        assert_eq!(q.enqueue(event()).0, Enqueue::Delivered);
        assert_eq!(q.enqueue(event()).0, Enqueue::Disconnected);
        // Closed, but the queued backlog stays drainable.
        assert_eq!(q.len(), 1);
        assert!(q.recv().is_some());
        assert!(q.recv().is_none());
    }

    #[test]
    fn block_policy_times_out_then_drops() {
        let q = queue(DeliveryPolicy::Block {
            capacity: 1,
            timeout: Duration::from_millis(20),
        });
        assert_eq!(q.enqueue(event()).0, Enqueue::Delivered);
        let start = Instant::now();
        assert_eq!(q.enqueue(event()).0, Enqueue::Dropped);
        assert!(start.elapsed() >= Duration::from_millis(15));
        assert_eq!(q.lag().dropped, 1);
    }

    #[test]
    fn block_policy_waits_for_a_drain() {
        let q = Arc::new(queue(DeliveryPolicy::Block {
            capacity: 1,
            timeout: Duration::from_secs(5),
        }));
        assert_eq!(q.enqueue(event()).0, Enqueue::Delivered);
        let q2 = Arc::clone(&q);
        let drainer = std::thread::spawn(move || {
            // Free the slot only once the publisher is parked on it.
            while q2.parked() != (0, 1) {
                std::thread::yield_now();
            }
            q2.try_recv()
        });
        let start = Instant::now();
        assert_eq!(q.enqueue(event()).0, Enqueue::Delivered);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(drainer.join().unwrap().is_some());
    }

    #[test]
    fn closed_queue_reports_disconnected() {
        let q = queue(DeliveryPolicy::Unbounded);
        q.close(false);
        assert_eq!(q.enqueue(event()).0, Enqueue::Disconnected);
    }

    #[test]
    fn last_receiver_drop_discards_and_closes() {
        let q = Arc::new(queue(DeliveryPolicy::Unbounded));
        q.enqueue(event());
        let extra = DeliveryReceiver::new(Arc::clone(&q));
        let clone = extra.clone();
        q.drop_receiver(); // the original Subscription-side handle
        drop(extra);
        assert_eq!(
            q.enqueue(event()).0,
            Enqueue::Delivered,
            "clone keeps it open"
        );
        drop(clone);
        assert_eq!(q.enqueue(event()).0, Enqueue::Disconnected);
        assert_eq!(q.len(), 0, "backlog discarded with the last receiver");
    }

    #[test]
    fn quarantine_demotes_caps_and_recovers() {
        let config = QuarantineConfig {
            lag_watermark: 4,
            strikes: 2,
            quarantine_capacity: 2,
            auto_disconnect: false,
        };
        let q = queue(DeliveryPolicy::Unbounded);
        for _ in 0..10 {
            q.enqueue(event());
        }
        assert_eq!(q.maintenance_tick(&config), TickOutcome::Steady);
        assert_eq!(q.maintenance_tick(&config), TickOutcome::Demoted);
        assert!(q.quarantined());
        // Backlog shed to the cap; overflow now drops newest.
        assert_eq!(q.len(), 2);
        assert_eq!(q.enqueue(event()).0, Enqueue::Dropped);
        // Drain below the recovery floor and earn the release.
        q.drain();
        assert_eq!(q.maintenance_tick(&config), TickOutcome::Steady);
        assert_eq!(q.maintenance_tick(&config), TickOutcome::Recovered);
        assert!(!q.quarantined());
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
        let q = queue(DeliveryPolicy::Unbounded);
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
        let q = queue(DeliveryPolicy::Unbounded);
        for _ in 0..5 {
            q.enqueue(event());
        }
        assert_eq!(q.maintenance_tick(&config), TickOutcome::Steady);
        q.drain(); // consumer catches up before the second strike
        assert_eq!(q.maintenance_tick(&config), TickOutcome::Steady);
        for _ in 0..5 {
            q.enqueue(event());
        }
        // The strike count restarted: still one more tick to demotion.
        assert_eq!(q.maintenance_tick(&config), TickOutcome::Steady);
        assert_eq!(q.maintenance_tick(&config), TickOutcome::Demoted);
    }
}
