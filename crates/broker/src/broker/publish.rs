//! The publish path: the per-thread publish state, the one shard walk
//! behind [`Broker::publish_batch`] (which [`Broker::publish_arc`] runs
//! for a batch of one), and delivery's enqueue and ready-list hand-off.

use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use boolmatch_core::{MatchScratch, MatchStats, SubscriptionId};
use boolmatch_types::Event;

use super::Broker;
use crate::delivery::{run_drainer, Enqueue, NotifyQueue};

/// Per-publisher-thread reusable buffers: the match scratch, the
/// per-event buckets of matched global ids, the delivery snapshot of
/// matched subscribers' queue handles, and the chunk of consumer queues
/// this publish scheduled but has not yet handed to the ready list.
#[derive(Default)]
struct PublishState {
    scratch: MatchScratch,
    buckets: Vec<Vec<SubscriptionId>>,
    targets: Vec<Arc<NotifyQueue>>,
    ready: Vec<Arc<NotifyQueue>>,
}

thread_local! {
    // One state per publisher thread, shared by all brokers on that
    // thread (sound: the scratch is engine-agnostic and self-restoring
    // between matches). It grows to the largest engine the thread ever
    // matched against and keeps that capacity, except that a buffer a
    // publish leaves larger than [`SCRATCH_TRIM_CAP`] is released after
    // that publish.
    static PUBLISH_STATE: RefCell<PublishState> = RefCell::new(PublishState::default());
}

/// Heap bytes of the calling thread's publish buffers: `scratch`, the
/// largest of `buckets` (the cap applies to each bucket on its own) and
/// `targets`.
#[cfg(test)]
pub(super) fn publish_state_bytes() -> [usize; 3] {
    PUBLISH_STATE.with(|cell| {
        let state = cell.borrow();
        let id = std::mem::size_of::<SubscriptionId>();
        let target = std::mem::size_of::<Arc<NotifyQueue>>();
        [
            state.scratch.heap_bytes(),
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

/// A thread-local publish buffer (the match scratch, each matched-id
/// bucket, the delivery targets, the ready chunk) left with more heap
/// than this after a publish is trimmed instead of kept at its
/// high-water capacity, so one pathological event (a huge candidate
/// spike) cannot pin its peak allocation in every publisher thread
/// forever. Generous on purpose — steady-state workloads far below it
/// never trim and so never re-allocate.
const SCRATCH_TRIM_CAP: usize = 8 << 20;

#[cfg(test)]
thread_local! {
    /// The calling thread's trim cap: [`SCRATCH_TRIM_CAP`] unless a
    /// test lowers it to force the trim path.
    pub(super) static TRIM_CAP: std::cell::Cell<usize> =
        const { std::cell::Cell::new(SCRATCH_TRIM_CAP) };
}

/// The trim cap in force on the calling thread.
#[cfg(not(test))]
fn trim_cap() -> usize {
    SCRATCH_TRIM_CAP
}

#[cfg(test)]
fn trim_cap() -> usize {
    TRIM_CAP.with(std::cell::Cell::get)
}

/// Newly scheduled consumer queues a publisher collects before it takes
/// the ready-list lock to hand them over. Handing over in chunks, not
/// once after the last enqueue, lets a drainer start on the first
/// subscribers while the publisher is still enqueueing to the rest.
const READY_CHUNK: usize = 32;

/// The one place the trim-cap rule for the thread-local buffers lives:
/// a vector grown past the trim cap is replaced by an empty one
/// (capacity released) before being parked for reuse.
fn release_if_oversized<T>(buffer: &mut Vec<T>) {
    if buffer.capacity() * std::mem::size_of::<T>() > trim_cap() {
        *buffer = Vec::new();
    }
}

impl Broker {
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
    /// zero-copy entry: the same allocation is shared by every
    /// delivered notification, and the event is never cloned. This is
    /// [`Broker::publish_batch`] with a batch of one.
    pub fn publish_arc(&self, event: Arc<Event>) -> usize {
        self.publish_batch(std::slice::from_ref(&event))
    }

    /// Publishes a batch of events — the one publish body every publish
    /// goes through. Returns the total number of notifications
    /// delivered, and delivers exactly the same notifications, in the
    /// same per-subscriber order, as the equivalent sequence of
    /// [`Broker::publish`] calls.
    ///
    /// The batch is taken as `Arc<Event>`s: one allocation per event,
    /// made by the caller, shared untouched across every shard's
    /// matching and every delivered notification — publishing never
    /// clones an event.
    ///
    /// The shards are walked in index order, each visited once for the
    /// whole batch under its **read** lock. Under that one guard, each
    /// event runs the per-shard step
    /// ([`Shard::match_event`](boolmatch_core::Shard::match_event)) —
    /// the synopsis prune check, the engine match into the thread-local
    /// [`MatchScratch`] and the translation of matched local ids
    /// through the shard's own map — and the event's ids are appended
    /// to its bucket; the shard's summed stats are tallied once the
    /// guard is dropped. The matching phase acquires no broker-global
    /// lock beyond the one-pointer clone of the current shard set (and,
    /// in particular, never the placement directory's). Translating
    /// under the shard's read lock is what makes it sound against
    /// migration, which commits a relocation only while holding that
    /// shard's write lock; an id retired by a racing unsubscribe has no
    /// translation and is dropped, exactly as delivery would drop its
    /// removed sender. Concurrent publishers match in parallel and a
    /// write-locked shard (a subscription in progress) delays only its
    /// own shard's portion of the match. What a batch amortises is the
    /// visit; the matching of one event costs the same at any width.
    ///
    /// The walk runs **on the calling thread** — there is no hand-off,
    /// so an engine that panics unwinds to the caller (releasing the
    /// shard's read guard and the thread-local borrow on the way)
    /// instead of costing the publish a shard silently. All locks are
    /// released before delivery, which runs event by event: each event
    /// snapshots its matched subscribers' queues under a short
    /// sender-map read and enqueues outside it, so a slow consumer (or
    /// a `Block`-policy wait) in the middle of a batch never extends
    /// the window in which an unsubscribe is stalled. Subscribers found
    /// disconnected (handle dropped without unsubscribe — possible when
    /// the handle's broker reference was already gone) are pruned.
    pub fn publish_batch(&self, events: &[Arc<Event>]) -> usize {
        if events.is_empty() {
            return 0;
        }
        let set = self.shard_set();
        let epoch = self.inner.migration_epoch.load(Ordering::Acquire);
        // The buckets are swapped out of the thread-local state so the
        // RefCell borrow ends before delivery (which takes the
        // sender-map lock and may re-enter the broker to prune dead
        // subscribers).
        let mut buckets = PUBLISH_STATE.with(|cell| {
            let state = &mut *cell.borrow_mut();
            let mut buckets = std::mem::take(&mut state.buckets);
            if buckets.len() < events.len() {
                // Grow to the high-water batch length, never shrink: a
                // short batch must not free the longer tail's capacity.
                buckets.resize_with(events.len(), Vec::new);
            }
            let used = &mut buckets[..events.len()];
            used.iter_mut().for_each(Vec::clear);
            // Shard-major, so each shard's read lock is taken once per
            // batch; shard order within each bucket, so an event's ids
            // concatenate exactly as a one-event walk would leave them.
            for cell in set.iter() {
                let mut stats = MatchStats::default();
                {
                    let shard = cell.state.read();
                    for (event, bucket) in events.iter().zip(used.iter_mut()) {
                        stats = stats + shard.match_event(event, &mut state.scratch);
                        bucket.extend_from_slice(state.scratch.matched());
                    }
                }
                cell.record(&stats);
            }
            if state.scratch.heap_bytes() > trim_cap() {
                state.scratch.trim();
            }
            self.dedup_matched(epoch, used);
            buckets
        });
        self.inner
            .stats
            .events_published
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        let mut delivered = 0usize;
        for (event, matched) in events.iter().zip(&buckets) {
            delivered += self.deliver_matched_arc(event, matched);
        }
        // Bucket half of the high-water fix: a bucket a pathological
        // event grew past the trim cap is released, not parked.
        for bucket in &mut buckets[..events.len()] {
            release_if_oversized(bucket);
        }
        PUBLISH_STATE.with(|cell| cell.borrow_mut().buckets = buckets);
        delivered
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
    /// the match window (`epoch_before`, read before the walk, no
    /// longer current): any relocation able to duplicate this publish's
    /// matched sets commits under a shard write lock *between* two of
    /// its shard visits, and therefore between the two epoch reads.
    /// Migration-quiescent publishes — and single-shard brokers, which
    /// cannot migrate — pay one atomic load per publish, not per event.
    fn dedup_matched(&self, epoch_before: u64, buckets: &mut [Vec<SubscriptionId>]) {
        if self.inner.migration_epoch.load(Ordering::Acquire) != epoch_before {
            for matched in buckets {
                matched.sort_unstable();
                matched.dedup();
            }
        }
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
                targets.extend(matched.iter().filter_map(|id| senders.get(id).cloned()));
            }
            (targets, std::mem::take(&mut state.ready))
        });
        let delivered = self.enqueue_targets(&targets, event, &mut ready);
        // Same trim-cap rule as the buckets: a pathological fan-out
        // must not pin its peak snapshot capacity per thread.
        targets.clear();
        release_if_oversized(&mut targets);
        release_if_oversized(&mut ready);
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
        targets: &[Arc<NotifyQueue>],
        event: &Arc<Event>,
        ready: &mut Vec<Arc<NotifyQueue>>,
    ) -> usize {
        let mut delivered = 0usize;
        let mut dropped = 0u64;
        let mut disconnected = 0u64;
        let mut dead: Vec<SubscriptionId> = Vec::new();
        for queue in targets {
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
                    dead.push(queue.id());
                }
            }
            if schedule {
                ready.push(Arc::clone(queue));
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
    fn hand_over(&self, chunk: &mut Vec<Arc<NotifyQueue>>) {
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
}
