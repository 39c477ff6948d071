//! The sharded broker's concurrency claim, proven deterministically:
//! a write-locked shard (a subscription in progress) must **not**
//! block matching on other shards.
//!
//! Like the gate-engine test in `concurrent_matching.rs`, this is a
//! lock-level proof that works on a single-core host: instrumented
//! engines block inside the broker's locks at controlled points, and
//! latches observe which operations can still proceed. Under the old
//! single-engine-lock broker the publisher could not enter matching at
//! all while a subscribe held the write lock, and the observation
//! latch would time out.

use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use boolmatch::core::{
    FilterEngine, FulfilledSet, MatchScratch, MatchStats, MemoryUsage, SubscribeError,
    UnsubscribeError,
};
use boolmatch::expr::Expr;
use boolmatch::prelude::*;

/// A one-shot latch: `open` releases every current and future `wait`.
struct Latch {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn new() -> Arc<Self> {
        Arc::new(Latch {
            open: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    /// Returns whether the latch opened within `timeout`.
    fn wait(&self, timeout: Duration) -> bool {
        let guard = self.open.lock().unwrap();
        let (guard, result) = self
            .cv
            .wait_timeout_while(guard, timeout, |open| !*open)
            .unwrap();
        drop(guard);
        !result.timed_out()
    }
}

/// Minimal no-op engine base: accepts subscriptions, matches nothing.
#[derive(Default)]
struct NullEngine {
    subs: usize,
}

impl NullEngine {
    fn subscribe(&mut self) -> SubscriptionId {
        self.subs += 1;
        SubscriptionId::from_index(self.subs - 1)
    }
}

/// Shard-0 engine: announces through a latch that matching entered it.
struct SignalOnMatchEngine {
    base: NullEngine,
    matching_entered: Arc<Latch>,
}

impl FilterEngine for SignalOnMatchEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::NonCanonical
    }

    fn subscribe(&mut self, _expr: &Expr) -> Result<SubscriptionId, SubscribeError> {
        Ok(self.base.subscribe())
    }

    fn unsubscribe(&mut self, _id: SubscriptionId) -> Result<(), UnsubscribeError> {
        Ok(())
    }

    fn expression(&self, _id: SubscriptionId) -> Option<Expr> {
        None
    }

    fn phase1(&self, _event: &Event, out: &mut FulfilledSet) {
        self.matching_entered.open();
        out.begin(0);
    }

    fn phase2(
        &self,
        _fulfilled: &FulfilledSet,
        _scratch: &mut MatchScratch,
        matched: &mut Vec<SubscriptionId>,
    ) -> MatchStats {
        matched.clear();
        MatchStats::default()
    }

    fn subscription_count(&self) -> usize {
        self.base.subs
    }

    fn predicate_count(&self) -> usize {
        0
    }

    fn predicate_universe(&self) -> usize {
        0
    }

    fn memory_usage(&self) -> MemoryUsage {
        MemoryUsage::default()
    }
}

/// Shard-1 engine: `subscribe` parks — announcing it is inside (and
/// therefore holding that shard's write lock) — until released.
struct BlockingSubscribeEngine {
    base: NullEngine,
    in_subscribe: Arc<Latch>,
    release: Arc<Latch>,
}

impl FilterEngine for BlockingSubscribeEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::NonCanonical
    }

    fn subscribe(&mut self, _expr: &Expr) -> Result<SubscriptionId, SubscribeError> {
        self.in_subscribe.open();
        assert!(
            self.release.wait(Duration::from_secs(10)),
            "test driver never released the blocked subscribe"
        );
        Ok(self.base.subscribe())
    }

    fn unsubscribe(&mut self, _id: SubscriptionId) -> Result<(), UnsubscribeError> {
        Ok(())
    }

    fn expression(&self, _id: SubscriptionId) -> Option<Expr> {
        None
    }

    fn phase1(&self, _event: &Event, out: &mut FulfilledSet) {
        out.begin(0);
    }

    fn phase2(
        &self,
        _fulfilled: &FulfilledSet,
        _scratch: &mut MatchScratch,
        matched: &mut Vec<SubscriptionId>,
    ) -> MatchStats {
        matched.clear();
        MatchStats::default()
    }

    fn subscription_count(&self) -> usize {
        self.base.subs
    }

    fn predicate_count(&self) -> usize {
        0
    }

    fn predicate_universe(&self) -> usize {
        0
    }

    fn memory_usage(&self) -> MemoryUsage {
        MemoryUsage::default()
    }
}

/// The deterministic gate: while shard 1's write lock is held by an
/// in-flight subscribe, a publisher must still enter matching on
/// shard 0. Under a single engine lock this times out.
#[test]
fn write_locked_shard_does_not_block_matching_on_other_shards() {
    let matching_entered = Latch::new();
    let in_subscribe = Latch::new();
    let release = Latch::new();

    let broker = Broker::builder()
        .engine_instances(vec![
            Box::new(SignalOnMatchEngine {
                base: NullEngine::default(),
                matching_entered: matching_entered.clone(),
            }),
            Box::new(BlockingSubscribeEngine {
                base: NullEngine::default(),
                in_subscribe: in_subscribe.clone(),
                release: release.clone(),
            }),
        ])
        .build();

    // Least-loaded placement (round-robin from empty): subscription 0
    // lands on shard 0 (returns immediately), subscription 1 lands on
    // shard 1 and parks inside `subscribe`, holding shard 1's write
    // lock.
    //
    // The probe event matches nothing, so content-aware pruning would
    // (correctly) skip shard 0 without entering `phase1` — but this
    // test instruments lock acquisition *inside* the engine, so shard
    // 0's resident is an `or`-rooted disjunction, which the synopsis
    // keeps always-candidate.
    let _warm = broker.subscribe("warmup = 0 or other = 1").unwrap();

    let _blocked = thread::scope(|scope| {
        let subscriber = {
            let broker = broker.clone();
            scope.spawn(move || broker.subscribe("blocked = 1").unwrap())
        };
        assert!(
            in_subscribe.wait(Duration::from_secs(10)),
            "blocked subscribe never started"
        );

        // Shard 1 is now write-locked. A publish must still match on
        // shard 0 (it will then queue on shard 1 until the release).
        let publisher = {
            let broker = broker.clone();
            scope.spawn(move || broker.publish(Event::builder().attr("n", 1_i64).build()))
        };

        assert!(
            matching_entered.wait(Duration::from_secs(10)),
            "publisher never entered matching on shard 0 while shard 1 \
             was write-locked: shard locks are not independent"
        );

        release.open();
        let sub = subscriber.join().unwrap();
        assert_eq!(publisher.join().unwrap(), 0, "gate engines match nothing");
        assert_eq!(sub.id().slot() % 2, 1, "second subscription is shard 1's");
        sub // keep the handle alive so drop doesn't unsubscribe it yet
    });

    assert_eq!(broker.subscription_count(), 2);
    assert_eq!(broker.stats().events_published, 1);
}
