//! The PR-5 hot-path contract, proven without relying on timing:
//!
//! * **Directory off the publish path** — a thread holding the
//!   placement directory's **write** lock must not block a single
//!   publish, on any shard, single or batch. Latch-observed: the
//!   publisher provably starts *while* the lock is held.
//! * **Generation-tagged recycling is ABA-safe** — a stale handle
//!   whose id slot has been reissued can never remove the slot's new
//!   owner. Every broker reissues retired slots, so this guards every
//!   broker. CI runs this one under `--release` too.
//! * **Hot-key skew** — on the `HotKeyScenario` workload,
//!   count-balanced placement provably concentrates the match load on
//!   one shard, and the frequency-weighted rebalancer measurably
//!   spreads it while a publisher keeps publishing.
//! * **Maintenance is a caller tick** — rebalance ticks looped on a
//!   thread of the test's own, a live resize and a publisher race;
//!   delivery stays at most once, and exact once they are quiescent.
//!
//! What every configuration delivers — reissued ids, clustered pruning,
//! churn, both rebalancers, live resize, batched publishes — is checked
//! against a naive evaluation in `tests/oracle_matrix.rs`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use boolmatch::prelude::*;
use boolmatch::workload::scenarios::HotKeyScenario;

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

fn ev(pairs: &[(&str, i64)]) -> Event {
    Event::from_pairs(pairs.iter().map(|(n, v)| (*n, *v)))
}

/// The acceptance gate: a thread parks **holding the directory write
/// lock** (the lock every subscribe/unsubscribe/migration needs);
/// publishes on every shard, single and batch, must still complete
/// while it is parked. Before PR 5, each publish took the directory
/// read lock once per shard per event to translate matched ids, so
/// this test would hang at the first publish.
#[test]
fn publishes_flow_while_directory_write_lock_is_held() {
    let broker = Broker::builder().shards(3).build();
    let subs: Vec<Subscription> = (0..9)
        .map(|i| broker.subscribe(&format!("a = {i} or all = 1")).unwrap())
        .collect();
    assert_eq!(broker.shard_loads(), vec![3, 3, 3]);

    let lock_held = Latch::new();
    let release = Latch::new();
    let published = Latch::new();

    thread::scope(|scope| {
        let holder = {
            let broker = broker.clone();
            let lock_held = lock_held.clone();
            let release = release.clone();
            scope.spawn(move || {
                broker.with_directory_write_held(|| {
                    lock_held.open();
                    assert!(
                        release.wait(Duration::from_secs(30)),
                        "test driver never released the directory holder"
                    );
                });
            })
        };
        assert!(
            lock_held.wait(Duration::from_secs(10)),
            "holder never acquired the directory write lock"
        );

        // With the directory write-held, publish through every
        // entry: single, arc, and batch. Every subscription lives on
        // some shard, so all three shards translate matched ids here.
        let publisher = {
            let broker = broker.clone();
            let published = published.clone();
            scope.spawn(move || {
                let mut delivered = broker.publish(ev(&[("all", 1)]));
                delivered += broker.publish_arc(Arc::new(ev(&[("all", 1)])));
                delivered +=
                    broker.publish_batch(&[Arc::new(ev(&[("all", 1)])), Arc::new(ev(&[("a", 4)]))]);
                published.open();
                delivered
            })
        };
        assert!(
            published.wait(Duration::from_secs(10)),
            "a publish blocked while the directory write lock was held: \
             the directory is back on the hot path"
        );
        assert_eq!(
            publisher.join().unwrap(),
            9 + 9 + 9 + 1,
            "all deliveries completed under the held lock"
        );
        release.open();
        holder.join().unwrap();
    });

    for sub in &subs {
        assert_eq!(sub.drain().len(), 4 - usize::from(sub.id().slot() != 4));
    }
}

/// The generation-tag ABA regression (CI runs this under `--release`
/// too): an explicitly unsubscribed handle whose slot has been
/// reissued to a new subscription must not, on drop, remove the new
/// owner. Without the generation tag the stale drop-unsubscribe would
/// alias the new id.
#[test]
fn recycled_id_generations_are_aba_safe() {
    let broker = Broker::builder().shards(2).build();
    let stale = broker.subscribe("old = 1").unwrap();
    let stale_id = stale.id();
    // Explicit removal; the handle (and its pending drop-unsubscribe)
    // stays alive.
    assert!(broker.unsubscribe(stale_id));
    // The freed slot is reissued to the victim-to-be: same slot, next
    // generation — a *different* id.
    let survivor = broker.subscribe("new = 1").unwrap();
    assert_eq!(survivor.id().slot(), stale_id.slot(), "slot was recycled");
    assert_ne!(survivor.id(), stale_id, "generation tag distinguishes them");
    assert!(survivor.id().generation() > stale_id.generation());

    // The stale handle drops and fires its drop-unsubscribe with the
    // old id. Generation tagging makes it a no-op...
    drop(stale);
    assert_eq!(broker.subscription_count(), 1, "survivor not collateral");
    // ...and the survivor still matches and delivers.
    assert_eq!(broker.publish(ev(&[("new", 1)])), 1);
    assert_eq!(survivor.drain().len(), 1);
}

/// Hot-key skew, end to end: stride = shard count parks every hot
/// subscription on shard 0 (counts balanced — `rebalance()` is
/// provably useless here), the per-shard match counters expose the
/// skew, and frequency-weighted ticks drain match load off the hot
/// shard while delivery stays exact.
#[test]
fn match_frequency_rebalancer_fixes_hot_key_skew_counts_cannot_see() {
    let shards = 4;
    let broker = Broker::builder().shards(shards).build();
    let mut scenario = HotKeyScenario::new(11, shards);
    let subs: Vec<Subscription> = scenario
        .subscriptions(64)
        .iter()
        .map(|e| broker.subscribe_expr(e).unwrap())
        .collect();
    let hot_subs = scenario.hot_subscriptions();
    assert_eq!(hot_subs, 16);
    // Counts are perfectly balanced; count-based rebalance sees nothing.
    assert_eq!(broker.shard_loads(), vec![16; shards]);
    assert_eq!(broker.rebalance(), 0);

    // Arm the frequency baseline, then drive hot traffic.
    assert_eq!(broker.rebalance_by_match_frequency(usize::MAX), 0);
    let hot_event = ev(&[("hot", 1), ("key", 0), ("priority", 0)]);
    for _ in 0..32 {
        assert_eq!(broker.publish(hot_event.clone()), hot_subs);
    }
    let hits = broker.shard_match_hits();
    assert_eq!(hits[0], 32 * hot_subs as u64, "all match load on shard 0");
    assert_eq!(&hits[1..], &[0, 0, 0], "count-balanced yet fully skewed");

    // Tick until the hot shard's match production stops dominating:
    // publish between ticks so the counters keep exposing the residual
    // skew. Victims move cold subs first (highest locals), then the
    // hot ones — the feedback loop converges regardless.
    let mut baseline = broker.shard_match_hits();
    for _round in 0..64 {
        for _ in 0..8 {
            assert_eq!(broker.publish(hot_event.clone()), hot_subs);
        }
        broker.rebalance_by_match_frequency(8);
        let hits = broker.shard_match_hits();
        let delta: Vec<u64> = hits
            .iter()
            .zip(&baseline)
            .map(|(h, b)| h.saturating_sub(*b))
            .collect();
        baseline = hits;
        let total: u64 = delta.iter().sum();
        if total > 0 && *delta.iter().max().unwrap() * 2 <= total {
            // No shard produces more than half the match load any
            // more: the hot set has measurably spread.
            break;
        }
    }
    let final_delta: Vec<u64> = {
        let before = broker.shard_match_hits();
        assert_eq!(broker.publish(hot_event.clone()), hot_subs);
        broker
            .shard_match_hits()
            .iter()
            .zip(&before)
            .map(|(a, b)| a - b)
            .collect()
    };
    let max = *final_delta.iter().max().unwrap();
    assert!(
        max * 2 <= hot_subs as u64,
        "hot matches still concentrated after frequency rebalancing: {final_delta:?}"
    );
    assert!(
        broker.stats().subscriptions_migrated > 0,
        "the frequency policy actually migrated"
    );

    // Delivery stayed exact for every subscriber through all of it.
    assert_eq!(broker.publish(hot_event.clone()), hot_subs);
    for (i, sub) in subs.iter().enumerate() {
        let expected = if i % shards == 0 { 32 + 8 * 8 + 2 } else { 0 };
        // Rounds may have exited early; just assert hot subs got every
        // hot event and cold subs none.
        if i % shards == 0 {
            assert!(sub.drain().len() >= 34, "hot sub {i} missed deliveries");
        } else {
            assert_eq!(sub.drain().len(), 0, "cold sub {i} got {expected}");
        }
    }
}

/// Caller-driven rebalance ticks, racing real publishes and a live
/// resize: at-most-once delivery per event per subscriber, queues
/// reconcile exactly with the broker's counters, and once everything is
/// quiescent delivery is exact again.
#[test]
fn rebalance_ticks_race_publishes_and_resize_safely() {
    let broker = Broker::builder().shards(4).build();
    // All-matching subscriptions, skewed onto shards 0 and 3 by
    // dropping shards 1 and 2's arrivals.
    let mut subs: Vec<Subscription> = (0..40)
        .map(|_| broker.subscribe("tick = 1").unwrap())
        .collect();
    for i in (0..subs.len()).rev() {
        if i % 4 == 1 || i % 4 == 2 {
            drop(subs.remove(i));
        }
    }
    assert_eq!(broker.shard_loads(), vec![10, 0, 0, 10]);

    let publishes = 200usize;
    let published = AtomicBool::new(false);
    thread::scope(|scope| {
        let publisher = {
            let broker = broker.clone();
            let published = &published;
            scope.spawn(move || {
                for _ in 0..publishes {
                    broker.publish(ev(&[("tick", 1)]));
                    // Timing-free: the yield only widens the race
                    // window. The assertions below (at most once,
                    // counters reconcile, exact once quiescent) hold
                    // under any interleaving, fully serialised included.
                    thread::yield_now();
                }
                published.store(true, Ordering::Release);
            })
        };
        // The ticks a caller would run on an interval, back to back
        // until the last publish: both rebalancers, in small chunks.
        let ticker = {
            let broker = broker.clone();
            let published = &published;
            scope.spawn(move || {
                while !published.load(Ordering::Acquire) {
                    broker.rebalance_by_match_frequency(32);
                    broker.migrate(32);
                }
            })
        };
        let resizer = {
            let broker = broker.clone();
            scope.spawn(move || {
                broker.resize(6);
                broker.rebalance();
                broker.resize(2);
                broker.resize(4);
            })
        };
        publisher.join().unwrap();
        resizer.join().unwrap();
        ticker.join().unwrap();
    });
    assert_eq!(broker.shard_count(), 4);
    assert_eq!(broker.shard_loads().iter().sum::<usize>(), subs.len());

    // At-most-once per event per subscriber, and no phantom deliveries.
    let mut total_drained = 0u64;
    for (i, sub) in subs.iter().enumerate() {
        let got = sub.drain().len();
        assert!(got <= publishes, "subscriber {i} got {got} > {publishes}");
        total_drained += got as u64;
    }
    assert_eq!(total_drained, broker.stats().notifications_delivered);

    // Quiescent: exact delivery, everything alive and routable.
    assert_eq!(broker.publish(ev(&[("tick", 1)])), subs.len());
    for sub in &subs {
        assert_eq!(sub.drain().len(), 1);
    }
    drop(subs);
    assert_eq!(broker.subscription_count(), 0);
}
