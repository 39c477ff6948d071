//! The PR-5 hot-path contract, proven without relying on timing:
//!
//! * **Directory off the publish path** — a thread holding the
//!   placement directory's **write** lock must not block a single
//!   publish, on any shard, single or batch. Latch-observed: the
//!   publisher provably starts *while* the lock is held.
//! * **Generation-tagged recycling is ABA-safe** — with
//!   `recycled_ids`, a stale handle whose slot has been reissued can
//!   no longer remove the slot's new owner (the regression that kept
//!   bounded id recycling engine-only through PR 4). CI runs this one
//!   under `--release` too.
//! * **Equivalence under everything at once** — a sharded broker with
//!   recycled ids, replaying churn with count-based *and*
//!   frequency-based rebalancing plus live broker `resize`, delivers
//!   exactly like a flat broker, for every engine kind and
//!   S ∈ {1, 3, 8}.
//! * **Content-aware pruning is invisible to delivery** — a clustered,
//!   pruning broker replaying the selective workload (with churn, both
//!   rebalancers and live resizes mid-stream) delivers exactly like a
//!   flat broker, for every engine kind and S ∈ {1, 3, 8}, while the
//!   per-shard prune counters prove shards really were skipped —
//!   and the batched publish path (`publish_batch_events`, one
//!   synopsis walk and one engine batch pass per shard per batch)
//!   delivers identically to the flat broker's one-at-a-time walk.
//! * **Hot-key skew** — on the `HotKeyScenario` workload,
//!   count-balanced placement provably concentrates the match load on
//!   one shard, and the frequency-weighted rebalancer measurably
//!   spreads it while a publisher keeps publishing.

use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use boolmatch::broker::RebalancePolicy;
use boolmatch::prelude::*;
use boolmatch::workload::scenarios::{
    ChurnOp, HotKeyScenario, RebalanceOp, RebalanceScenario, SelectiveScenario,
};

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
                delivered += broker.publish_batch_events(&[ev(&[("all", 1)]), ev(&[("a", 4)])]);
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
        assert_eq!(sub.drain().len(), 4 - usize::from(sub.id().index() != 4));
    }
}

/// The generation-tag ABA regression (CI runs this under `--release`
/// too): with recycled ids, an explicitly unsubscribed handle whose
/// slot has been reissued to a new subscription must not, on drop,
/// remove the new owner. Through PR 4 the slot reuse made the stale
/// drop-unsubscribe alias the new id, which is exactly why recycling
/// was not offered on the broker.
#[test]
fn recycled_id_generations_are_aba_safe() {
    let broker = Broker::builder().shards(2).recycled_ids().build();
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

/// The headline equivalence replay: a sharded broker running with
/// **recycled ids**, count-based `rebalance()`, frequency-based
/// `rebalance_by_match_frequency()` *and* live broker `resize()` at
/// deterministic marks delivers exactly like a flat broker — per
/// publish and per surviving subscriber — for every engine kind and
/// S ∈ {1, 3, 8}. Ids diverge by design (recycling re-tags slots), so
/// subscribers are matched by live-list position.
#[test]
fn churny_rebalancing_resizing_recycled_broker_delivers_like_flat() {
    for kind in EngineKind::ALL {
        for shards in [1usize, 3, 8] {
            let flat = Broker::builder().engine(kind).build();
            let sharded = Broker::builder()
                .engine(kind)
                .shards(shards)
                .recycled_ids()
                .build();
            let mut flat_live: Vec<Subscription> = Vec::new();
            let mut sharded_live: Vec<Subscription> = Vec::new();
            let mut scenario = RebalanceScenario::new(23, 40, shards)
                .with_rebalance_every(37)
                .with_resize_every(101);
            let mut resizes = 0usize;

            for (step, op) in scenario.ops(1_000).into_iter().enumerate() {
                match op {
                    RebalanceOp::Churn(ChurnOp::Subscribe(expr)) => {
                        flat_live.push(flat.subscribe_expr(&expr).unwrap());
                        sharded_live.push(sharded.subscribe_expr(&expr).unwrap());
                    }
                    RebalanceOp::Churn(ChurnOp::Unsubscribe(i)) => {
                        drop(flat_live.remove(i));
                        drop(sharded_live.remove(i));
                    }
                    RebalanceOp::Churn(ChurnOp::Publish(event)) => {
                        let a = flat.publish(event.clone());
                        let b = sharded.publish(event);
                        assert_eq!(a, b, "kind={kind} shards={shards} step={step}");
                    }
                    RebalanceOp::Rebalance => {
                        // Alternate both rebalancing policies through
                        // the same stream.
                        sharded.rebalance();
                        sharded.rebalance_by_match_frequency(8);
                        let loads = sharded.shard_loads();
                        assert_eq!(
                            loads.iter().sum::<usize>(),
                            sharded_live.len(),
                            "no subscription lost at {step}"
                        );
                    }
                    RebalanceOp::Resize(n) => {
                        resizes += 1;
                        sharded.resize(n);
                        assert_eq!(sharded.shard_count(), n, "step {step}");
                    }
                }
            }
            assert!(resizes >= 3, "the ladder actually ran");
            // The ladder returns to the base shard count only after a
            // multiple of 3 resizes; just require a consistent state.
            assert_eq!(
                sharded.shard_loads().iter().sum::<usize>(),
                sharded_live.len()
            );

            for (i, (a, b)) in flat_live.iter().zip(&sharded_live).enumerate() {
                assert_eq!(
                    a.drain().len(),
                    b.drain().len(),
                    "survivor {i}, kind={kind} shards={shards}"
                );
            }
            let fs = flat.stats();
            let ss = sharded.stats();
            assert_eq!(fs.notifications_delivered, ss.notifications_delivered);
            assert_eq!(fs.subscriptions_created, ss.subscriptions_created);
            assert_eq!(fs.subscriptions_removed, ss.subscriptions_removed);
            // Recycling bounded the sharded table under the churn while
            // the flat broker's arrival-order table kept growing.
            assert!(
                ss.subscriptions_created > sharded_live.len() as u64,
                "the stream actually churned"
            );
        }
    }
}

/// Content-aware routing, end to end: a broker with
/// `ClusterByAttribute` placement and (default-on) synopsis pruning
/// replays the selective workload — group-pinned conjunctions, churn
/// mid-stream, both rebalancing policies, a live resize up and back —
/// and must deliver exactly like a flat broker, per publish and per
/// surviving subscriber, for every engine kind and S ∈ {1, 3, 8}.
/// For S > 1 the per-shard prune counters must show that shards were
/// really skipped, not merely matched-and-empty: the equivalence holds
/// *because* the synopsis is conservative, not because pruning never
/// engaged.
#[test]
fn clustered_pruning_broker_delivers_like_flat() {
    for kind in EngineKind::ALL {
        for shards in [1usize, 3, 8] {
            let flat = Broker::builder().engine(kind).build();
            let sharded = Broker::builder()
                .engine(kind)
                .shards(shards)
                .placement(PlacementPolicy::ClusterByAttribute)
                .build();

            let mut scenario = SelectiveScenario::new(0x5e1ec7 + shards as u64, 8);
            let mut live: Vec<(Subscription, Subscription)> = scenario
                .subscriptions(48)
                .iter()
                .map(|expr| {
                    (
                        flat.subscribe_expr(expr).unwrap(),
                        sharded.subscribe_expr(expr).unwrap(),
                    )
                })
                .collect();

            for (step, event) in scenario.events(120).into_iter().enumerate() {
                match step {
                    // Churn: dropping the handle unsubscribes, which
                    // must retract the synopsis entry on whichever
                    // shard currently hosts the subscription.
                    s if s % 9 == 4 => {
                        drop(live.remove(live.len() / 2));
                    }
                    40 => {
                        sharded.rebalance();
                        sharded.rebalance_by_match_frequency(8);
                    }
                    70 => {
                        sharded.resize(shards + 1);
                    }
                    100 => {
                        sharded.resize(shards);
                    }
                    _ => {}
                }
                let a = flat.publish(event.clone());
                let b = sharded.publish(event);
                assert_eq!(a, b, "kind={kind} shards={shards} step={step}");
            }

            for (i, (a, b)) in live.iter().enumerate() {
                assert_eq!(
                    a.drain().len(),
                    b.drain().len(),
                    "survivor {i}, kind={kind} shards={shards}"
                );
            }
            assert_eq!(
                flat.stats().notifications_delivered,
                sharded.stats().notifications_delivered
            );
            if shards > 1 {
                // Counters reset with the cells on resize, so this
                // covers (at least) the post-resize tail of the stream.
                let prunes: u64 = sharded.shard_prune_counts().iter().sum();
                assert!(
                    prunes > 0,
                    "pruning never fired: kind={kind} shards={shards}"
                );
            }
        }
    }
}

/// The batch publish path composes with content-aware pruning: a
/// clustered pruning broker consuming the selective stream in batches
/// (through `publish_batch_events`, so the thread-local `Arc` buffer
/// reuse is on the tested path too) delivers exactly like a flat
/// broker consuming the same stream one event at a time — per batch
/// and per surviving subscriber, with churn mid-stream — while the
/// prune counters prove the batch path really skipped shards via the
/// once-per-batch synopsis walk.
#[test]
fn batched_publish_composes_with_clustered_pruning() {
    for kind in EngineKind::ALL {
        for shards in [1usize, 3, 8] {
            let flat = Broker::builder().engine(kind).build();
            let sharded = Broker::builder()
                .engine(kind)
                .shards(shards)
                .placement(PlacementPolicy::ClusterByAttribute)
                .build();

            let mut scenario = SelectiveScenario::new(0xba7c4 + shards as u64, 8);
            let mut live: Vec<(Subscription, Subscription)> = scenario
                .subscriptions(48)
                .iter()
                .map(|expr| {
                    (
                        flat.subscribe_expr(expr).unwrap(),
                        sharded.subscribe_expr(expr).unwrap(),
                    )
                })
                .collect();

            for round in 0..12 {
                let events = scenario.events(8 + round * 3);
                if round == 5 {
                    drop(live.remove(live.len() / 2));
                }
                if round == 8 {
                    sharded.rebalance_by_match_frequency(8);
                }
                let single: usize = events.iter().map(|e| flat.publish(e.clone())).sum();
                let batched = sharded.publish_batch_events(&events);
                assert_eq!(batched, single, "kind={kind} shards={shards} round={round}");
            }

            for (i, (a, b)) in live.iter().enumerate() {
                assert_eq!(
                    a.drain().len(),
                    b.drain().len(),
                    "survivor {i}, kind={kind} shards={shards}"
                );
            }
            assert_eq!(
                flat.stats().notifications_delivered,
                sharded.stats().notifications_delivered
            );
            if shards > 1 {
                let prunes: u64 = sharded.shard_prune_counts().iter().sum();
                assert!(
                    prunes > 0,
                    "batch pruning never fired: kind={kind} shards={shards}"
                );
            }
        }
    }
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

/// The background thread, racing real publishes and a live resize:
/// at-most-once delivery per event per subscriber, queues reconcile
/// exactly with the broker's counters, and once everything is
/// quiescent delivery is exact again.
#[test]
fn background_rebalance_races_publishes_and_resize_safely() {
    let broker = Broker::builder()
        .shards(4)
        .recycled_ids()
        .background_rebalance(Duration::from_millis(1), RebalancePolicy::MatchFrequency)
        .build();
    assert!(broker.background_rebalance_active());
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
    thread::scope(|scope| {
        let publisher = {
            let broker = broker.clone();
            scope.spawn(move || {
                for _ in 0..publishes {
                    broker.publish(ev(&[("tick", 1)]));
                    thread::yield_now();
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

/// Broker resize composes with everything the engine-level resize
/// already guaranteed: grow → spread → shrink under a churning live
/// list, with ids stable throughout (arrival-order mode here, so ids
/// can be checked against a flat broker's).
#[test]
fn broker_resize_keeps_flat_alignment_in_arrival_order_mode() {
    let flat = Broker::builder().build();
    let sharded = Broker::builder().shards(3).build();
    let mut flat_live: Vec<Subscription> = Vec::new();
    let mut sharded_live: Vec<Subscription> = Vec::new();
    let mut scenario = RebalanceScenario::new(61, 30, 3)
        .with_rebalance_every(29)
        .with_resize_every(67);

    for (step, op) in scenario.ops(600).into_iter().enumerate() {
        match op {
            RebalanceOp::Churn(ChurnOp::Subscribe(expr)) => {
                let a = flat.subscribe_expr(&expr).unwrap();
                let b = sharded.subscribe_expr(&expr).unwrap();
                assert_eq!(a.id(), b.id(), "arrival-order ids diverge at {step}");
                flat_live.push(a);
                sharded_live.push(b);
            }
            RebalanceOp::Churn(ChurnOp::Unsubscribe(i)) => {
                drop(flat_live.remove(i));
                drop(sharded_live.remove(i));
            }
            RebalanceOp::Churn(ChurnOp::Publish(event)) => {
                assert_eq!(
                    flat.publish(event.clone()),
                    sharded.publish(event),
                    "step {step}"
                );
            }
            RebalanceOp::Rebalance => {
                sharded.rebalance();
            }
            RebalanceOp::Resize(n) => {
                sharded.resize(n);
                assert_eq!(sharded.shard_count(), n);
            }
        }
    }
    for (i, (a, b)) in flat_live.iter().zip(&sharded_live).enumerate() {
        assert_eq!(a.drain().len(), b.drain().len(), "survivor {i}");
    }
    assert_eq!(
        flat.stats().notifications_delivered,
        sharded.stats().notifications_delivered
    );
}
