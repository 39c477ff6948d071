//! Load-aware rebalancing, live migration and shard resizing — the
//! concurrency and placement claims, proven without relying on timing.
//! (What a rebalancing, resizing broker delivers, and the `max − min ≤
//! 1` invariant after `rebalance()`, are checked in
//! `tests/oracle_matrix.rs`; that a migration holding one shard pair's
//! write locks does not block matching on any other shard, in
//! `tests/lock_scope.rs`.)
//!
//! * **Churn-skew regression** — a shard drained by unsubscribes must
//!   be refilled by new subscriptions (the old blind round-robin
//!   cursor kept striding past it). CI runs this one under `--release`
//!   too.
//! * **Race window** — publishes racing live migration deliver each
//!   event to a subscriber at most once, never to a nonexistent
//!   subscriber, and exactly once again when migration is quiescent.
//! * **What moves** — a migrated subscription is re-subscribed from the
//!   expression its source engine gives back, and receives the same
//!   events after the move as before, on every engine kind and from a
//!   counting shard onto a non-canonical one.

use std::sync::Arc;
use std::thread;

use boolmatch::core::ShardedEngine;
use boolmatch::prelude::*;
use boolmatch::workload::scenarios::TreeScenario;

/// The churn-skew regression (run under `--release` in CI too): drain
/// one shard via unsubscribes, then assert new subscriptions refill it
/// instead of striding past it — at the engine and the broker layer.
#[test]
fn churn_skew_drained_shard_is_refilled() {
    // Engine layer.
    let mut engine = ShardedEngine::new(EngineKind::NonCanonical, 4);
    let exprs: Vec<Expr> = (0..16)
        .map(|i| Expr::parse(&format!("a = {i}")).unwrap())
        .collect();
    let ids: Vec<_> = exprs[..12]
        .iter()
        .map(|e| engine.subscribe(e).unwrap())
        .collect();
    for &i in &[2usize, 6, 10] {
        engine.unsubscribe(ids[i]).unwrap(); // shard 2's residents
    }
    assert_eq!(engine.directory().loads(), &[3, 3, 0, 3]);
    for e in &exprs[12..15] {
        let id = engine.subscribe(e).unwrap();
        assert_eq!(
            engine.directory().placement_of(id).unwrap().0,
            2,
            "new subscriptions must refill the drained shard"
        );
    }
    assert_eq!(engine.directory().loads(), &[3, 3, 3, 3]);

    // Broker layer, including delivery through the refilled shard.
    let broker = Broker::builder().shards(4).build();
    let mut subs: Vec<_> = (0..12)
        .map(|i| broker.subscribe(&format!("a = {i}")).unwrap())
        .collect();
    for &i in &[10usize, 6, 2] {
        drop(subs.remove(i));
    }
    assert_eq!(broker.shard_loads(), vec![3, 3, 0, 3]);
    let refill: Vec<_> = (12..15)
        .map(|i| broker.subscribe(&format!("a = {i}")).unwrap())
        .collect();
    assert_eq!(broker.shard_loads(), vec![3, 3, 3, 3]);
    assert_eq!(
        broker.publish(Event::builder().attr("a", 14_i64).build()),
        1
    );
    assert_eq!(refill[2].drain().len(), 1);
}

/// Publishes racing live migration: a subscriber must never receive
/// one event twice (the publish could otherwise see a migrating
/// subscription on both its source and target shard), every delivered
/// notification must belong to a real subscriber, and once migration
/// is quiescent delivery is exact again. This is the concurrent
/// execution of the at-most-once window documented on
/// `Broker::migrate`; the single-threaded replays of
/// `tests/oracle_matrix.rs` cannot reach these interleavings.
#[test]
fn publish_racing_migration_delivers_at_most_once() {
    let broker = Broker::builder().shards(4).build();
    // 80 subscriptions that all match every event; dropping the ones
    // on shards 1 and 2 (arrivals ≡ 1, 2 mod 4) skews the survivors
    // onto shards 0 and 3, giving the migrator real work.
    let mut subs: Vec<Subscription> = (0..80)
        .map(|_| broker.subscribe("tick = 1").unwrap())
        .collect();
    for i in (0..subs.len()).rev() {
        if i % 4 == 1 || i % 4 == 2 {
            drop(subs.remove(i));
        }
    }
    assert_eq!(broker.shard_loads(), vec![20, 0, 0, 20]);

    let publishes = 400usize;
    thread::scope(|scope| {
        let migrator = {
            let broker = broker.clone();
            scope.spawn(move || {
                let mut moved = 0usize;
                loop {
                    let step = broker.migrate(1);
                    if step == 0 {
                        break;
                    }
                    moved += step;
                    // Timing-free: the yield only widens the race
                    // window. Every assertion below holds under any
                    // interleaving, fully serialised ones included —
                    // the skew guarantees the first `migrate(1)` moves.
                    thread::yield_now();
                }
                moved
            })
        };
        let publisher = {
            let broker = broker.clone();
            scope.spawn(move || {
                for _ in 0..publishes {
                    broker.publish(Event::builder().attr("tick", 1_i64).build());
                    // Widens the race window only (see the migrator).
                    thread::yield_now();
                }
            })
        };
        publisher.join().unwrap();
        assert!(migrator.join().unwrap() >= 1, "migration actually ran");
    });
    let loads = broker.shard_loads();
    assert!(
        loads.iter().max().unwrap() - loads.iter().min().unwrap() <= 1,
        "balanced: {loads:?}"
    );

    // At-most-once per event per subscriber, and no phantom deliveries:
    // the drained queues reconcile exactly with the broker's counter.
    let mut total_drained = 0u64;
    for (i, sub) in subs.iter().enumerate() {
        let got = sub.drain().len();
        assert!(got <= publishes, "subscriber {i} got {got} > {publishes}");
        total_drained += got as u64;
    }
    assert_eq!(total_drained, broker.stats().notifications_delivered);

    // Quiescent again: delivery is exact.
    assert_eq!(
        broker.publish(Event::builder().attr("tick", 1_i64).build()),
        subs.len()
    );
    for sub in &subs {
        assert_eq!(sub.drain().len(), 1);
    }
}

/// Corners beside the generated trees: a negated leaf (stored as its
/// complement), a duplicated leaf, and string, bool and float
/// constants.
const CORNERS: [&str; 4] = [
    "not (x0 = 1)",
    "x1 = 1 and (x1 = 1 or x2 = 2)",
    "s = \"ab\" and (b = true or f > 1.5)",
    "not (s prefix \"ab\" and x3 != 2) or f <= 0.5",
];

/// `count` subscriptions: the corners, then generated trees.
fn corpus(scenario: &mut TreeScenario, count: usize) -> Vec<Expr> {
    let mut exprs: Vec<Expr> = CORNERS.iter().map(|t| Expr::parse(t).unwrap()).collect();
    exprs.extend((CORNERS.len()..count).map(|_| scenario.subscription()));
    exprs
}

/// Publishes `events` and returns what each subscriber received.
fn deliveries(broker: &Broker, subs: &[Subscription], events: &[Event]) -> Vec<Vec<Arc<Event>>> {
    for event in events {
        broker.publish(event.clone());
    }
    subs.iter().map(|sub| sub.drain()).collect()
}

/// Every subscriber of `broker` — all on shard 0, shard 1 empty —
/// receives the same events after `rebalance` moved half of them onto
/// shard 1 as before.
fn assert_rebalance_keeps_deliveries(broker: &Broker, subs: &[Subscription], events: &[Event]) {
    assert_eq!(broker.shard_loads(), vec![subs.len(), 0]);
    let before = deliveries(broker, subs, events);
    assert!(
        before.iter().any(|got| !got.is_empty()),
        "something matched"
    );
    assert_eq!(broker.rebalance(), subs.len() / 2);
    assert_eq!(
        broker.shard_loads(),
        vec![subs.len() - subs.len() / 2, subs.len() / 2]
    );
    let after = deliveries(broker, subs, events);
    for (i, (before, after)) in before.iter().zip(&after).enumerate() {
        assert_eq!(
            before, after,
            "subscriber {i} received other events after its move"
        );
    }
}

#[test]
fn a_migrated_subscription_matches_what_it_matched_before() {
    for kind in EngineKind::ALL {
        let mut scenario = TreeScenario::new(2005);
        let broker = Broker::builder().engine(kind).build();
        let subs: Vec<Subscription> = corpus(&mut scenario, 40)
            .iter()
            .map(|e| broker.subscribe_expr(e).unwrap())
            .collect();
        let events: Vec<Event> = (0..48).map(|_| scenario.event()).collect();
        assert_eq!(broker.resize(2), 0, "growing moves nothing");
        assert_rebalance_keeps_deliveries(&broker, &subs, &events);
    }
}

/// Half the subscribers of a `from` shard migrate onto an empty `to`
/// shard and receive what they received before: every kind answers the
/// expression the other gives back the same way.
fn assert_migration_across_kinds_keeps_deliveries(from: EngineKind, to: EngineKind) {
    let mut scenario = TreeScenario::new(7);
    let broker = Broker::builder()
        .engine_instances(vec![from.build(), to.build()])
        .build();
    // Least-loaded placement alternates the two shards; dropping every
    // odd arrival empties the `to` shard.
    let mut subs: Vec<Subscription> = corpus(&mut scenario, 60)
        .iter()
        .map(|e| broker.subscribe_expr(e).unwrap())
        .collect();
    let mut index = 0;
    subs.retain(|_| {
        index += 1;
        index % 2 == 1
    });
    let events: Vec<Event> = (0..48).map(|_| scenario.event()).collect();
    assert_rebalance_keeps_deliveries(&broker, &subs, &events);
}

#[test]
fn a_counting_shard_migrates_onto_a_non_canonical_one() {
    assert_migration_across_kinds_keeps_deliveries(EngineKind::Counting, EngineKind::NonCanonical);
}

#[test]
fn a_non_canonical_shard_migrates_onto_a_counting_one() {
    assert_migration_across_kinds_keeps_deliveries(EngineKind::NonCanonical, EngineKind::Counting);
}
