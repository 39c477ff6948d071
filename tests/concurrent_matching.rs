//! Concurrency stress: many publisher threads matching under the
//! engine's read lock while subscribe/unsubscribe churn takes the
//! write lock — the shared-read matching API's integration test.
//!
//! Correctness bar: subscriptions that exist for the whole run receive
//! **exactly** the notifications their expressions select — no lost
//! and no duplicate deliveries — and `BrokerStats` counters reconcile
//! with what the subscribers actually observed. The lock-level proof
//! that publishers are inside one engine at once is
//! `tests/lock_scope.rs::publishers_match_inside_the_engine_simultaneously`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use boolmatch::prelude::*;

const PUBLISHERS: usize = 4;
const EVENTS_PER_PUBLISHER: usize = 400;
const CHURN_ROUNDS: usize = 120;
const CHURN_BATCH: usize = 4;

fn event(n: i64) -> Event {
    Event::builder()
        .attr("tick", n)
        .attr("parity", n % 2)
        .build()
}

/// Runs the stress workload and checks exact delivery on one broker.
fn stress(kind: EngineKind) {
    let broker = Broker::builder().engine(kind).build();

    // Stable subscriptions with exactly predictable selectivity.
    let all = broker.subscribe("tick >= 0").unwrap();
    let evens = broker.subscribe("parity = 0 and tick >= 0").unwrap();
    let none = broker.subscribe("tick < 0").unwrap();

    let published = AtomicUsize::new(0);
    thread::scope(|scope| {
        // Churn: registers batches of never-matching subscriptions and
        // drops them, forcing write-lock acquisitions (predicate
        // interning, association-table edits, arena churn) interleaved
        // with the publishers' read-lock matching.
        for c in 0..2 {
            let broker = broker.clone();
            scope.spawn(move || {
                for round in 0..CHURN_ROUNDS {
                    let subs: Vec<Subscription> = (0..CHURN_BATCH)
                        .map(|i| {
                            let expr = format!("churn{c}_{i} = {} and tick < 0", round % 7);
                            broker.subscribe(&expr).unwrap()
                        })
                        .collect();
                    drop(subs);
                }
            });
        }

        for p in 0..PUBLISHERS {
            let publisher = broker.clone();
            let published = &published;
            scope.spawn(move || {
                for i in 0..EVENTS_PER_PUBLISHER {
                    let n = (p * EVENTS_PER_PUBLISHER + i) as i64;
                    let delivered = publisher.publish(event(n));
                    // `all` and (for even ticks) `evens` always match.
                    assert!(
                        delivered > usize::from(n % 2 == 0),
                        "event {n} under-delivered ({delivered}) on {kind}"
                    );
                    // ordering: pure tally; the scope join below
                    // happens-before the final load.
                    published.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    // ordering: read after the scope join; all writers are done.
    let total = published.load(Ordering::Relaxed);
    assert_eq!(total, PUBLISHERS * EVENTS_PER_PUBLISHER);

    // Exact delivery: no lost, no duplicate notifications.
    let got_all = all.drain();
    let got_evens = evens.drain();
    assert_eq!(got_all.len(), total, "tick >= 0 sees every event on {kind}");
    assert_eq!(
        got_evens.len(),
        total / 2,
        "parity = 0 sees exactly the even half on {kind}"
    );
    assert_eq!(none.drain().len(), 0, "tick < 0 sees nothing on {kind}");

    // Each event id arrives exactly once at each matching subscriber.
    let mut ticks: Vec<i64> = got_all
        .iter()
        .map(|e| e.get("tick").and_then(Value::as_int).unwrap())
        .collect();
    ticks.sort_unstable();
    ticks.dedup();
    assert_eq!(ticks.len(), total, "duplicate or lost ticks on {kind}");

    // Counters reconcile with observations: churn subscriptions never
    // match, so every delivered notification was observed above.
    let stats = broker.stats();
    assert_eq!(stats.events_published, total as u64);
    assert_eq!(stats.notifications_delivered, (total + total / 2) as u64);
    assert_eq!(stats.notifications_dropped, 0);
    assert_eq!(
        stats.subscriptions_created,
        3 + (2 * CHURN_ROUNDS * CHURN_BATCH) as u64
    );
    assert_eq!(
        stats.subscriptions_removed,
        (2 * CHURN_ROUNDS * CHURN_BATCH) as u64
    );
    assert_eq!(broker.subscription_count(), 3);

    // The engine stays fully usable after the churn.
    let late = broker.subscribe("tick = 123456").unwrap();
    assert_eq!(broker.publish(event(123_456)), 3); // `all` + `evens` + `late`
    assert_eq!(late.drain().len(), 1);
}

#[test]
fn noncanonical_engine_survives_concurrent_churn() {
    stress(EngineKind::NonCanonical);
}

#[test]
fn counting_engine_survives_concurrent_churn() {
    stress(EngineKind::Counting);
}

#[test]
fn counting_variant_engine_survives_concurrent_churn() {
    stress(EngineKind::CountingVariant);
}

/// Concurrent publishers over one shared engine deliver what the oracle
/// accepts: each subscriber receives exactly the ticks for which
/// `Expr::eval_event` (evaluated serially, one event at a time) holds
/// its expression, on every engine kind.
#[test]
fn concurrent_matching_agrees_with_serial_matching() {
    let exprs: Vec<Expr> = (0..64)
        .map(|i| Expr::parse(&format!("group = {} and tick >= {}", i % 8, i * 10)).unwrap())
        .collect();
    // 3 is coprime to 700, so the 512 ticks are distinct.
    let events: Vec<Event> = (0..512)
        .map(|i| {
            Event::builder()
                .attr("group", (i % 8) as i64)
                .attr("tick", (i * 3 % 700) as i64)
                .build()
        })
        .collect();
    let tick = |e: &Event| e.get("tick").and_then(Value::as_int).unwrap();

    for kind in EngineKind::ALL {
        let broker = Broker::builder().engine(kind).build();
        let subs: Vec<Subscription> = exprs
            .iter()
            .map(|e| broker.subscribe_expr(e).unwrap())
            .collect();
        thread::scope(|scope| {
            for chunk in events.chunks(events.len() / 4) {
                let publisher = broker.clone();
                scope.spawn(move || {
                    for ev in chunk {
                        publisher.publish(ev.clone());
                    }
                });
            }
        });

        for (i, (expr, sub)) in exprs.iter().zip(&subs).enumerate() {
            let mut got: Vec<i64> = sub.drain().iter().map(|e| tick(e)).collect();
            got.sort_unstable();
            let mut want: Vec<i64> = events
                .iter()
                .filter(|e| expr.eval_event(e))
                .map(tick)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "subscription {i} `{expr}` on {kind}");
        }
    }
}
