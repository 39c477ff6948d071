//! Concurrency stress: many publisher threads matching under the
//! engine's read lock while subscribe/unsubscribe churn takes the
//! write lock — the shared-read matching API's integration test.
//!
//! Correctness bar: subscriptions that exist for the whole run receive
//! **exactly** the notifications their expressions select — no lost
//! and no duplicate deliveries — and `BrokerStats` counters reconcile
//! with what the subscribers actually observed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::Duration;

use boolmatch::core::{
    FilterEngine, FulfilledSet, MatchScratch, MatchStats, MemoryUsage, SubscribeError,
    UnsubscribeError,
};
use boolmatch::expr::Expr;
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

/// A latch that `phase1` blocks on until `expected` threads are inside
/// matching at the same time — possible only if `Broker::publish`
/// matches under a shared (read) lock.
struct Gate {
    inside: Mutex<usize>,
    all_in: Condvar,
    expected: usize,
}

impl Gate {
    fn new(expected: usize) -> Self {
        Gate {
            inside: Mutex::new(0),
            all_in: Condvar::new(),
            expected,
        }
    }

    /// Returns whether all `expected` threads arrived within 10s.
    fn enter(&self) -> bool {
        let mut inside = self.inside.lock().unwrap();
        *inside += 1;
        self.all_in.notify_all();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while *inside < self.expected {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self.all_in.wait_timeout(inside, deadline - now).unwrap();
            inside = guard;
        }
        true
    }
}

/// An engine whose matching blocks on the gate; everything else is a
/// minimal no-op implementation.
struct GateEngine {
    gate: std::sync::Arc<Gate>,
    subs: usize,
}

impl FilterEngine for GateEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::NonCanonical
    }

    fn subscribe(&mut self, _expr: &Expr) -> Result<SubscriptionId, SubscribeError> {
        self.subs += 1;
        Ok(SubscriptionId::from_index(self.subs - 1))
    }

    fn unsubscribe(&mut self, _id: SubscriptionId) -> Result<(), UnsubscribeError> {
        Ok(())
    }

    fn expression(&self, _id: SubscriptionId) -> Option<Expr> {
        None
    }

    fn phase1(&self, _event: &Event, out: &mut FulfilledSet) {
        assert!(
            self.gate.enter(),
            "publishers never overlapped inside matching: publish is \
             holding an exclusive engine lock"
        );
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
        self.subs
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

/// The lock-level proof that matching is shared-read: N publishers must
/// be inside `phase1` simultaneously before any of them may leave.
/// Under the old write-lock publish path this deadlocks (and fails via
/// the gate's timeout) even on a single-core host, so it demonstrates
/// what a wall-clock measurement can only show on multi-core
/// machines.
#[test]
fn publishers_match_inside_the_engine_simultaneously() {
    const PUBLISHERS: usize = 4;
    let gate = std::sync::Arc::new(Gate::new(PUBLISHERS));
    let broker = Broker::builder()
        .engine_instances(vec![Box::new(GateEngine {
            gate: gate.clone(),
            subs: 0,
        })])
        .build();

    thread::scope(|scope| {
        for _ in 0..PUBLISHERS {
            let publisher = broker.clone();
            scope.spawn(move || {
                publisher.publish(Event::builder().attr("n", 1_i64).build());
            });
        }
    });
    assert_eq!(broker.stats().events_published, PUBLISHERS as u64);
}

/// Publishers on different threads must see scaling-friendly behaviour
/// functionally: concurrent matching over one shared engine returns
/// the same matches a serial run would.
#[test]
fn concurrent_matching_agrees_with_serial_matching() {
    for kind in EngineKind::ALL {
        let serial = Broker::builder().engine(kind).build();
        let concurrent = Broker::builder().engine(kind).build();
        let exprs: Vec<String> = (0..64)
            .map(|i| format!("group = {} and tick >= {}", i % 8, i * 10))
            .collect();
        let serial_subs: Vec<Subscription> =
            exprs.iter().map(|e| serial.subscribe(e).unwrap()).collect();
        let concurrent_subs: Vec<Subscription> = exprs
            .iter()
            .map(|e| concurrent.subscribe(e).unwrap())
            .collect();

        let events: Vec<Event> = (0..512)
            .map(|i| {
                Event::builder()
                    .attr("group", (i % 8) as i64)
                    .attr("tick", (i * 3 % 700) as i64)
                    .build()
            })
            .collect();

        for ev in &events {
            serial.publish(ev.clone());
        }
        thread::scope(|scope| {
            for chunk in events.chunks(events.len() / 4) {
                let publisher = concurrent.clone();
                scope.spawn(move || {
                    for ev in chunk {
                        publisher.publish(ev.clone());
                    }
                });
            }
        });

        for (i, (s, c)) in serial_subs.iter().zip(&concurrent_subs).enumerate() {
            assert_eq!(
                s.drain().len(),
                c.drain().len(),
                "subscription {i} disagrees on {kind}"
            );
        }
        assert_eq!(
            serial.stats().notifications_delivered,
            concurrent.stats().notifications_delivered,
            "{kind}"
        );
    }
}
