//! The asynchronous delivery tier, end to end: overflow policies,
//! stalled consumers, quarantine, panic isolation and disconnect
//! accounting — plus the scripted fault-injection harness from
//! `boolmatch-workload`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use boolmatch::prelude::*;
use boolmatch::workload::scenarios::{
    ConsumerDirective, FaultAction, FaultDriver, FaultEvent, FaultPlan, SlowConsumerScenario,
};

fn seq_event(seq: i64) -> Event {
    Event::builder()
        .attr("feed", 1_i64)
        .attr("seq", seq)
        .build()
}

fn seq_of(event: &Event) -> i64 {
    event.get("seq").and_then(Value::as_int).unwrap()
}

/// A one-shot gate consumer callbacks can park on.
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

    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// Opens the latch when dropped. Declared after the broker it is
/// dropped first, so an assertion that fires while callbacks are parked
/// fails the test instead of hanging in the broker's teardown, which
/// waits for those callbacks.
struct OpenOnDrop(Arc<Latch>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.release();
    }
}

fn spin_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if done() {
            return true;
        }
        thread::sleep(Duration::from_millis(2));
    }
    done()
}

// ---------------------------------------------------------------------
// Overflow policies at the broker level
// ---------------------------------------------------------------------

#[test]
fn drop_newest_keeps_the_oldest_and_bounds_memory() {
    let broker = Broker::builder().build();
    let sub = broker
        .subscribe_with_policy("feed >= 0", DeliveryPolicy::DropNewest { capacity: 3 })
        .unwrap();
    for seq in 0..10 {
        broker.publish(seq_event(seq));
    }
    let lag = sub.lag();
    assert_eq!((lag.queued, lag.enqueued, lag.dropped), (3, 3, 7));
    let seqs: Vec<i64> = sub.drain().iter().map(|e| seq_of(e)).collect();
    assert_eq!(seqs, vec![0, 1, 2]);
    assert_eq!(broker.stats().notifications_dropped, 7);
}

#[test]
fn drop_oldest_keeps_the_freshest() {
    let broker = Broker::builder().build();
    let sub = broker
        .subscribe_with_policy("feed >= 0", DeliveryPolicy::DropOldest { capacity: 3 })
        .unwrap();
    for seq in 0..10 {
        broker.publish(seq_event(seq));
    }
    let seqs: Vec<i64> = sub.drain().iter().map(|e| seq_of(e)).collect();
    assert_eq!(seqs, vec![7, 8, 9]);
    // Evictions are visible per subscriber, not as broker-level drops
    // (the notification *was* accepted at enqueue time).
    assert_eq!(sub.lag().dropped, 7);
    assert_eq!(broker.stats().notifications_dropped, 0);
}

#[test]
fn disconnect_policy_severs_the_subscriber_on_overflow() {
    let broker = Broker::builder().build();
    let sub = broker
        .subscribe_with_policy("feed >= 0", DeliveryPolicy::Disconnect { capacity: 2 })
        .unwrap();
    assert_eq!(broker.publish(seq_event(0)), 1);
    assert_eq!(broker.publish(seq_event(1)), 1);
    // The overflowing publish disconnects and unsubscribes — publisher
    // side, synchronously, without blocking.
    assert_eq!(broker.publish(seq_event(2)), 0);
    let stats = broker.stats();
    assert_eq!(stats.notifications_disconnected, 1);
    assert_eq!(stats.subscriptions_removed, 1);
    assert_eq!(broker.publish(seq_event(3)), 0, "subscription pruned");
    drop(sub);
}

#[test]
fn block_policy_applies_backpressure_then_times_out() {
    let broker = Broker::builder().build();
    let sub = broker
        .subscribe_with_policy(
            "feed >= 0",
            DeliveryPolicy::Block {
                capacity: 2,
                timeout: Duration::from_millis(150),
            },
        )
        .unwrap();
    broker.publish(seq_event(0));
    broker.publish(seq_event(1));

    // With the queue full and nobody draining, the publish waits out
    // its deadline and sheds instead of wedging the publisher. (A drain
    // freeing a parked publisher is pinned without sleeps by
    // `block_policy_waits_for_a_drain` in `delivery.rs`.)
    let start = Instant::now();
    assert_eq!(broker.publish(seq_event(2)), 0);
    assert!(start.elapsed() >= Duration::from_millis(150));
    assert_eq!(broker.stats().notifications_dropped, 1);
    assert_eq!(sub.len(), 2);
    assert_eq!(seq_of(&sub.recv().unwrap()), 0, "the queued two are kept");
}

// ---------------------------------------------------------------------
// Satellite 1 regression: disconnected-sender accounting
// ---------------------------------------------------------------------

#[test]
fn dropped_receiver_counts_disconnected_notifications() {
    let broker = Broker::builder().build();
    let sub = broker.subscribe("feed >= 0").unwrap();
    assert_eq!(broker.publish(seq_event(0)), 1);

    // Hand the delivery stream to a receiver, then drop it: the queue
    // closes but the subscription is still registered until the next
    // publish observes the closed queue.
    let receiver = sub.detach();
    drop(receiver);

    assert_eq!(broker.publish(seq_event(1)), 0);
    let stats = broker.stats();
    assert_eq!(
        stats.notifications_disconnected, 1,
        "the undeliverable notification is counted, not silently lost"
    );
    assert_eq!(stats.subscriptions_removed, 1);
    assert_eq!(broker.publish(seq_event(2)), 0);
    assert_eq!(broker.stats().notifications_disconnected, 1, "pruned once");
}

// ---------------------------------------------------------------------
// Satellite 3a: a fully stalled consumer blocks no publish path
// ---------------------------------------------------------------------

#[test]
fn stalled_consumer_blocks_no_publish_path() {
    // (label, broker, healthy neighbours) for every publish flavor: one
    // shard, two shards, and batch publishing — and one stalled
    // consumer beside 32 healthy ones, which a drainer that popped
    // several queues at once would starve behind the stalled one.
    let brokers = [
        ("flat", Broker::builder().shards(1).build(), 1),
        ("sharded", Broker::builder().shards(2).build(), 1),
        ("batch", Broker::builder().shards(1).build(), 1),
        ("flat x32", Broker::builder().shards(1).build(), 32),
    ];
    for (label, broker, neighbours) in brokers {
        let latch = Latch::new();
        let _open = OpenOnDrop(Arc::clone(&latch));
        let stalled_cap = 4;
        let stalled = {
            let latch = Arc::clone(&latch);
            broker
                .subscribe_consumer(
                    "feed >= 0",
                    DeliveryPolicy::DropNewest {
                        capacity: stalled_cap,
                    },
                    move |_| latch.wait(),
                )
                .unwrap()
        };
        let healthy_seen = Arc::new(AtomicU64::new(0));
        let healthy: Vec<Subscription> = (0..neighbours)
            .map(|_| {
                let seen = Arc::clone(&healthy_seen);
                broker
                    .subscribe_consumer("feed >= 0", DeliveryPolicy::Unbounded, move |_| {
                        seen.fetch_add(1, Ordering::SeqCst);
                    })
                    .unwrap()
            })
            .collect();

        let total = 64_u64;
        let start = Instant::now();
        if label == "batch" {
            let events: Vec<Arc<Event>> =
                (0..total as i64).map(|s| Arc::new(seq_event(s))).collect();
            broker.publish_batch(&events);
        } else {
            for seq in 0..total as i64 {
                broker.publish(seq_event(seq));
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{label}: publishes must never wait on the stalled consumer"
        );
        // Memory damage is bounded by the stalled queue's capacity...
        assert!(
            stalled.lag().queued <= stalled_cap,
            "{label}: stalled backlog exceeded its cap"
        );
        // ...and the healthy consumers are not starved by their
        // neighbour wedging one delivery worker.
        let expected = total * neighbours;
        assert!(
            spin_until(Duration::from_secs(5), || healthy_seen
                .load(Ordering::SeqCst)
                == expected),
            "{label}: healthy consumers saw {} of {expected}",
            healthy_seen.load(Ordering::SeqCst)
        );

        // Releasing the latch lets the stalled consumer finish what
        // its queue kept; the broker then shuts down cleanly.
        latch.release();
        assert!(
            spin_until(Duration::from_secs(5), || stalled.lag().queued == 0),
            "{label}: stalled consumer never drained after release"
        );
        drop((stalled, healthy));
    }
}

#[test]
fn drainer_jobs_are_bounded_by_delivery_workers() {
    // 64 consumers parked on a latch: the first publish schedules all
    // 64 queues, two drainers pop one each and wedge, and the other 62
    // stay on the ready list — so no later publish schedules anything.
    // One job per scheduled queue would have submitted 64.
    let broker = Broker::builder().delivery_workers(2).build();
    let latch = Latch::new();
    let _open = OpenOnDrop(Arc::clone(&latch));
    let seen: Arc<Vec<Mutex<Vec<i64>>>> =
        Arc::new((0..64).map(|_| Mutex::new(Vec::new())).collect());
    let subs: Vec<Subscription> = (0..64)
        .map(|slot| {
            let latch = Arc::clone(&latch);
            let seen = Arc::clone(&seen);
            broker
                .subscribe_consumer("feed >= 0", DeliveryPolicy::Unbounded, move |event| {
                    latch.wait();
                    seen[slot].lock().unwrap().push(seq_of(&event));
                })
                .unwrap()
        })
        .collect();
    for seq in 0..8 {
        assert_eq!(broker.publish(seq_event(seq)), 64);
    }
    assert_eq!(broker.stats().drain_jobs, 2);

    latch.release();
    let arrived = || seen.iter().map(|s| s.lock().unwrap().len()).sum::<usize>();
    assert!(
        spin_until(Duration::from_secs(10), || arrived() == 512),
        "only {} of 512 notifications arrived",
        arrived()
    );
    for (slot, got) in seen.iter().enumerate() {
        assert_eq!(
            *got.lock().unwrap(),
            (0..8).collect::<Vec<_>>(),
            "subscriber {slot} out of order"
        );
    }
    assert_eq!(broker.stats().drain_jobs, 2, "no publish, no job");
    drop(subs);
}

// ---------------------------------------------------------------------
// Consumer callbacks: FIFO order and panic isolation
// ---------------------------------------------------------------------

#[test]
fn consumer_callbacks_preserve_per_subscriber_fifo() {
    let broker = Broker::builder().delivery_workers(4).build();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sub = {
        let seen = Arc::clone(&seen);
        broker
            .subscribe_consumer("feed >= 0", DeliveryPolicy::Unbounded, move |event| {
                seen.lock().unwrap().push(seq_of(&event));
            })
            .unwrap()
    };
    let total = 200_i64;
    for seq in 0..total {
        broker.publish(seq_event(seq));
    }
    assert!(
        spin_until(Duration::from_secs(10), || seen.lock().unwrap().len()
            == total as usize),
        "only {} of {total} delivered",
        seen.lock().unwrap().len()
    );
    let seqs = seen.lock().unwrap().clone();
    assert_eq!(seqs, (0..total).collect::<Vec<_>>(), "order must hold");
    drop(sub);
}

#[test]
fn panicking_consumer_is_isolated_and_torn_down() {
    let broker = Broker::builder().build();
    let survivor_seen = Arc::new(AtomicU64::new(0));
    let survivor = {
        let seen = Arc::clone(&survivor_seen);
        broker
            .subscribe_consumer("feed >= 0", DeliveryPolicy::Unbounded, move |_| {
                seen.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap()
    };
    let doomed = broker
        .subscribe_consumer("feed >= 0", DeliveryPolicy::Unbounded, |event| {
            if seq_of(&event) == 2 {
                panic!("consumer bug");
            }
        })
        .unwrap();

    for seq in 0..6 {
        broker.publish(seq_event(seq));
    }
    assert!(
        spin_until(Duration::from_secs(5), || broker.stats().consumer_panics
            == 1),
        "the panic must be caught and counted"
    );
    // The panicking subscription is auto-unsubscribed; its neighbour
    // keeps receiving.
    assert!(spin_until(Duration::from_secs(5), || {
        broker.publish(seq_event(99)) == 1
    }));
    assert!(spin_until(Duration::from_secs(5), || survivor_seen
        .load(Ordering::SeqCst)
        >= 7));
    assert_eq!(broker.stats().consumer_panics, 1);
    drop((survivor, doomed));
}

// ---------------------------------------------------------------------
// Quarantine: demotion, recovery, auto-disconnect
// ---------------------------------------------------------------------

#[test]
fn quarantine_demotes_then_releases_a_recovering_consumer() {
    let config = QuarantineConfig {
        lag_watermark: 8,
        strikes: 2,
        quarantine_capacity: 4,
        auto_disconnect: false,
    };
    let broker = Broker::builder().quarantine(config).build();
    let laggard = broker.subscribe("feed >= 0").unwrap();
    for seq in 0..20 {
        broker.publish(seq_event(seq));
    }

    // Two consecutive over-watermark ticks demote; the backlog is
    // shed down to the quarantine cap, oldest first.
    assert_eq!(broker.delivery_maintenance_tick().demoted, 0);
    let report = broker.delivery_maintenance_tick();
    assert_eq!((report.demoted, report.recovered), (1, 0));
    let lag = laggard.lag();
    assert!(lag.quarantined);
    assert_eq!(lag.queued, 4);
    assert_eq!(broker.quarantined_count(), 1);
    assert_eq!(broker.stats().subscribers_quarantined, 1);
    let seqs: Vec<i64> = laggard.drain().iter().map(|e| seq_of(e)).collect();
    assert_eq!(seqs, vec![16, 17, 18, 19], "freshest events survive");

    // While quarantined the queue degrades to drop-newest at the cap.
    for seq in 100..110 {
        broker.publish(seq_event(seq));
    }
    assert_eq!(laggard.len(), 4);

    // Draining below watermark/2 for two consecutive ticks recovers.
    laggard.drain();
    assert_eq!(broker.delivery_maintenance_tick().recovered, 0);
    assert_eq!(broker.delivery_maintenance_tick().recovered, 1);
    assert!(!laggard.lag().quarantined);
    assert_eq!(broker.quarantined_count(), 0);
    assert_eq!(broker.stats().quarantine_recoveries, 1);
}

#[test]
fn quarantine_auto_disconnect_severs_instead_of_capping() {
    let config = QuarantineConfig {
        lag_watermark: 4,
        strikes: 1,
        quarantine_capacity: 2,
        auto_disconnect: true,
    };
    let broker = Broker::builder().quarantine(config).build();
    let laggard = broker.subscribe("feed >= 0").unwrap();
    for seq in 0..10 {
        broker.publish(seq_event(seq));
    }
    let report = broker.delivery_maintenance_tick();
    assert_eq!(report.disconnected, 1);
    let stats = broker.stats();
    assert_eq!(stats.subscribers_quarantined, 1);
    assert_eq!(stats.subscriptions_removed, 1);
    assert_eq!(broker.publish(seq_event(99)), 0, "subscriber is gone");
    drop(laggard);
}

// ---------------------------------------------------------------------
// The scripted fault-injection harness, replayed deterministically
// ---------------------------------------------------------------------

/// Per-subscriber (enqueued, dropped, drained) outcomes plus the
/// broker's (delivered, dropped, disconnected) counters.
type SessionOutcome = (Vec<(u64, u64, u64)>, (u64, u64, u64));

/// Runs one scripted slow-consumer session and returns its observable
/// outcome.
fn run_fault_session(seed: u64) -> SessionOutcome {
    const SUBSCRIBERS: usize = 8;
    const TICKS: u64 = 20;
    const EVENTS_PER_TICK: usize = 8;
    const CAP: usize = 32;

    let mut scenario = SlowConsumerScenario::new(seed);
    let broker = Broker::builder().shards(3).build();
    let mut subs: Vec<Option<Subscription>> = scenario
        .subscriptions(SUBSCRIBERS)
        .iter()
        .map(|e| {
            Some(
                broker
                    .subscribe_expr_with_policy(e, DeliveryPolicy::DropOldest { capacity: CAP })
                    .unwrap(),
            )
        })
        .collect();
    let mut drained = [0_u64; SUBSCRIBERS];

    let plan = FaultPlan::random(seed, SUBSCRIBERS, TICKS);
    let mut driver = FaultDriver::new(plan, SUBSCRIBERS, 4);
    let mut outcomes = vec![(0_u64, 0_u64, 0_u64); SUBSCRIBERS];

    for _ in 0..TICKS {
        let events: Vec<Arc<Event>> = scenario
            .events(EVENTS_PER_TICK)
            .into_iter()
            .map(Arc::new)
            .collect();
        broker.publish_batch(&events);
        for (i, directive) in driver.tick().into_iter().enumerate() {
            let Some(sub) = subs[i].as_ref() else {
                continue;
            };
            // Live queues can never exceed their policy cap, faults or
            // not.
            assert!(sub.lag().queued <= CAP, "subscriber {i} over cap");
            match directive {
                ConsumerDirective::Drain(n) => {
                    for _ in 0..n {
                        if sub.try_recv().is_none() {
                            break;
                        }
                        drained[i] += 1;
                    }
                }
                // A pull-side consumer "panicking" or disconnecting
                // both end in the handle going away; Disconnect drops
                // the receiver first so the publisher observes a
                // closed queue rather than a clean unsubscribe.
                ConsumerDirective::Disconnect => {
                    let sub = subs[i].take().unwrap();
                    outcomes[i] = (sub.lag().enqueued, sub.lag().dropped, drained[i]);
                    drop(sub.detach());
                }
                ConsumerDirective::Panic => {
                    let sub = subs[i].take().unwrap();
                    outcomes[i] = (sub.lag().enqueued, sub.lag().dropped, drained[i]);
                    drop(sub);
                }
            }
        }
    }
    for (i, sub) in subs.iter().enumerate() {
        if let Some(sub) = sub {
            let lag = sub.lag();
            outcomes[i] = (lag.enqueued, lag.dropped, drained[i]);
        }
    }
    let stats = broker.stats();
    (
        outcomes,
        (
            stats.notifications_delivered,
            stats.notifications_dropped,
            stats.notifications_disconnected,
        ),
    )
}

#[test]
fn fault_injection_sessions_replay_bit_identically() {
    let first = run_fault_session(1729);
    let second = run_fault_session(1729);
    assert_eq!(first, second, "same seed, same observable outcome");

    let (ref outcomes, (delivered, _dropped, _disconnected)) = first;
    assert!(delivered > 0, "healthy windows deliver");
    // Every subscriber was under full fan-out pressure the whole run.
    assert!(outcomes.iter().all(|(enqueued, _, _)| *enqueued > 0));

    let other = run_fault_session(42);
    assert_ne!(first.0, other.0, "different seed, different faults");
}

#[test]
fn scripted_stall_produces_bounded_lag_then_burst_recovers() {
    let broker = Broker::builder().build();
    let mut scenario = SlowConsumerScenario::new(5);
    let sub = broker
        .subscribe_expr_with_policy(
            &scenario.subscription(),
            DeliveryPolicy::DropOldest { capacity: 16 },
        )
        .unwrap();

    let plan = FaultPlan::scripted(vec![
        FaultEvent {
            tick: 2,
            subscriber: 0,
            action: FaultAction::Stall,
        },
        FaultEvent {
            tick: 6,
            subscriber: 0,
            action: FaultAction::Resume,
        },
        FaultEvent {
            tick: 6,
            subscriber: 0,
            action: FaultAction::Burst { drain: 64 },
        },
    ]);
    let mut driver = FaultDriver::new(plan, 1, 4);
    for _ in 0..8 {
        for event in scenario.events(4) {
            broker.publish(event);
        }
        let [directive] = driver.tick()[..] else {
            unreachable!()
        };
        if let ConsumerDirective::Drain(n) = directive {
            for _ in 0..n {
                if sub.try_recv().is_none() {
                    break;
                }
            }
        }
    }
    // Stall ticks 2..6 piled 4 events per tick against a cap of 16;
    // the resume burst cleared the backlog.
    assert_eq!(sub.len(), 0, "burst drained the stall backlog");
    assert!(sub.lag().enqueued >= 32);
}
