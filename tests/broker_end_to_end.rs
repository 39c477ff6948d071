//! End-to-end broker tests: threads, delivery policies, churn.

use std::thread;
use std::time::Duration;

use boolmatch::prelude::*;
use boolmatch::workload::scenarios::StockScenario;

#[test]
fn concurrent_publishers_subscribers_and_churn() {
    let broker = Broker::builder().engine(EngineKind::NonCanonical).build();
    let mut scenario = StockScenario::new(3);

    let stable: Vec<Subscription> = scenario
        .subscriptions(50)
        .iter()
        .map(|e| broker.subscribe_expr(e).unwrap())
        .collect();

    // Churn thread: subscribes and drops handles continuously.
    let churn_broker = broker.clone();
    let churner = thread::spawn(move || {
        let mut s = StockScenario::new(4);
        for _ in 0..200 {
            let subs: Vec<Subscription> = s
                .subscriptions(5)
                .iter()
                .map(|e| churn_broker.subscribe_expr(e).unwrap())
                .collect();
            drop(subs);
        }
    });

    // Publisher threads.
    let mut publishers = Vec::new();
    for p in 0..3 {
        let publisher = broker.clone();
        publishers.push(thread::spawn(move || {
            let mut feed = StockScenario::new(100 + p);
            for _ in 0..500 {
                publisher.publish(feed.tick());
            }
        }));
    }

    churner.join().unwrap();
    for p in publishers {
        p.join().unwrap();
    }

    // After churn, exactly the stable subscriptions remain.
    assert_eq!(broker.subscription_count(), 50);
    let stats = broker.stats();
    assert_eq!(stats.events_published, 1_500);
    assert_eq!(stats.subscriptions_created, 50 + 200 * 5);
    assert_eq!(stats.subscriptions_removed, 200 * 5);
    drop(stable);
    assert_eq!(broker.subscription_count(), 0);
}

#[test]
fn bounded_delivery_backpressure() {
    let broker = Broker::builder()
        .delivery(DeliveryPolicy::DropNewest { capacity: 3 })
        .build();
    let sub = broker.subscribe("n >= 0").unwrap();
    for i in 0..10 {
        broker.publish(Event::builder().attr("n", i as i64).build());
    }
    // Only the first three queued; seven dropped.
    assert_eq!(sub.len(), 3);
    assert_eq!(broker.stats().notifications_dropped, 7);
    let first = sub.recv_timeout(Duration::from_millis(100)).unwrap();
    assert_eq!(first.get("n"), Some(&0_i64.into()));
}

#[test]
fn canonical_engine_rejections_surface_through_broker() {
    // A counting broker must refuse a subscription whose DNF explodes.
    let broker = Broker::builder().engine(EngineKind::Counting).build();
    let wide: Vec<String> = (0..40).map(|i| format!("(a{i} = 1 or b{i} = 2)")).collect();
    let monster = wide.join(" and ");
    match broker.subscribe(&monster) {
        Err(BrokerError::Subscribe(e)) => {
            assert!(e.to_string().contains("conjunctions"));
        }
        other => panic!("expected DNF rejection, got {other:?}"),
    }
    // The same subscription is fine on the non-canonical broker.
    let nc = Broker::builder().engine(EngineKind::NonCanonical).build();
    assert!(nc.subscribe(&monster).is_ok());
}

#[test]
fn subscription_handles_work_across_threads() {
    let broker = Broker::builder().build();
    let sub = broker.subscribe("go = true").unwrap();
    let publisher = broker.clone();
    let t = thread::spawn(move || publisher.publish(Event::builder().attr("go", true).build()));
    let got = sub.recv_timeout(Duration::from_secs(5)).expect("delivery");
    assert_eq!(got.get("go"), Some(&true.into()));
    assert_eq!(t.join().unwrap(), 1);
}
