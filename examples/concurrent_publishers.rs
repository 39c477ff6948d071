//! Concurrent publishers over one broker — the shared-read matching
//! model in action: every publisher thread matches under the engine's
//! read lock with its own thread-local scratch.
//!
//! ```text
//! cargo run --release --example concurrent_publishers
//! ```

use std::time::Instant;

use boolmatch::prelude::*;
use boolmatch::workload::scenarios::StockScenario;

const PUBLISHERS: usize = 4;
const EVENTS_PER_PUBLISHER: usize = 10_000;
const SUBSCRIPTIONS: usize = 500;

fn main() {
    let broker = Broker::builder().engine(EngineKind::NonCanonical).build();

    let mut scenario = StockScenario::new(7);
    let subs: Vec<Subscription> = scenario
        .subscriptions(SUBSCRIPTIONS)
        .iter()
        .map(|e| broker.subscribe_expr(e).expect("accepted"))
        .collect();
    println!(
        "{} subscriptions registered on a {} broker",
        subs.len(),
        broker.engine_kind()
    );

    let start = Instant::now();
    std::thread::scope(|scope| {
        for p in 0..PUBLISHERS {
            let publisher = broker.clone();
            scope.spawn(move || {
                let mut feed = StockScenario::new(100 + p as u64);
                for _ in 0..EVENTS_PER_PUBLISHER {
                    publisher.publish(feed.tick());
                }
            });
        }
    });
    let elapsed = start.elapsed();

    let stats = broker.stats();
    let total = PUBLISHERS * EVENTS_PER_PUBLISHER;
    println!(
        "{total} events published by {PUBLISHERS} threads in {:.2?} \
         ({:.0} events/sec aggregate)",
        elapsed,
        total as f64 / elapsed.as_secs_f64()
    );
    println!(
        "delivered {} notifications ({:.1} per event)",
        stats.notifications_delivered,
        stats.notifications_delivered as f64 / total as f64
    );
    assert_eq!(stats.events_published, total as u64);
    let received: usize = subs.iter().map(|sub| sub.len()).sum();
    assert_eq!(received as u64, stats.notifications_delivered);
    println!("subscriber queues hold every delivered notification: OK");
}
