//! Stock-ticker demo: concurrent publishers feeding a broker, many
//! subscribers with non-canonical (alternative-rich) interests.
//!
//! This is the workload class the paper's introduction motivates:
//! subscribers on "laptops and mobile devices" with interests like
//! "IBM breaks out above 120 *or* dips under 80, with enough volume" —
//! disjunctions that conjunctive-only matchers cannot register without
//! a blow-up.
//!
//! Run with: `cargo run --example stock_ticker`

use std::thread;
use std::time::Duration;

use boolmatch::prelude::*;
use boolmatch::workload::scenarios::StockScenario;

const SUBSCRIBERS: usize = 200;
const PUBLISHERS: usize = 3;
const TICKS_PER_PUBLISHER: usize = 2_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let broker = Broker::builder()
        .engine(EngineKind::NonCanonical)
        // Slow consumers drop rather than stall the market feed.
        .delivery(DeliveryPolicy::DropNewest { capacity: 1_024 })
        .build();

    // Register subscribers with generated, deliberately disjunctive
    // interests.
    let mut scenario = StockScenario::new(2005);
    let mut subscriptions = Vec::with_capacity(SUBSCRIBERS);
    for _ in 0..SUBSCRIBERS {
        let expr = scenario.subscription();
        subscriptions.push(broker.subscribe_expr(&expr)?);
    }
    println!(
        "registered {} subscriptions ({} distinct predicates in the engine)",
        broker.subscription_count(),
        broker.memory_usage().predicates / 64 // rough count, for flavour
    );

    // Publisher threads feed ticks concurrently.
    let mut handles = Vec::new();
    for p in 0..PUBLISHERS {
        let publisher = broker.clone();
        handles.push(thread::spawn(move || {
            let mut feed = StockScenario::new(9_000 + p as u64);
            let mut delivered = 0usize;
            for _ in 0..TICKS_PER_PUBLISHER {
                delivered += publisher.publish(feed.tick());
            }
            delivered
        }));
    }

    // A consumer thread drains one subscriber live.
    let watched = subscriptions.pop().expect("at least one subscription");
    let consumer = thread::spawn(move || {
        let mut seen = 0usize;
        while let Some(note) = watched.recv_timeout(Duration::from_millis(200)) {
            if seen < 3 {
                println!("watched subscriber notified: {note}");
            }
            seen += 1;
        }
        seen
    });

    let mut delivered_total = 0usize;
    for h in handles {
        delivered_total += h.join().expect("publisher thread");
    }
    let watched_count = consumer.join().expect("consumer thread");

    let stats = broker.stats();
    println!("--------------------------------------------------");
    println!("ticks published          : {}", stats.events_published);
    println!("notifications delivered  : {delivered_total}");
    println!("notifications dropped    : {}", stats.notifications_dropped);
    println!("watched subscriber saw   : {watched_count} notifications");
    println!(
        "engine memory (total)    : {:.1} MiB",
        broker.memory_usage().total() as f64 / (1024.0 * 1024.0)
    );
    Ok(())
}
