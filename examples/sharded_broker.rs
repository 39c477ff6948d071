//! Sharded broker: partition subscriptions across engine shards so
//! registration churn stops stalling publishers, and publish in
//! batches to amortise per-event overhead.
//!
//! Run with: `cargo run --example sharded_broker`

use boolmatch::prelude::*;
use boolmatch::workload::scenarios::{ChurnOp, ChurnScenario, StockScenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Four engine shards, each behind its own lock: a subscribe or
    // unsubscribe write-locks one shard while matching keeps running
    // on the other three. `shards(1)` (the default) is the classic
    // single-engine broker.
    let broker = Broker::builder()
        .engine(EngineKind::NonCanonical)
        .shards(4)
        .build();
    println!("broker with {} shards", broker.shard_count());

    // A stable audience of stock watchers...
    let mut stock = StockScenario::new(42);
    let watchers: Vec<Subscription> = stock
        .subscriptions(100)
        .iter()
        .map(|expr| broker.subscribe_expr(expr))
        .collect::<Result<_, _>>()?;

    // ...plus sustained churn: subscribers joining and leaving while
    // the market feed keeps publishing. With one shard every one of
    // these registrations would briefly stall all matching.
    let mut churn = ChurnScenario::new(7, 50);
    let mut churners: Vec<Subscription> = Vec::new();
    let mut ticks: Vec<std::sync::Arc<Event>> = Vec::new();
    let mut delivered = 0usize;
    for op in churn.ops(2_000) {
        match op {
            ChurnOp::Subscribe(expr) => churners.push(broker.subscribe_expr(&expr)?),
            ChurnOp::Unsubscribe(i) => drop(churners.remove(i)),
            // Batch the feed: each shard is visited once per flush —
            // one lock acquisition, one scratch — instead of per event
            // (matching an event costs the same either way).
            // Each event is `Arc`-wrapped once, here — matching and
            // every delivered notification share that allocation.
            ChurnOp::Publish(event) => {
                ticks.push(std::sync::Arc::new(event));
                if ticks.len() == 64 {
                    delivered += broker.publish_batch(&ticks);
                    ticks.clear();
                }
            }
        }
    }
    delivered += broker.publish_batch(&ticks);

    // Least-loaded placement kept the shards even through all that
    // churn (the old blind round-robin cursor could not). An adversarial
    // drain still skews them: everyone who happens to live on shards 1
    // and 2 leaves at once. `rebalance()` live-migrates subscriptions
    // (ids, handles and queues untouched) until no shard is more than
    // one subscription heavier than another.
    println!("shard loads after churn:      {:?}", broker.shard_loads());
    churners.clear(); // the churn cohort leaves; watchers remain
    let mut watchers = watchers;
    for i in (0..watchers.len()).rev() {
        if i % 4 == 1 || i % 4 == 2 {
            drop(watchers.remove(i)); // drains shards 1 and 2
        }
    }
    println!("shard loads after the drain:  {:?}", broker.shard_loads());
    let moved = broker.rebalance();
    println!(
        "shard loads after migrating {moved} subscriptions: {:?}",
        broker.shard_loads()
    );

    // The shard count itself is a live knob: grow to six shards (the
    // lock array is swapped behind an epoch; publishes never stop),
    // spread onto the new shards, then shrink back — every dying
    // shard's subscriptions are live-migrated onto the survivors.
    broker.resize(6);
    broker.rebalance();
    println!("shard loads after resize(6):  {:?}", broker.shard_loads());
    let drained = broker.resize(4);
    println!(
        "shard loads after resize(4) drained {drained} subscriptions back: {:?}",
        broker.shard_loads()
    );

    // Counts even does not mean load even: per-shard match counters
    // expose which shards actually produce the matches, and a
    // frequency-weighted rebalance tick (which a caller can run on an
    // interval, like the quarantine tick) migrates hot load instead of
    // raw counts.
    println!(
        "per-shard match counters:     {:?}",
        broker.shard_match_hits()
    );
    broker.rebalance_by_match_frequency(8);

    let stats = broker.stats();
    println!(
        "published {} events in batches; {} notifications delivered",
        stats.events_published, delivered
    );
    println!(
        "churn: {} subscriptions created, {} removed, {} still live",
        stats.subscriptions_created,
        stats.subscriptions_removed,
        broker.subscription_count()
    );
    let received: usize = watchers.iter().map(|w| w.drain().len()).sum();
    println!("stable watchers received {received} notifications");
    println!(
        "engine memory (all shards): {} bytes",
        broker.memory_usage().total()
    );
    Ok(())
}
