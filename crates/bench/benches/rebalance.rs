//! Load-aware rebalancing: what live migration costs and what it buys.
//!
//! Three measurements over the directory-routed sharded core:
//!
//! * `migration_cost` — a full resize cycle (`S → 2S`, rebalance onto
//!   the new shards, drain back to `S`) on a loaded engine. Throughput
//!   is reported in migrated subscriptions per second — the price of
//!   moving one subscription is one target-shard re-subscribe, one
//!   source-shard unsubscribe and a directory repoint.
//! * `publish_skew` — broker publish latency with the same live
//!   subscription count concentrated on few shards (skewed by draining
//!   churn) vs spread evenly after `rebalance()`. A publish walks the
//!   shards one after another, so both shapes do the same total work
//!   and the rows should read alike; what skew costs is write
//!   contention on the hot shards, which this group does not drive.
//! * `scenario_replay` — end-to-end ops/sec of a sharded engine
//!   consuming a `RebalanceScenario` stream (churn + rebalance + resize
//!   marks), the sustained-operations view of the whole feature.
//!
//! Run with `cargo bench -p boolmatch-bench --bench rebalance`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use boolmatch_broker::{Broker, DeliveryPolicy, Subscription};
use boolmatch_core::{EngineKind, FilterEngine, Matcher, ShardedEngine};
use boolmatch_types::Event;
use boolmatch_workload::scenarios::{ChurnOp, RebalanceOp, RebalanceScenario, StockScenario};

const SUBSCRIPTIONS: usize = 10_000;

fn loaded_engine(shards: usize, subscriptions: usize) -> ShardedEngine {
    let mut engine = ShardedEngine::new(EngineKind::NonCanonical, shards);
    let mut scenario = StockScenario::new(2_005);
    for expr in scenario.subscriptions(subscriptions) {
        engine.subscribe(&expr).expect("accepted");
    }
    engine
}

fn migration_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("rebalance/migration_cost");
    for shards in [2usize, 4, 8] {
        let mut engine = loaded_engine(shards, SUBSCRIPTIONS);
        // One calibration cycle to learn how many subscriptions a
        // cycle migrates (constant thereafter: the schedule is
        // deterministic).
        let moved_out = engine.resize(shards * 2) + engine.rebalance();
        let moved_back = engine.resize(shards);
        group.throughput(Throughput::Elements((moved_out + moved_back) as u64));
        group.bench_with_input(
            BenchmarkId::new("resize_cycle", format!("s{shards}")),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut moved = engine.resize(shards * 2);
                    moved += engine.rebalance();
                    moved += engine.resize(shards);
                    moved
                });
            },
        );
    }
    group.finish();
}

/// A broker with `live` subscriptions concentrated on half of its
/// shards: subscribe 2× the target (round-robin, nothing skewed yet),
/// then drain every odd shard entirely by dropping its arrivals.
fn skewed_broker(shards: usize, live: usize) -> (Broker, Vec<Subscription>) {
    let broker = Broker::builder()
        .engine(EngineKind::NonCanonical)
        .shards(shards)
        .delivery(DeliveryPolicy::DropNewest { capacity: 4 })
        .build();
    let mut scenario = StockScenario::new(2_005);
    // 2× the target: arrivals land round-robin, shard i gets arrivals
    // ≡ i (mod shards).
    let mut subs: Vec<Option<Subscription>> = scenario
        .subscriptions(live * 2)
        .iter()
        .map(|e| Some(broker.subscribe_expr(e).expect("accepted")))
        .collect();
    // Drain the odd shards entirely: the surviving `live` subscriptions
    // sit on the even shards only.
    for (i, slot) in subs.iter_mut().enumerate() {
        if i % shards % 2 == 1 {
            drop(slot.take());
        }
    }
    let survivors: Vec<Subscription> = subs.into_iter().flatten().collect();
    (broker, survivors)
}

fn publish_skew(c: &mut Criterion) {
    let mut group = c.benchmark_group("rebalance/publish_skew");
    group.throughput(Throughput::Elements(1));
    let events: Vec<Arc<Event>> = {
        let mut feed = StockScenario::new(99);
        (0..64).map(|_| Arc::new(feed.tick())).collect()
    };
    for shards in [4usize, 8] {
        for rebalanced in [false, true] {
            let (broker, _subs) = skewed_broker(shards, SUBSCRIPTIONS);
            if rebalanced {
                broker.rebalance();
            }
            let label = if rebalanced { "rebalanced" } else { "skewed" };
            let mut at = 0usize;
            group.bench_with_input(
                BenchmarkId::new(label, format!("s{shards}")),
                &shards,
                |b, _| {
                    b.iter(|| {
                        at = (at + 1) % events.len();
                        broker.publish_arc(Arc::clone(&events[at]))
                    });
                },
            );
        }
    }
    group.finish();
}

fn scenario_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("rebalance/scenario_replay");
    group.throughput(Throughput::Elements(256));
    for shards in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("ops256", format!("s{shards}")),
            &shards,
            |b, &shards| {
                let mut matcher =
                    Matcher::new(ShardedEngine::new(EngineKind::NonCanonical, shards));
                let mut scenario = RebalanceScenario::new(7, 2_000, shards);
                let mut live: Vec<boolmatch_core::SubscriptionId> = Vec::new();
                b.iter(|| {
                    let mut delivered = 0usize;
                    for op in scenario.ops(256) {
                        match op {
                            RebalanceOp::Churn(ChurnOp::Subscribe(expr)) => {
                                live.push(matcher.subscribe(&expr).expect("accepted"));
                            }
                            RebalanceOp::Churn(ChurnOp::Unsubscribe(i)) => {
                                let id = live.remove(i);
                                matcher.unsubscribe(id).expect("live");
                            }
                            RebalanceOp::Churn(ChurnOp::Publish(event)) => {
                                delivered += matcher.match_event_into(&event).matched;
                            }
                            RebalanceOp::Rebalance => {
                                matcher.rebalance();
                            }
                            RebalanceOp::Resize(n) => {
                                matcher.resize(n);
                            }
                        }
                    }
                    delivered
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, migration_cost, publish_skew, scenario_replay);
criterion_main!(benches);
