//! `bench_snapshot` — a self-contained, scriptable timing pass over the
//! repo's key hot paths, written as machine-readable JSON so the perf
//! trajectory across PRs has data instead of anecdotes.
//!
//! Unlike the Criterion benches (which exist for careful interactive
//! measurement), this binary is built to run unattended: it times each
//! named workload with a fixed warm-up + N-sample loop, records the
//! **median ns/op**, and writes everything to one JSON file
//! (`BENCH_PR10.json` by default). CI smoke-runs it in `--quick` mode
//! on every push.
//!
//! ```text
//! cargo run --release -p boolmatch-bench --bin bench_snapshot -- [--quick] [--out PATH]
//! ```
//!
//! * `--quick` — smaller corpora and fewer samples (CI / smoke mode).
//! * `--out PATH` — output path (default `BENCH_PR10.json`).
//!
//! The recorded numbers carry the same caveat as the concurrency
//! benches: on a single-core host the `parallel_scoped` row measures
//! the fan-out's coordination overhead, not its speedup — the JSON
//! embeds the host's core count so readers can tell.

use std::sync::Arc;
use std::time::Instant;

use boolmatch_bench::Args;
use boolmatch_broker::{Broker, DeliveryPolicy, Subscription};
use boolmatch_core::{
    EngineKind, FilterEngine, MatchScratch, PlacementPolicy, ScratchPool, ShardTranslation,
    ShardedEngine, SubscriptionId,
};
use boolmatch_types::Event;
use boolmatch_workload::scenarios::{HotKeyScenario, SelectiveScenario, StockScenario};

/// One recorded measurement.
struct Sample {
    name: String,
    median_ns_per_op: f64,
    samples: usize,
    ops_per_sample: usize,
}

/// Times `op` as `samples` batches of `ops` calls (after one warm-up
/// batch) and returns the median ns per call.
fn measure(samples: usize, ops: usize, mut op: impl FnMut()) -> f64 {
    for _ in 0..ops {
        op();
    }
    let mut per_op: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..ops {
                op();
            }
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    per_op.sort_by(f64::total_cmp);
    per_op[per_op.len() / 2]
}

fn record(
    out: &mut Vec<Sample>,
    name: impl Into<String>,
    samples: usize,
    ops: usize,
    op: impl FnMut(),
) {
    let name = name.into();
    let median = measure(samples, ops, op);
    println!("{name:<48} median: {median:>12.1} ns/op");
    out.push(Sample {
        name,
        median_ns_per_op: median,
        samples,
        ops_per_sample: ops,
    });
}

fn stock_events(n: usize) -> Vec<Arc<Event>> {
    let mut feed = StockScenario::new(99);
    (0..n).map(|_| Arc::new(feed.tick())).collect()
}

fn stock_broker(shards: usize, subscriptions: usize) -> (Broker, Vec<Subscription>) {
    let broker = Broker::builder()
        .engine(EngineKind::NonCanonical)
        .shards(shards)
        .delivery(DeliveryPolicy::DropNewest { capacity: 4 })
        .build();
    let mut scenario = StockScenario::new(2_005);
    // The handles must stay alive for the measurement: dropping one
    // unsubscribes it.
    let subs = scenario
        .subscriptions(subscriptions)
        .iter()
        .map(|e| broker.subscribe_expr(e).expect("accepted"))
        .collect();
    (broker, subs)
}

fn main() {
    let args = Args::parse();
    let quick = args.has("quick");
    let out_path = args.get("out").unwrap_or("BENCH_PR10.json").to_owned();
    let (samples, ops) = if quick { (5, 200) } else { (15, 1_000) };
    let mut results: Vec<Sample> = Vec::new();

    // --- End-to-end match cost per engine kind ---
    let corpus = if quick { 2_000 } else { 5_000 };
    let events = stock_events(64);
    for kind in EngineKind::ALL {
        // Default configuration (phase-1 index on) over the stock
        // corpus — the same subscription/event universe the broker rows
        // use, so phase 1 fulfils real predicates and phase 2 walks
        // real candidates: the end-to-end match cost, not the paper's
        // phase-2 isolation.
        let mut engine = kind.build();
        let mut scenario = StockScenario::new(2_005);
        for expr in scenario.subscriptions(corpus) {
            engine.subscribe(&expr).expect("within limits");
        }
        let mut scratch = MatchScratch::new();
        let mut at = 0usize;
        record(
            &mut results,
            format!("match_event/{kind}/{corpus}"),
            samples,
            ops,
            || {
                at = (at + 1) % events.len();
                engine.match_event_into(&events[at], &mut scratch);
            },
        );
    }

    // --- Sharded engine: sequential walk vs scoped parallel fan-out ---
    {
        let shards = 4;
        let mut engine = ShardedEngine::new(EngineKind::NonCanonical, shards);
        let mut scenario = StockScenario::new(2_005);
        for expr in scenario.subscriptions(corpus) {
            engine.subscribe(&expr).expect("accepted");
        }
        let scratches = ScratchPool::new(shards);
        let mut scratch = MatchScratch::new();
        let mut at = 0usize;
        record(
            &mut results,
            format!("sharded_engine/s{shards}/sequential/{corpus}"),
            samples,
            ops,
            || {
                at = (at + 1) % events.len();
                engine.match_event_into(&events[at], &mut scratch);
            },
        );
        record(
            &mut results,
            format!("sharded_engine/s{shards}/parallel_scoped/{corpus}"),
            samples,
            ops.min(200), // scoped spawn per op: keep the sample cheap
            || {
                at = (at + 1) % events.len();
                engine.match_event_parallel(&events[at], &scratches, &mut scratch);
            },
        );
    }

    // --- Batch publish (Arc<Event> zero-copy path) ---
    {
        let (broker, _receivers) = stock_broker(4, if quick { 1_000 } else { 10_000 });
        let batch: Vec<Arc<Event>> = events.iter().take(64).cloned().collect();
        record(
            &mut results,
            "publish_batch/s4/batch64",
            samples,
            ops.min(50),
            || {
                broker.publish_batch(&batch);
            },
        );
    }

    // --- Rebalancing: migration cost and the publish paths around it ---
    {
        // A resize cycle (grow to 2S, spread, drain back to S) on a
        // loaded engine; the recorded figure is ns per *migrated
        // subscription*, the unit price of live migration.
        let shards = 4;
        let corpus = if quick { 2_000 } else { 10_000 };
        let mut engine = ShardedEngine::new(EngineKind::NonCanonical, shards);
        let mut scenario = StockScenario::new(2_005);
        for expr in scenario.subscriptions(corpus) {
            engine.subscribe(&expr).expect("accepted");
        }
        // Warm-up cycle, which also calibrates how many subscriptions
        // one cycle migrates (deterministic thereafter).
        let per_cycle = {
            let mut moved = engine.resize(shards * 2);
            moved += engine.rebalance();
            moved + engine.resize(shards)
        };
        let cycles = if quick { 3 } else { 7 };
        let mut per_move: Vec<f64> = (0..cycles)
            .map(|_| {
                let start = Instant::now();
                let mut moved = engine.resize(shards * 2);
                moved += engine.rebalance();
                moved += engine.resize(shards);
                start.elapsed().as_nanos() as f64 / moved.max(1) as f64
            })
            .collect();
        per_move.sort_by(f64::total_cmp);
        let median = per_move[per_move.len() / 2];
        let name = format!("rebalance/per_migrated_sub/s{shards}/{corpus}");
        println!("{name:<48} median: {median:>12.1} ns/op");
        results.push(Sample {
            name,
            median_ns_per_op: median,
            samples: cycles,
            ops_per_sample: per_cycle,
        });
    }

    // --- Shard-local matched-id translation (the publish hot path's
    // only per-match routing cost since the directory lock came off) ---
    {
        // A warm shard map of `corpus` residents and a typical matched
        // set of 64 local ids: one op = translating one event's matched
        // set, exactly what each publish pays per shard under the shard
        // lock it already holds.
        let residents = if quick { 20_000 } else { 100_000 };
        let mut translation = ShardTranslation::new();
        for local in 0..residents {
            translation.set(
                SubscriptionId::from_index(local),
                SubscriptionId::from_index(local * 4),
            );
        }
        let matched: Vec<SubscriptionId> = (0..64)
            .map(|i| SubscriptionId::from_index(i * (residents / 64)))
            .collect();
        let mut out: Vec<SubscriptionId> = Vec::with_capacity(64);
        record(
            &mut results,
            format!("translate/per_event/64of{residents}"),
            samples,
            ops,
            || {
                out.clear();
                out.extend(matched.iter().filter_map(|&l| translation.global_of(l)));
                assert_eq!(out.len(), 64);
            },
        );
    }

    // --- Background rebalance: publish cost under a hot-key skew with
    // frequency-weighted ticks running, and the cost of one tick ---
    {
        let shards = 4;
        let subs = if quick { 400 } else { 2_000 };
        let broker = Broker::builder()
            .engine(EngineKind::NonCanonical)
            .shards(shards)
            .delivery(DeliveryPolicy::DropNewest { capacity: 4 })
            .build();
        // stride = shard count: every hot subscription lands on shard 0
        // under churn-free placement — counts balanced, match load
        // maximally skewed (see HotKeyScenario).
        let mut scenario = HotKeyScenario::new(2_005, shards);
        let _receivers: Vec<Subscription> = scenario
            .subscriptions(subs)
            .iter()
            .map(|e| broker.subscribe_expr(e).expect("accepted"))
            .collect();
        let hot_events: Vec<Event> = scenario.events(64);
        let mut at = 0usize;
        record(
            &mut results,
            format!("background_rebalance/publish_hotkey/s{shards}/{subs}"),
            samples,
            ops.min(200),
            || {
                at = (at + 1) % hot_events.len();
                broker.publish(hot_events[at].clone());
            },
        );
        // One frequency-weighted tick (snapshot counters, pick the
        // hot/cool pair, migrate a small chunk). Publishes in between
        // keep the counters moving so ticks have real skew to act on.
        record(
            &mut results,
            format!("background_rebalance/tick/s{shards}/{subs}"),
            samples.min(7),
            ops.min(50),
            || {
                at = (at + 1) % hot_events.len();
                broker.publish(hot_events[at].clone());
                broker.rebalance_by_match_frequency(4);
            },
        );
        println!(
            "    (hot-key shard loads after ticks: {:?}, hits {:?})",
            broker.shard_loads(),
            broker.shard_match_hits()
        );
    }

    // --- Content-aware pruning: publish cost on a prunable and an
    // unprunable population ---
    {
        // Selective workload, one group attribute per event, clustered
        // placement with groups == shards: each event has candidates on
        // (at most) one shard. `selective` is the publish the synopses
        // prune 7 of 8 shards of; `unprunable` (the or-rooted twin,
        // which the conservative synopsis must keep always-candidate)
        // is the same corpus with every shard visited — the pair bounds
        // what pruning saves on a partitionable population.
        let shards = 8;
        let subs = if quick { 800 } else { 4_000 };
        let configs = [("selective/pruned", true), ("unprunable/pruned", false)];
        let setups: Vec<(Broker, Vec<Subscription>, Vec<Event>)> = configs
            .iter()
            .map(|&(_, prunable)| {
                let broker = Broker::builder()
                    .engine(EngineKind::NonCanonical)
                    .shards(shards)
                    .placement(PlacementPolicy::ClusterByAttribute)
                    .delivery(DeliveryPolicy::DropNewest { capacity: 4 })
                    .build();
                let mut scenario = if prunable {
                    SelectiveScenario::new(2_005, shards)
                } else {
                    SelectiveScenario::unprunable(2_005, shards)
                };
                let receivers: Vec<Subscription> = scenario
                    .subscriptions(subs)
                    .iter()
                    .map(|e| broker.subscribe_expr(e).expect("accepted"))
                    .collect();
                (broker, receivers, scenario.events(64))
            })
            .collect();
        // Sample the configurations round-robin *within* each round
        // instead of one full row after another, so this host's
        // sequential drift (allocator state, CPU clock) cancels out of
        // the comparison.
        let ops_here = ops.min(200);
        let mut at = vec![0usize; setups.len()];
        let mut batches: Vec<Vec<f64>> = vec![Vec::with_capacity(samples); setups.len()];
        for round in 0..=samples {
            for (i, (broker, _receivers, group_events)) in setups.iter().enumerate() {
                let start = Instant::now();
                for _ in 0..ops_here {
                    at[i] = (at[i] + 1) % group_events.len();
                    broker.publish(group_events[at[i]].clone());
                }
                if round > 0 {
                    // Round 0 is the warm-up.
                    batches[i].push(start.elapsed().as_nanos() as f64 / ops_here as f64);
                }
            }
        }
        for (i, &(row, _)) in configs.iter().enumerate() {
            batches[i].sort_by(f64::total_cmp);
            let median = batches[i][batches[i].len() / 2];
            let name = format!("prune/{row}/s{shards}/{subs}");
            println!("{name:<48} median: {median:>12.1} ns/op");
            results.push(Sample {
                name,
                median_ns_per_op: median,
                samples,
                ops_per_sample: ops_here,
            });
        }
        let prunes: u64 = setups[0].0.shard_prune_counts().iter().sum();
        println!("    (selective/pruned skipped {prunes} shard visits)");
    }

    // --- Delivery tier: the enqueue hot path, and a stalled
    // subscriber's cost to everyone else ---
    {
        // One always-matching subscriber, drop-oldest so the queue is
        // permanently full at steady state: the recorded figure is the
        // full publish → match → snapshot → enqueue path with the
        // overflow branch taken on every op — the delivery tier's
        // worst-case per-notification price.
        let broker = Broker::builder().engine(EngineKind::NonCanonical).build();
        let sub = broker
            .subscribe_with_policy("feed >= 0", DeliveryPolicy::DropOldest { capacity: 1_024 })
            .expect("accepted");
        let event = Arc::new(Event::builder().attr("feed", 1_i64).build());
        record(
            &mut results,
            "delivery/enqueue/drop_oldest",
            samples,
            ops,
            || {
                broker.publish_arc(Arc::clone(&event));
            },
        );
        drop(sub);

        // A/B: 64 healthy bounded subscribers, with and without one
        // fully stalled drop-newest neighbour. The two rows bounding
        // the tier's core promise — a dead consumer costs the fan-out
        // one capped enqueue, not a stall — should sit within a few
        // percent of each other. Sampled round-robin within each round
        // so sequential host drift cancels out of the comparison.
        let healthy = 64;
        let setups: Vec<(&str, Broker, Vec<Subscription>)> = [("absent", false), ("present", true)]
            .into_iter()
            .map(|(row, stalled)| {
                let broker = Broker::builder().engine(EngineKind::NonCanonical).build();
                let mut subs: Vec<Subscription> = (0..healthy)
                    .map(|_| {
                        broker
                            .subscribe_with_policy(
                                "feed >= 0",
                                DeliveryPolicy::DropOldest { capacity: 256 },
                            )
                            .expect("accepted")
                    })
                    .collect();
                if stalled {
                    // Never drained: permanently full within 64
                    // publishes, shedding on every one after.
                    subs.push(
                        broker
                            .subscribe_with_policy(
                                "feed >= 0",
                                DeliveryPolicy::DropNewest { capacity: 64 },
                            )
                            .expect("accepted"),
                    );
                }
                (row, broker, subs)
            })
            .collect();
        let ops_here = ops.min(200);
        let mut batches: Vec<Vec<f64>> = (0..2).map(|_| Vec::with_capacity(samples)).collect();
        for round in 0..=samples {
            for (i, (_, broker, _)) in setups.iter().enumerate() {
                let start = Instant::now();
                for _ in 0..ops_here {
                    broker.publish_arc(Arc::clone(&event));
                }
                if round > 0 {
                    // Round 0 is the warm-up.
                    batches[i].push(start.elapsed().as_nanos() as f64 / ops_here as f64);
                }
            }
        }
        for (i, (row, _, _)) in setups.iter().enumerate() {
            batches[i].sort_by(f64::total_cmp);
            let median = batches[i][batches[i].len() / 2];
            let name = format!("delivery/slow_consumer/{row}/subs{healthy}");
            println!("{name:<48} median: {median:>12.1} ns/op");
            results.push(Sample {
                name,
                median_ns_per_op: median,
                samples,
                ops_per_sample: ops_here,
            });
        }
    }

    // --- JSON output (hand-rolled: no serde in the offline workspace) ---
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"snapshot\": \"hot-path medians\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    json.push_str(&format!("  \"host_cores\": {cores},\n"));
    json.push_str(
        "  \"note\": \"median ns/op per bench; on a single-core host the parallel_scoped row \
         shows fan-out coordination overhead, not speedup — compare on multi-core\",\n",
    );
    json.push_str("  \"benches\": {\n");
    for (i, s) in results.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"median_ns_per_op\": {:.1}, \"samples\": {}, \"ops_per_sample\": {}}}{}\n",
            s.name,
            s.median_ns_per_op,
            s.samples,
            s.ops_per_sample,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, &json).expect("writing the snapshot JSON");
    println!("\nwrote {} benches to {out_path}", results.len());
}
