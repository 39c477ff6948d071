use super::publish::{publish_state_bytes, TRIM_CAP};
use super::*;

fn ev(pairs: &[(&str, i64)]) -> Event {
    Event::from_pairs(pairs.iter().map(|(n, v)| (*n, *v)))
}

/// One `Arc` per event, the form [`Broker::publish_batch`] takes.
fn batch(events: &[&[(&str, i64)]]) -> Vec<Arc<Event>> {
    events.iter().map(|pairs| Arc::new(ev(pairs))).collect()
}

#[test]
fn subscribe_publish_receive() {
    let broker = Broker::builder().build();
    let sub = broker.subscribe("a = 1 and b = 2").unwrap();
    assert_eq!(broker.publish(ev(&[("a", 1), ("b", 2)])), 1);
    assert_eq!(broker.publish(ev(&[("a", 1)])), 0);
    let got = sub.try_recv().unwrap();
    assert_eq!(got.get("b"), Some(&2_i64.into()));
    assert!(sub.try_recv().is_none());
}

#[test]
fn every_engine_kind_works() {
    for kind in EngineKind::ALL {
        let broker = Broker::builder().engine(kind).build();
        assert_eq!(broker.engine_kind(), kind);
        let sub = broker.subscribe("(a = 1 or b = 2) and c = 3").unwrap();
        assert_eq!(broker.publish(ev(&[("b", 2), ("c", 3)])), 1);
        assert!(sub.try_recv().is_some());
    }
}

#[test]
fn parse_errors_surface() {
    let broker = Broker::builder().build();
    assert!(matches!(
        broker.subscribe("a >"),
        Err(BrokerError::Parse(_))
    ));
}

#[test]
fn explicit_unsubscribe_stops_delivery() {
    let broker = Broker::builder().build();
    let sub = broker.subscribe("a = 1").unwrap();
    let id = sub.id();
    assert!(broker.unsubscribe(id));
    assert!(!broker.unsubscribe(id));
    assert_eq!(broker.publish(ev(&[("a", 1)])), 0);
    assert_eq!(broker.subscription_count(), 0);
}

#[test]
fn handle_drop_unsubscribes() {
    let broker = Broker::builder().build();
    {
        let _sub = broker.subscribe("a = 1").unwrap();
        assert_eq!(broker.subscription_count(), 1);
    }
    assert_eq!(broker.subscription_count(), 0);
    assert_eq!(broker.publish(ev(&[("a", 1)])), 0);
    let stats = broker.stats();
    assert_eq!(stats.subscriptions_created, 1);
    assert_eq!(stats.subscriptions_removed, 1);
}

#[test]
fn drop_newest_policy_counts_drops() {
    let broker = Broker::builder()
        .delivery(DeliveryPolicy::DropNewest { capacity: 1 })
        .build();
    let sub = broker.subscribe("a = 1").unwrap();
    assert_eq!(broker.publish(ev(&[("a", 1)])), 1);
    assert_eq!(broker.publish(ev(&[("a", 1)])), 0); // queue full
    assert_eq!(broker.stats().notifications_dropped, 1);
    assert!(sub.try_recv().is_some());
    assert_eq!(broker.publish(ev(&[("a", 1)])), 1);
}

#[test]
fn fanout_to_many_subscribers() {
    let broker = Broker::builder().build();
    let subs: Vec<_> = (0..20)
        .map(|_| broker.subscribe("tick = 1").unwrap())
        .collect();
    assert_eq!(broker.publish(ev(&[("tick", 1)])), 20);
    for sub in &subs {
        assert!(sub.try_recv().is_some());
    }
}

#[test]
fn concurrent_publishers_and_subscribers() {
    let broker = Broker::builder().build();
    let subs: Vec<_> = (0..8)
        .map(|i| broker.subscribe(&format!("topic = {i}")).unwrap())
        .collect();
    let mut handles = Vec::new();
    for t in 0..4 {
        let publisher = broker.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..100 {
                publisher.publish(Event::builder().attr("topic", ((t + i) % 8) as i64).build());
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total: usize = subs.iter().map(|s| s.drain().len()).sum();
    assert_eq!(total, 400);
    assert_eq!(broker.stats().events_published, 400);
    assert_eq!(broker.stats().notifications_delivered, 400);
}

#[test]
fn stats_snapshot_is_consistent() {
    let broker = Broker::builder().build();
    let _sub = broker.subscribe("a = 1").unwrap();
    broker.publish(ev(&[("a", 1)]));
    broker.publish(ev(&[("a", 2)]));
    let s = broker.stats();
    assert_eq!(s.events_published, 2);
    assert_eq!(s.notifications_delivered, 1);
    assert_eq!(s.subscriptions_created, 1);
}

#[test]
fn memory_usage_is_exposed() {
    let broker = Broker::builder().build();
    let _sub = broker.subscribe("(a = 1 or b = 2) and c = 3").unwrap();
    assert!(broker.memory_usage().total() > 0);
}

#[test]
fn default_broker_has_one_shard() {
    let broker = Broker::builder().build();
    assert_eq!(broker.shard_count(), 1);
    assert_eq!(Broker::builder().shards(1).build().shard_count(), 1);
    assert_eq!(Broker::builder().shards(4).build().shard_count(), 4);
}

#[test]
#[should_panic(expected = "at least one engine shard")]
fn zero_shards_panics() {
    let _ = Broker::builder().shards(0);
}

#[test]
fn sharded_unsubscribe_routes_to_owning_shard() {
    let broker = Broker::builder().shards(3).build();
    let subs: Vec<_> = (0..9)
        .map(|i| broker.subscribe(&format!("a = {i}")).unwrap())
        .collect();
    let id = subs[4].id();
    assert!(broker.unsubscribe(id));
    assert!(!broker.unsubscribe(id));
    assert_eq!(broker.subscription_count(), 8);
    assert_eq!(broker.publish(ev(&[("a", 4)])), 0);
    assert_eq!(broker.publish(ev(&[("a", 5)])), 1);
}

#[test]
fn rejected_subscription_does_not_skew_placement() {
    // 2^17 DNF conjunctions: over the counting engine's default
    // 65,536 limit, so registration is rejected.
    let huge: String = (0..17)
        .map(|i| format!("(a{i} = 1 or b{i} = 1)"))
        .collect::<Vec<_>>()
        .join(" and ");
    let flat = Broker::builder().engine(EngineKind::Counting).build();
    let sharded = Broker::builder()
        .engine(EngineKind::Counting)
        .shards(2)
        .build();
    for broker in [&flat, &sharded] {
        let a = broker.subscribe("x = 1").unwrap();
        assert!(matches!(
            broker.subscribe(&huge),
            Err(BrokerError::Subscribe(_))
        ));
        let c = broker.subscribe("x = 2").unwrap();
        // The rejection consumed no slot: the next subscription
        // takes the slot after `a`'s, as on an unsharded broker.
        assert_eq!(a.id().slot(), 0);
        assert_eq!(c.id().slot(), 1);
    }
}

#[test]
fn publish_batch_empty_and_repeated() {
    let broker = Broker::builder().shards(2).build();
    assert_eq!(broker.publish_batch(&[]), 0);
    let sub = broker.subscribe("a = 1").unwrap();
    // Repeated batches reuse the thread-local buckets (shrinking
    // and growing the batch length between calls).
    assert_eq!(broker.publish_batch(&batch(&[&[("a", 1)], &[("a", 2)]])), 1);
    assert_eq!(broker.publish_batch(&batch(&[&[("a", 1)]])), 1);
    assert_eq!(
        broker.publish_batch(&batch(&[&[("a", 1)], &[("a", 1)], &[("a", 3)]])),
        2
    );
    assert_eq!(sub.drain().len(), 4);
    assert_eq!(broker.stats().events_published, 6);
}

#[test]
fn publish_arc_shares_the_allocation_with_delivery() {
    let broker = Broker::builder().shards(2).build();
    let sub = broker.subscribe("a = 1").unwrap();
    let event = Arc::new(ev(&[("a", 1)]));
    assert_eq!(broker.publish_arc(Arc::clone(&event)), 1);
    let got = sub.try_recv().unwrap();
    // Delivery queued the caller's Arc itself, not a copy.
    assert!(Arc::ptr_eq(&got, &event));
}

#[test]
fn heterogeneous_engine_instances() {
    let broker = Broker::builder()
        .engine_instances(vec![
            EngineKind::NonCanonical.build(),
            EngineKind::Counting.build(),
        ])
        .build();
    assert_eq!(broker.shard_count(), 2);
    assert_eq!(broker.engine_kind(), EngineKind::NonCanonical);
    let a = broker.subscribe("a = 1").unwrap(); // shard 0
    let b = broker.subscribe("a = 2").unwrap(); // shard 1
    assert_eq!(broker.publish(ev(&[("a", 1)])), 1);
    assert_eq!(broker.publish(ev(&[("a", 2)])), 1);
    assert_eq!(a.drain().len(), 1);
    assert_eq!(b.drain().len(), 1);
    assert!(broker.memory_usage().total() > 0);
}

#[test]
fn drained_shard_is_refilled_first() {
    // The churn-skew regression at the broker layer: unsubscribes
    // empty one shard; the old blind round-robin cursor kept
    // striding past it, least-loaded placement refills it.
    let broker = Broker::builder().shards(4).build();
    let mut subs: Vec<_> = (0..12)
        .map(|i| broker.subscribe(&format!("a = {i}")).unwrap())
        .collect();
    assert_eq!(broker.shard_loads(), vec![3, 3, 3, 3]);
    // Arrivals 2, 6, 10 are shard 2's; drop them.
    for &i in &[10usize, 6, 2] {
        drop(subs.remove(i));
    }
    assert_eq!(broker.shard_loads(), vec![3, 3, 0, 3]);
    for i in 12..15 {
        subs.push(broker.subscribe(&format!("a = {i}")).unwrap());
    }
    assert_eq!(broker.shard_loads(), vec![3, 3, 3, 3]);
    // And the refilled shard actually matches.
    assert_eq!(broker.publish(ev(&[("a", 13)])), 1);
}

#[test]
fn rebalance_moves_load_without_touching_subscribers() {
    let broker = Broker::builder().shards(3).build();
    let mut subs: Vec<_> = (0..12)
        .map(|i| broker.subscribe(&format!("a = {i} or all = 1")).unwrap())
        .collect();
    // Drain shard 1 (arrivals 1, 4, 7, 10) to skew the loads.
    for &i in &[10usize, 7, 4, 1] {
        drop(subs.remove(i));
    }
    assert_eq!(broker.shard_loads(), vec![4, 0, 4]);

    // Bounded step first, then the rest.
    assert_eq!(broker.migrate(1), 1);
    let moved = broker.rebalance();
    assert!(moved >= 1);
    let loads = broker.shard_loads();
    let spread = loads.iter().max().unwrap() - loads.iter().min().unwrap();
    assert!(spread <= 1, "balanced after rebalance: {loads:?}");
    assert_eq!(loads.iter().sum::<usize>(), 8, "no subscription lost");
    assert_eq!(broker.stats().subscriptions_migrated, (1 + moved) as u64);
    assert_eq!(broker.rebalance(), 0, "already balanced");

    // Ids, handles and delivery survived every move.
    assert_eq!(broker.publish(ev(&[("all", 1)])), 8);
    for sub in &subs {
        assert_eq!(sub.drain().len(), 1);
        assert!(broker.unsubscribe(sub.id()));
    }
    assert_eq!(broker.subscription_count(), 0);
}

#[test]
fn migrated_subscriptions_can_still_unsubscribe_by_handle_drop() {
    let broker = Broker::builder().shards(2).build();
    let mut subs: Vec<_> = (0..8)
        .map(|i| broker.subscribe(&format!("a = {i}")).unwrap())
        .collect();
    // Drop three of shard 0's (arrivals 0, 2, 4) to skew.
    for &i in &[4usize, 2, 0] {
        drop(subs.remove(i));
    }
    assert_eq!(broker.shard_loads(), vec![1, 4]);
    assert!(broker.rebalance() >= 1);
    // Handle drop must route through the directory to wherever the
    // subscription lives now.
    drop(subs);
    assert_eq!(broker.subscription_count(), 0);
    assert_eq!(broker.shard_loads(), vec![0, 0]);
}

#[test]
fn memory_usage_charges_routing_on_every_shape() {
    // Every broker charges its directory slots, translation maps
    // and synopses — a single-shard one too, which `resize` can
    // turn into a migrating one. None of it grows with the
    // expression: the engine holds the only copy of a tree, and a
    // migration asks the engine for it.
    for shards in [1, 2] {
        let small = Broker::builder().shards(shards).build();
        let large = Broker::builder().shards(shards).build();
        let _subs: Vec<_> = (0..50)
            .flat_map(|i| {
                [
                    small.subscribe(&format!("a = {i} or b = {i}")).unwrap(),
                    large
                        .subscribe(&format!(
                            "a = {i} or b = {i} or (c > {i} and not (d = {i} or e = {i}))"
                        ))
                        .unwrap(),
                ]
            })
            .collect();
        let (small, large) = (small.memory_usage(), large.memory_usage());
        // At least a 16-byte directory slot and an 8-byte
        // translation entry per subscription.
        assert!(small.unsub_support >= 50 * 24, "S={shards}");
        assert_eq!(large.unsub_support, small.unsub_support, "S={shards}");
        assert!(large.total() > small.total(), "the engines hold more");
    }
    // An empty broker charges (almost) nothing by comparison.
    assert!(Broker::builder().build().memory_usage().unsub_support < 50 * 24);
}

#[test]
fn memory_usage_sums_engines_directory_and_shard_routing() {
    // The figure `bytes_per_sub` divides: every shard engine's total,
    // plus the directory, plus each shard's translation map and
    // synopsis — each part charged, none free.
    let broker = Broker::builder()
        .engine(EngineKind::Counting)
        .shards(4)
        .build();
    let _subs: Vec<_> = (0..12)
        .map(|i| {
            broker
                .subscribe(&format!("(group = {} or boost = 1) and tick >= {i}", i % 5))
                .unwrap()
        })
        .collect();
    let (mut engines, mut routing, mut translation) = (0, 0, 0);
    for cell in broker.shard_set().iter() {
        let state = cell.state.read();
        engines += state.engine().memory_usage().total();
        routing += state.routing_bytes();
        translation += state.translation().heap_bytes();
    }
    let directory = broker.inner.directory.read().heap_bytes();
    assert_eq!(
        broker.memory_usage().total(),
        engines + directory + routing,
        "engine totals plus the directory, translation maps and synopses"
    );
    assert!(engines > 0);
    assert!(directory > 0);
    assert!(translation > 0, "per-shard reverse maps are charged");
    assert!(routing > translation, "attribute synopses are charged");
}

#[test]
fn single_shard_broker_has_nothing_to_migrate() {
    let broker = Broker::builder().build();
    let _sub = broker.subscribe("a = 1").unwrap();
    assert_eq!(broker.rebalance(), 0);
    assert_eq!(broker.rebalance_by_match_frequency(8), 0);
    assert_eq!(broker.shard_loads(), vec![1]);
    assert_eq!(broker.stats().subscriptions_migrated, 0);
}

#[test]
fn scratch_trim_cap_bounds_the_thread_local_publish_state() {
    // One pathological spike event must not pin its peak allocation
    // in the publishing thread's buffers. Steady traffic below the
    // cap keeps its warm capacity (no trim, no re-allocation); what
    // the spike grew past the cap is released after the publish;
    // steady traffic then re-warms and keeps matching correctly.
    let cap = 24 << 10; // between the steady and spike footprints
    TRIM_CAP.with(|trim_cap| trim_cap.set(cap));
    let broker = Broker::builder().shards(2).build();
    // A small steady population and a large spike-only population:
    // the spike subs size the stamp arrays (steady footprint) but
    // only the spike event explodes the candidate/matched buffers.
    let _steady: Vec<_> = (0..8)
        .map(|i| broker.subscribe(&format!("tick = {i}")).unwrap())
        .collect();
    let _spikers: Vec<_> = (0..4_000)
        .map(|_| broker.subscribe("boom = 1").unwrap())
        .collect();
    let steady = Arc::new(ev(&[("tick", 3)]));
    let spike = Arc::new(ev(&[("boom", 1)]));
    let steady_round = || {
        assert_eq!(broker.publish_arc(Arc::clone(&steady)), 1);
        assert_eq!(
            broker.publish_batch(&[Arc::clone(&steady), Arc::clone(&steady)]),
            2
        );
    };

    for _ in 0..50 {
        steady_round();
    }
    let warm = publish_state_bytes();
    assert!(
        warm.iter().all(|&bytes| bytes > 0 && bytes <= cap),
        "test invariant: the steady footprint {warm:?} is warm and fits the cap {cap}"
    );
    for _ in 0..50 {
        steady_round();
    }
    assert_eq!(publish_state_bytes(), warm, "steady traffic never trims");

    // The spike, single width: its bucket and `targets` must grow to
    // 4 000 entries (32 000 bytes each) to deliver it. The
    // steady 2-wide batches keep bucket 1 warm, so the largest bucket
    // falls back to the steady footprint, not to 0.
    assert_eq!(broker.publish_arc(Arc::clone(&spike)), 4_000);
    let [scratch, bucket, targets] = publish_state_bytes();
    assert!(
        scratch < warm[0] && bucket <= warm[1] && targets == 0,
        "spike capacity was kept: scratch {scratch}, largest bucket {bucket}, targets {targets}"
    );
    // Batch width: the spike's bucket grows the same way.
    assert_eq!(
        broker.publish_batch(&[Arc::clone(&spike), Arc::clone(&steady)]),
        4_001
    );
    let [scratch, bucket, _] = publish_state_bytes();
    assert!(
        scratch < warm[0] && bucket <= warm[1],
        "spike capacity was kept: scratch {scratch}, largest bucket {bucket}"
    );

    // Steady traffic re-warms lazily to the steady footprint, not
    // the spike's, and the spike still delivers exactly.
    for _ in 0..50 {
        steady_round();
    }
    let rewarmed = publish_state_bytes();
    assert!(
        rewarmed.iter().all(|&bytes| bytes > 0 && bytes <= cap),
        "re-warmed to {rewarmed:?}"
    );
    assert_eq!(broker.publish_arc(spike), 4_000);
    steady_round();
}

#[test]
fn resize_grows_live_and_rebalance_spreads() {
    let broker = Broker::builder().shards(2).build();
    let subs: Vec<_> = (0..8)
        .map(|i| broker.subscribe(&format!("a = {i} or all = 1")).unwrap())
        .collect();
    assert_eq!(broker.resize(4), 0, "growing migrates nothing");
    assert_eq!(broker.shard_count(), 4);
    assert_eq!(broker.shard_loads(), vec![4, 4, 0, 0]);
    // Delivery is unchanged through the grow.
    assert_eq!(broker.publish(ev(&[("all", 1)])), 8);
    // New subscriptions fill the new shards first; rebalance then
    // evens everything out.
    let extra = broker.subscribe("a = 100").unwrap();
    assert_eq!(
        broker
            .inner
            .directory
            .read()
            .placement_of(extra.id())
            .unwrap()
            .0,
        2
    );
    broker.rebalance();
    let loads = broker.shard_loads();
    assert!(loads.iter().max().unwrap() - loads.iter().min().unwrap() <= 1);
    assert_eq!(broker.publish(ev(&[("all", 1)])), 8);
    for sub in &subs {
        assert_eq!(sub.drain().len(), 2);
    }
}

#[test]
fn resize_shrinks_live_and_keeps_every_subscription() {
    let broker = Broker::builder().shards(4).build();
    let subs: Vec<_> = (0..12)
        .map(|i| broker.subscribe(&format!("a = {i} or all = 1")).unwrap())
        .collect();
    let moved = broker.resize(2);
    assert!(moved >= 1, "shrinking drains the dying shards");
    assert_eq!(broker.shard_count(), 2);
    assert_eq!(broker.shard_loads().len(), 2);
    assert_eq!(broker.shard_loads().iter().sum::<usize>(), 12);
    assert_eq!(broker.stats().subscriptions_migrated, moved as u64);
    assert_eq!(broker.publish(ev(&[("all", 1)])), 12);
    // All the way down to a flat broker.
    broker.resize(1);
    assert_eq!(broker.shard_count(), 1);
    assert_eq!(broker.publish(ev(&[("all", 1)])), 12);
    for sub in &subs {
        assert_eq!(sub.drain().len(), 2);
        assert!(broker.unsubscribe(sub.id()));
    }
    assert_eq!(broker.subscription_count(), 0);
    assert_eq!(broker.resize(1), 0, "no-op resize");
}

#[test]
#[should_panic(expected = "a surviving shard refused a drained subscription")]
fn shrink_panics_when_a_survivor_refuses_a_drained_subscription() {
    // Heterogeneous shards: the surviving counting shard cannot
    // accept the huge non-canonical expression living on the dying
    // shard. The drain must panic, not spin forever on the
    // refusal.
    let broker = Broker::builder()
        .engine_instances(vec![
            EngineKind::Counting.build(),
            EngineKind::NonCanonical.build(),
        ])
        .build();
    let _anchor = broker.subscribe("x = 1").unwrap(); // shard 0
    let huge: String = (0..17)
        .map(|i| format!("(a{i} = 1 or b{i} = 1)"))
        .collect::<Vec<_>>()
        .join(" and ");
    let _wide = broker.subscribe(&huge).unwrap(); // shard 1 accepts it
    broker.resize(1);
}

#[test]
fn resize_then_unsubscribe_routes_correctly() {
    // Ids survive a shrink that migrated their subscriptions, and
    // handle drops still land on the right shard afterwards.
    let broker = Broker::builder().shards(3).build();
    let subs: Vec<_> = (0..9)
        .map(|i| broker.subscribe(&format!("a = {i}")).unwrap())
        .collect();
    broker.resize(1);
    broker.resize(4);
    drop(subs);
    assert_eq!(broker.subscription_count(), 0);
    assert_eq!(broker.shard_loads(), vec![0, 0, 0, 0]);
}

#[test]
fn recycled_ids_bound_the_table_and_stay_aba_safe() {
    let broker = Broker::builder().shards(2).build();
    let keeper = broker.subscribe("a = 1").unwrap();
    // Churn one slot: subscribe/unsubscribe repeatedly.
    for i in 0..20 {
        let sub = broker.subscribe(&format!("b = {i}")).unwrap();
        drop(sub);
    }
    // The table stayed bounded: only two slots were ever needed.
    assert_eq!(broker.inner.directory.read().id_bound(), 2);
    // The survivor still matches and can still be removed by its
    // (generation-tagged) id.
    assert_eq!(broker.publish(ev(&[("a", 1)])), 1);
    assert_eq!(keeper.drain().len(), 1);
    drop(keeper);
    assert_eq!(broker.subscription_count(), 0);
}

#[test]
fn shard_match_hits_follow_delivered_matches() {
    let broker = Broker::builder().shards(2).build();
    let _a = broker.subscribe("a = 1").unwrap(); // shard 0
    let _b = broker.subscribe("b = 1").unwrap(); // shard 1
    assert_eq!(broker.shard_match_hits(), vec![0, 0]);
    broker.publish(ev(&[("a", 1)]));
    broker.publish(ev(&[("a", 1)]));
    broker.publish(ev(&[("b", 1)]));
    assert_eq!(broker.shard_match_hits(), vec![2, 1]);
    // The batch path feeds the same counters.
    broker.publish_batch(&batch(&[&[("a", 1)], &[("b", 1)]]));
    assert_eq!(broker.shard_match_hits(), vec![3, 2]);
}

#[test]
fn content_aware_pruning_skips_shards_on_every_pipeline() {
    // Single publish and batch: a clustered partitionable workload
    // keeps each group on one shard, so a one-group event prunes
    // the other three.
    let broker = Broker::builder()
        .shards(4)
        .placement(PlacementPolicy::ClusterByAttribute)
        .build();
    let _subs: Vec<_> = (0..16)
        .map(|i| broker.subscribe(&format!("g{} = 1", i % 4)).unwrap())
        .collect();
    assert_eq!(broker.publish(ev(&[("g0", 1)])), 4);
    let after_publish: u64 = broker.shard_prune_counts().iter().sum();
    assert_eq!(
        after_publish, 3,
        "a one-group event candidates exactly one shard"
    );
    assert_eq!(
        broker.publish_batch(&batch(&[&[("g1", 1)], &[("g2", 1)]])),
        8
    );
    let after_batch: u64 = broker.shard_prune_counts().iter().sum();
    assert_eq!(after_batch, 3 + 2 * 3, "three prunes per batched event");
}

#[test]
fn synopsis_survives_migration_resize_and_churn() {
    // Drive every synopsis maintenance path — subscribe,
    // unsubscribe, count- and frequency-based migration, grow,
    // shrink — then verify no subscription was over-pruned: each
    // survivor still receives an event tailored to it, with
    // pruning active.
    let broker = Broker::builder()
        .shards(3)
        .placement(PlacementPolicy::ClusterByAttribute)
        .build();
    let mut subs: Vec<(usize, Subscription)> = (0..24)
        .map(|i| {
            let sub = broker
                .subscribe(&format!("topic = {} and n >= {}", i % 6, i / 6))
                .unwrap();
            (i, sub)
        })
        .collect();
    for &i in &[21usize, 13, 8, 2] {
        let pos = subs.iter().position(|(n, _)| *n == i).unwrap();
        drop(subs.remove(pos).1);
    }
    broker.rebalance();
    broker.resize(5);
    broker.resize(2);
    broker.rebalance_by_match_frequency(usize::MAX);
    broker.resize(3);
    broker.rebalance();

    for (i, sub) in &subs {
        let event = ev(&[("topic", (i % 6) as i64), ("n", (i / 6) as i64)]);
        assert!(
            broker.publish(event) >= 1,
            "survivor {i} lost to over-pruning"
        );
        assert!(!sub.drain().is_empty(), "survivor {i} missed its delivery");
    }
}

#[test]
fn match_frequency_rebalance_moves_load_off_the_hot_shard() {
    let broker = Broker::builder().shards(2).build();
    // Shard 0 gets the hot subscriptions (arrivals 0, 2, 4, ...),
    // shard 1 the cold ones — every publish of the hot event then
    // hits only shard 0.
    let _subs: Vec<_> = (0..8)
        .map(|i| {
            broker
                .subscribe(if i % 2 == 0 { "hot = 1" } else { "cold = 1" })
                .unwrap()
        })
        .collect();
    assert_eq!(broker.shard_loads(), vec![4, 4]);
    // First tick only arms the baseline.
    assert_eq!(broker.rebalance_by_match_frequency(8), 0);
    for _ in 0..50 {
        broker.publish(ev(&[("hot", 1)]));
    }
    let hits = broker.shard_match_hits();
    assert!(hits[0] >= 200 && hits[1] == 0, "skewed: {hits:?}");
    // The tick sees the skew and moves subscriptions from the hot
    // shard to the cool one — deliberately unbalancing counts.
    let moved = broker.rebalance_by_match_frequency(2);
    assert_eq!(moved, 2);
    assert_eq!(broker.shard_loads(), vec![2, 6]);
    // Delivery is untouched throughout.
    assert_eq!(broker.publish(ev(&[("hot", 1)])), 4);
    // A quiet interval moves nothing.
    assert_eq!(broker.rebalance_by_match_frequency(2), 0);
}

#[test]
fn directory_write_hook_blocks_subscribes_but_not_publishes() {
    let broker = Broker::builder().shards(2).build();
    let _sub = broker.subscribe("a = 1").unwrap();
    let delivered = broker.with_directory_write_held(|| {
        // A publish completes while the directory is write-held;
        // the full latch-gated proof lives in tests/lock_scope.rs.
        broker.publish(ev(&[("a", 1)]))
    });
    assert_eq!(delivered, 1);
}
