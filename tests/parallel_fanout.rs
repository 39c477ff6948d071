//! The parallel publish pipeline's correctness claims, proven without
//! relying on timing:
//!
//! * **Answer identity** — fanning one event out across shards must be
//!   *bit-identical* to the sequential shard walk: same matched ids in
//!   the same order, same reconciled [`MatchStats`]. Property-tested
//!   over deterministic churn streams for every engine kind and
//!   S ∈ {1, 3, 8} at the core level, and for forced-parallel vs
//!   forced-sequential brokers (single publishes and batches).
//! * **Batch answer identity** — `ShardedEngine::match_batch` (the
//!   shard-major walk) replays churn windows, with and without a skip
//!   mask, and must equal the per-event walk, ids and stats, for every
//!   kind and S ∈ {1, 3, 8}.
//! * **Merge isolation** — a stalled worker on one shard can neither
//!   corrupt nor reorder another shard's contribution to the merge:
//!   results land by shard index, not completion order, and the other
//!   shards keep matching while one is stuck (latch-observed, like the
//!   gate tests in `shard_concurrency.rs`).
//! * **Scratch-pool hygiene** — checkout applies reset +
//!   `ensure_capacity` once, and after warm-up the pool stops
//!   allocating: its retained-scratch count and heap footprint are
//!   probed before and after 10k publishes and must not move — nor
//!   does its fresh-build count on a wide, mostly pruned shard set.

use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use boolmatch::core::{
    BatchScratch, FilterEngine, FulfilledSet, MatchScratch, MatchStats, MemoryUsage, ScratchPool,
    SubscribeError, UnsubscribeError,
};
use boolmatch::expr::Expr;
use boolmatch::prelude::*;
use boolmatch::workload::scenarios::{ChurnOp, ChurnScenario, StockScenario};

/// Parallel fan-out must equal the sequential walk under subscription
/// churn, for every engine kind and shard count — ids, order, stats.
#[test]
fn parallel_matches_sequential_under_churn() {
    for kind in EngineKind::ALL {
        for shards in [1usize, 3, 8] {
            let mut engine = ShardedEngine::new(kind, shards);
            let scratches = ScratchPool::new(shards);
            let mut seq = MatchScratch::new();
            let mut par = MatchScratch::new();
            let mut live: Vec<SubscriptionId> = Vec::new();

            let mut churn = ChurnScenario::new(31, 80);
            for (step, op) in churn.ops(1_500).into_iter().enumerate() {
                match op {
                    ChurnOp::Subscribe(expr) => {
                        live.push(engine.subscribe(&expr).expect("accepted"));
                    }
                    ChurnOp::Unsubscribe(i) => {
                        engine.unsubscribe(live.remove(i)).expect("live id");
                    }
                    ChurnOp::Publish(event) => {
                        let seq_stats = engine.match_event_into(&event, &mut seq);
                        let par_stats = engine.match_event_parallel(&event, &scratches, &mut par);
                        assert_eq!(
                            seq.matched(),
                            par.matched(),
                            "kind={kind} shards={shards} step={step}"
                        );
                        assert_eq!(
                            seq_stats, par_stats,
                            "stats reconcile: kind={kind} shards={shards} step={step}"
                        );
                    }
                }
            }
        }
    }
}

/// Matches every event of `window` per-event (the reference), then as
/// one batch, and asserts the batch agrees with the reference: the same
/// ids per event (as sets) and the same summed [`MatchStats`] —
/// `batch_events`/`batch_passes`, which only the batch path counts,
/// zeroed first. A second batch skips every third event: skipped events
/// report nothing, the others are unchanged.
fn assert_batch_equals_per_event(
    engine: &ShardedEngine,
    window: &[Arc<Event>],
    scratch: &mut MatchScratch,
    seq_batch: &mut BatchScratch,
    context: &str,
) {
    if window.is_empty() {
        return;
    }
    let mut scalar_total = MatchStats::default();
    let mut want: Vec<Vec<SubscriptionId>> = Vec::new();
    for event in window {
        scalar_total = scalar_total + engine.match_event_into(event, scratch);
        let mut ids = scratch.matched().to_vec();
        ids.sort_unstable();
        want.push(ids);
    }
    let mut seq_stats = engine.match_batch(window, &[], seq_batch);
    for (e, want_ids) in want.iter().enumerate() {
        let mut got = seq_batch.matched(e).to_vec();
        got.sort_unstable();
        assert_eq!(&got, want_ids, "sequential batch ids: {context} event {e}");
    }
    seq_stats.batch_events = 0;
    seq_stats.batch_passes = 0;
    assert_eq!(seq_stats, scalar_total, "sequential batch stats: {context}");

    let skip: Vec<bool> = (0..window.len()).map(|e| e % 3 == 2).collect();
    engine.match_batch(window, &skip, seq_batch);
    for (e, want_ids) in want.iter().enumerate() {
        let mut got = seq_batch.matched(e).to_vec();
        got.sort_unstable();
        if skip[e] {
            assert!(
                got.is_empty(),
                "skipped event reported ids: {context} event {e}"
            );
        } else {
            assert_eq!(&got, want_ids, "masked batch ids: {context} event {e}");
        }
    }
}

/// Batches under churn: windows of the publish stream, matched as one
/// batch, must equal the per-event walk — ids and stats — for every
/// engine kind and S ∈ {1, 3, 8}, across subscribe/unsubscribe churn
/// that recycles flat slots and retracts synopsis entries mid-stream.
#[test]
fn batch_matches_per_event_under_churn() {
    for kind in EngineKind::ALL {
        for shards in [1usize, 3, 8] {
            let mut engine = ShardedEngine::new(kind, shards);
            let mut scratch = MatchScratch::new();
            let mut seq_batch = BatchScratch::new();
            let mut live: Vec<SubscriptionId> = Vec::new();
            let mut window: Vec<Arc<Event>> = Vec::new();
            let mut window_cap = 1usize;

            let mut churn = ChurnScenario::new(59, 80);
            for (step, op) in churn.ops(1_500).into_iter().enumerate() {
                match op {
                    ChurnOp::Subscribe(expr) => {
                        // Flush before the table changes under the
                        // pending window.
                        assert_batch_equals_per_event(
                            &engine,
                            &window,
                            &mut scratch,
                            &mut seq_batch,
                            &format!("kind={kind} shards={shards} step={step}"),
                        );
                        window.clear();
                        live.push(engine.subscribe(&expr).expect("accepted"));
                    }
                    ChurnOp::Unsubscribe(i) => {
                        assert_batch_equals_per_event(
                            &engine,
                            &window,
                            &mut scratch,
                            &mut seq_batch,
                            &format!("kind={kind} shards={shards} step={step}"),
                        );
                        window.clear();
                        engine.unsubscribe(live.remove(i)).expect("live id");
                    }
                    ChurnOp::Publish(event) => {
                        window.push(Arc::new(event));
                        if window.len() >= window_cap {
                            assert_batch_equals_per_event(
                                &engine,
                                &window,
                                &mut scratch,
                                &mut seq_batch,
                                &format!("kind={kind} shards={shards} step={step}"),
                            );
                            window.clear();
                            window_cap = window_cap % 9 + 1;
                        }
                    }
                }
            }
            assert_batch_equals_per_event(
                &engine,
                &window,
                &mut scratch,
                &mut seq_batch,
                &format!("kind={kind} shards={shards} final"),
            );
        }
    }
}

/// Forced-parallel vs forced-sequential brokers replay one churn
/// stream: every publish (and every flushed batch) must deliver
/// identically, notification for notification.
#[test]
fn parallel_broker_delivers_like_sequential_under_churn() {
    for kind in EngineKind::ALL {
        let par = Broker::builder()
            .engine(kind)
            .shards(4)
            .parallel_threshold(0)
            .build();
        let seq = Broker::builder()
            .engine(kind)
            .shards(4)
            .parallel_threshold(usize::MAX)
            .build();
        let mut par_live: Vec<Subscription> = Vec::new();
        let mut seq_live: Vec<Subscription> = Vec::new();
        let mut batch: Vec<Arc<Event>> = Vec::new();

        let flush = |batch: &mut Vec<Arc<Event>>| {
            if !batch.is_empty() {
                assert_eq!(par.publish_batch(batch), seq.publish_batch(batch));
                batch.clear();
            }
        };

        let mut churn = ChurnScenario::new(47, 60).with_publish_ratio(0.7);
        for (step, op) in churn.ops(2_000).into_iter().enumerate() {
            match op {
                ChurnOp::Subscribe(expr) => {
                    flush(&mut batch);
                    let a = par.subscribe_expr(&expr).unwrap();
                    let b = seq.subscribe_expr(&expr).unwrap();
                    assert_eq!(a.id(), b.id(), "kind={kind} step={step}");
                    par_live.push(a);
                    seq_live.push(b);
                }
                ChurnOp::Unsubscribe(i) => {
                    flush(&mut batch);
                    drop(par_live.remove(i));
                    drop(seq_live.remove(i));
                }
                ChurnOp::Publish(event) => {
                    // Alternate single publishes and batches so both
                    // parallel paths are exercised.
                    if step % 3 == 0 {
                        batch.push(Arc::new(event));
                    } else {
                        flush(&mut batch);
                        assert_eq!(
                            par.publish(event.clone()),
                            seq.publish(event),
                            "kind={kind} step={step}"
                        );
                    }
                }
            }
        }
        flush(&mut batch);

        for (i, (a, b)) in par_live.iter().zip(&seq_live).enumerate() {
            let an = a.drain();
            let bn = b.drain();
            assert_eq!(an.len(), bn.len(), "survivor {i} on {kind}");
            for (x, y) in an.iter().zip(&bn) {
                assert_eq!(x.get("price"), y.get("price"), "survivor {i} on {kind}");
            }
        }
        assert_eq!(
            par.stats().notifications_delivered,
            seq.stats().notifications_delivered,
            "kind={kind}"
        );
    }
}

/// A one-shot latch (same pattern as `shard_concurrency.rs`).
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

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait(&self, timeout: Duration) -> bool {
        let guard = self.open.lock().unwrap();
        let (guard, result) = self
            .cv
            .wait_timeout_while(guard, timeout, |open| !*open)
            .unwrap();
        drop(guard);
        !result.timed_out()
    }
}

/// A real engine wrapped with latches: phase 1 can announce it was
/// entered and/or park until released.
struct GatedEngine {
    inner: Box<dyn FilterEngine + Send + Sync>,
    entered: Option<Arc<Latch>>,
    release: Option<Arc<Latch>>,
    panic_in_phase1: bool,
}

impl GatedEngine {
    fn new(entered: Option<Arc<Latch>>, release: Option<Arc<Latch>>) -> Box<Self> {
        Box::new(GatedEngine {
            inner: EngineKind::NonCanonical.build(),
            entered,
            release,
            panic_in_phase1: false,
        })
    }

    fn panicking() -> Box<Self> {
        Box::new(GatedEngine {
            inner: EngineKind::NonCanonical.build(),
            entered: None,
            release: None,
            panic_in_phase1: true,
        })
    }
}

impl FilterEngine for GatedEngine {
    fn kind(&self) -> EngineKind {
        self.inner.kind()
    }
    fn subscribe(&mut self, expr: &Expr) -> Result<SubscriptionId, SubscribeError> {
        self.inner.subscribe(expr)
    }
    fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), UnsubscribeError> {
        self.inner.unsubscribe(id)
    }
    fn phase1(&self, event: &Event, out: &mut FulfilledSet) {
        if self.panic_in_phase1 {
            panic!("engine dies mid-match (test)");
        }
        if let Some(entered) = &self.entered {
            entered.open();
        }
        if let Some(release) = &self.release {
            assert!(
                release.wait(Duration::from_secs(10)),
                "test driver never released the stalled shard"
            );
        }
        self.inner.phase1(event, out);
    }
    fn phase2(
        &self,
        fulfilled: &FulfilledSet,
        scratch: &mut MatchScratch,
        matched: &mut Vec<SubscriptionId>,
    ) -> MatchStats {
        self.inner.phase2(fulfilled, scratch, matched)
    }
    fn subscription_count(&self) -> usize {
        self.inner.subscription_count()
    }
    fn subscription_id_bound(&self) -> usize {
        self.inner.subscription_id_bound()
    }
    fn registered_units(&self) -> usize {
        self.inner.registered_units()
    }
    fn unit_slot_bound(&self) -> usize {
        self.inner.unit_slot_bound()
    }
    fn predicate_count(&self) -> usize {
        self.inner.predicate_count()
    }
    fn predicate_universe(&self) -> usize {
        self.inner.predicate_universe()
    }
    fn memory_usage(&self) -> MemoryUsage {
        self.inner.memory_usage()
    }
}

/// The deterministic merge gate: while shard 1's worker is stalled
/// mid-match, shard 0's portion of the *same* publish proceeds
/// (latch-observed); after release, the merged delivery is exact —
/// the stall neither lost, duplicated, nor cross-contaminated either
/// shard's matches.
#[test]
fn stalled_worker_cannot_corrupt_or_reorder_the_merge() {
    let shard0_entered = Latch::new();
    let shard1_stalled = Latch::new();
    let release = Latch::new();

    let broker = Broker::builder()
        .engine_instances(vec![
            GatedEngine::new(Some(shard0_entered.clone()), None),
            GatedEngine::new(Some(shard1_stalled.clone()), Some(release.clone())),
        ])
        .parallel_threshold(0)
        .worker_threads(1)
        .build();

    // Round-robin: `a` lands on shard 0, `b` on shard 1; the event
    // matches both, so the merge must produce exactly one notification
    // for each.
    let a = broker.subscribe("hit = 1").unwrap();
    let b = broker.subscribe("hit = 1 or hit = 2").unwrap();

    thread::scope(|scope| {
        let publisher = {
            let broker = broker.clone();
            scope.spawn(move || broker.publish(Event::builder().attr("hit", 1_i64).build()))
        };

        // The worker is stalled inside shard 1's phase 1...
        assert!(
            shard1_stalled.wait(Duration::from_secs(10)),
            "shard 1's worker never started matching"
        );
        // ...yet the publisher still matches shard 0 inline.
        assert!(
            shard0_entered.wait(Duration::from_secs(10)),
            "a stalled worker on shard 1 blocked shard 0's matching"
        );

        release.open();
        assert_eq!(publisher.join().unwrap(), 2, "both shards delivered");
    });

    assert_eq!(a.drain().len(), 1, "shard 0's match survived the stall");
    assert_eq!(b.drain().len(), 1, "shard 1's match arrived after release");
    assert_eq!(broker.stats().notifications_delivered, 2);
}

/// A worker that panics mid-match must neither wedge the publish nor
/// pass silently: the publish completes with the healthy shards'
/// deliveries and `BrokerStats::fanout_worker_failures` records every
/// lost shard, and the pool keeps serving later publishes.
#[test]
fn panicking_worker_is_counted_and_does_not_wedge_publishing() {
    let broker = Broker::builder()
        .engine_instances(vec![
            GatedEngine::new(None, None), // healthy shard 0
            GatedEngine::panicking(),     // shard 1 dies in phase 1
        ])
        .parallel_threshold(0)
        .worker_threads(1)
        .build();
    let a = broker.subscribe("hit = 1").unwrap(); // shard 0
    let b = broker.subscribe("hit = 1").unwrap(); // shard 1 (never matched)

    for round in 1..=2u64 {
        let delivered = broker.publish(Event::builder().attr("hit", 1_i64).build());
        assert_eq!(delivered, 1, "round {round}: only shard 0 delivered");
        assert_eq!(
            broker.stats().fanout_worker_failures,
            round,
            "round {round}: the lost shard is visible in the stats"
        );
    }
    assert_eq!(a.drain().len(), 2);
    assert_eq!(
        b.drain().len(),
        0,
        "the dead shard's subscriber got nothing"
    );
}

/// Scratch-pool steady state: warm the pool, then hammer 10k parallel
/// publishes — the pool must neither grow its retained-scratch count
/// nor its heap footprint (checkout hygiene reuses, never reallocates).
#[test]
fn scratch_pool_stops_allocating_after_warmup() {
    let broker = Broker::builder()
        .engine(EngineKind::NonCanonical)
        .shards(2)
        .worker_threads(1)
        .parallel_threshold(0)
        .build();
    let mut stock = StockScenario::new(2_026);
    let _subs: Vec<Subscription> = stock
        .subscriptions(100)
        .iter()
        .map(|e| broker.subscribe_expr(e).unwrap())
        .collect();
    // A fixed event set, so repeated publishes cannot raise any
    // per-event high-water mark after the warm-up pass has seen them
    // all.
    let events: Vec<Event> = (0..100).map(|_| stock.tick()).collect();

    for event in &events {
        broker.publish(event.clone());
    }
    let pool = broker
        .scratch_pool()
        .expect("multi-shard broker pools scratches");
    let warm_pooled = pool.pooled();
    let warm_bytes = pool.heap_bytes();
    assert!(warm_pooled >= 1, "warm-up parked a scratch");
    assert!(warm_bytes > 0, "warm scratch holds buffers");

    for i in 0..10_000 {
        broker.publish(events[i % events.len()].clone());
    }
    assert_eq!(pool.pooled(), warm_pooled, "pool retention is steady");
    assert_eq!(
        pool.heap_bytes(),
        warm_bytes,
        "10k publishes allocated no new scratch memory"
    );
    assert_eq!(broker.stats().events_published, 10_100);
}

/// The lease-order and pool-sizing fix, pinned by the pools' own
/// fresh-build gauge: on 8 clustered shards with 2 workers, where the
/// synopses prune 7 of 8 shards per event, a pruned shard takes no
/// lease and the pools hold one scratch per remote shard — so after a
/// warm-up no publish of either width builds a scratch. (Leasing before
/// asking the synopsis, from pools of `workers + 1`, built 4 per
/// publish on this shape.)
#[test]
fn mostly_pruned_fan_out_builds_no_scratches_after_warmup() {
    let broker = Broker::builder()
        .engine(EngineKind::NonCanonical)
        .shards(8)
        .placement(PlacementPolicy::ClusterByAttribute)
        .worker_threads(2)
        .parallel_threshold(0)
        .build();
    let _subs: Vec<Subscription> = (0..64)
        .map(|i| format!("g{} = 1 and seq >= {}", i % 8, i / 8))
        .map(|text| broker.subscribe(&text).unwrap())
        .collect();
    // One event per group: alone it candidates one shard; the eight
    // together, as a batch, candidate every shard that has residents.
    let events: Vec<Arc<Event>> = (0..8)
        .map(|g| Event::from_pairs([(format!("g{g}"), 1i64), ("seq".to_string(), 3)]))
        .map(Arc::new)
        .collect();

    for event in &events {
        broker.publish_arc(Arc::clone(event));
    }
    broker.publish_batch(&events);
    let pool = broker.scratch_pool().expect("multi-shard broker");
    let batch_pool = broker.batch_scratch_pool().expect("multi-shard broker");
    let (fresh, batch_fresh) = (pool.fresh(), batch_pool.fresh());
    let prunes = |broker: &Broker| broker.shard_prune_counts().iter().sum::<u64>();
    let pruned_before = prunes(&broker);

    for i in 0..2_000 {
        assert_eq!(broker.publish_arc(Arc::clone(&events[i % 8])), 4);
    }
    for _ in 0..50 {
        assert_eq!(broker.publish_batch(&events), 32);
    }
    assert!(
        prunes(&broker) - pruned_before >= 7 * (2_000 + 50 * 8),
        "the synopses prune at least 7 of 8 shards per event"
    );
    assert_eq!(pool.fresh(), fresh, "a publish built a scratch");
    assert_eq!(batch_pool.fresh(), batch_fresh, "a batch built a scratch");
}

/// The trim-cap × scratch-pool interaction (PR-5 satellite): one
/// pathological spike event matched **on a worker thread** must not pin
/// its peak allocation in the pooled scratches. Steady traffic below
/// the cap keeps its warm capacity (no trim, no re-allocation); the
/// spike's return is trimmed to nothing; steady traffic then re-warms
/// and keeps matching correctly.
#[test]
fn worker_thread_spike_does_not_pin_pooled_scratch_capacity() {
    let cap = 24 << 10; // between the steady and spike footprints
    let broker = Broker::builder()
        .engine(EngineKind::NonCanonical)
        .shards(2)
        .worker_threads(1)
        .parallel_threshold(0) // every publish fans out to the worker
        .scratch_trim_cap(cap)
        .build();
    // A small steady population and a large spike-only population: the
    // spike subs size the stamp arrays (steady footprint) but only the
    // spike event explodes the candidate/matched buffers.
    let _steady: Vec<Subscription> = (0..8)
        .map(|i| broker.subscribe(&format!("tick = {i}")).unwrap())
        .collect();
    let _spikers: Vec<Subscription> = (0..4_000)
        .map(|_| broker.subscribe("boom = 1").unwrap())
        .collect();
    let steady_event = Event::builder().attr("tick", 3_i64).build();
    let spike_event = Event::builder().attr("boom", 1_i64).build();

    // Warm up on steady traffic; the warm footprint must sit below the
    // cap or the test would not distinguish steady from spike.
    for _ in 0..50 {
        assert_eq!(broker.publish(steady_event.clone()), 1);
    }
    let pool = broker.scratch_pool().expect("multi-shard broker");
    let warm = pool.heap_bytes();
    assert!(warm > 0, "steady matching warmed a pooled scratch");
    assert!(
        warm <= cap,
        "test invariant: steady footprint {warm} must fit the cap {cap}"
    );
    // Steady state really is steady: no trims, no re-allocation.
    for _ in 0..50 {
        broker.publish(steady_event.clone());
    }
    assert_eq!(pool.heap_bytes(), warm, "steady traffic never trims");

    // The spike: ~2000 matches on the worker's shard grow its lease far
    // past the cap...
    assert_eq!(broker.publish(spike_event.clone()), 4_000);
    // ...and the return trims it instead of parking the high-water
    // capacity (the old behaviour pinned it for the broker's lifetime).
    assert!(
        pool.heap_bytes() < warm,
        "spike capacity was parked: {} >= warm {warm}",
        pool.heap_bytes()
    );
    assert!(pool.pooled() >= 1, "trimmed, not dropped");

    // Steady traffic re-warms lazily and stays correct — and the
    // re-warmed footprint is the steady one, not the spike's.
    for _ in 0..50 {
        assert_eq!(broker.publish(steady_event.clone()), 1);
    }
    let rewarmed = pool.heap_bytes();
    assert!(rewarmed > 0 && rewarmed <= cap, "re-warmed to steady size");
    // The spike still delivers exactly when it happens again.
    assert_eq!(broker.publish(spike_event), 4_000);
    assert_eq!(broker.publish(steady_event), 1);
}
