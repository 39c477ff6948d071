//! The shard walk's correctness claims, proven without relying on
//! timing:
//!
//! * **Answer identity** — `ShardedEngine::match_event_parallel` (the
//!   standalone scoped fan-out the benchmark times) must be
//!   *bit-identical* to the sequential shard walk: same matched ids in
//!   the same order, same reconciled [`MatchStats`]. Property-tested
//!   over deterministic churn streams for every engine kind and
//!   S ∈ {1, 3, 8}.
//! * **Batch answer identity** — `ShardedEngine::match_batch` (the
//!   shard-major walk) replays churn windows, with and without a skip
//!   mask, and must equal the per-event walk, ids and stats, for every
//!   kind and S ∈ {1, 3, 8}.
//! * **One publish pipeline** — the broker walks its shards on the
//!   publishing thread, however many subscriptions are live: every
//!   `phase1` call of `publish`, `publish_arc` and `publish_batch` is
//!   observed on the caller's thread.
//! * **Failure path** — an engine that panics mid-match unwinds to the
//!   `publish` caller, leaves no shard lock held, and costs later
//!   publishes (same thread or another) nothing.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

use boolmatch::core::{
    BatchScratch, FilterEngine, FulfilledSet, MatchScratch, MatchStats, MemoryUsage, ScratchPool,
    ShardedEngine, SubscribeError, UnsubscribeError,
};
use boolmatch::expr::Expr;
use boolmatch::prelude::*;
use boolmatch::workload::scenarios::{ChurnOp, ChurnScenario};

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

/// A real engine with two probes on phase 1: it records the thread it
/// ran on, and panics while `dying` is set.
struct ProbeEngine {
    inner: Box<dyn FilterEngine + Send + Sync>,
    phase1_threads: Arc<Mutex<Vec<ThreadId>>>,
    dying: Arc<AtomicBool>,
}

impl ProbeEngine {
    fn new(phase1_threads: &Arc<Mutex<Vec<ThreadId>>>, dying: &Arc<AtomicBool>) -> Box<Self> {
        Box::new(ProbeEngine {
            inner: EngineKind::NonCanonical.build(),
            phase1_threads: Arc::clone(phase1_threads),
            dying: Arc::clone(dying),
        })
    }
}

impl FilterEngine for ProbeEngine {
    fn kind(&self) -> EngineKind {
        self.inner.kind()
    }
    fn subscribe(&mut self, expr: &Expr) -> Result<SubscriptionId, SubscribeError> {
        self.inner.subscribe(expr)
    }
    fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), UnsubscribeError> {
        self.inner.unsubscribe(id)
    }
    fn expression(&self, id: SubscriptionId) -> Option<Expr> {
        self.inner.expression(id)
    }
    fn phase1(&self, event: &Event, out: &mut FulfilledSet) {
        if self.dying.load(Ordering::SeqCst) {
            panic!("engine dies mid-match (test)");
        }
        self.phase1_threads
            .lock()
            .unwrap()
            .push(thread::current().id());
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

/// The broker has one publish pipeline: with 4 096 live subscriptions
/// on 4 shards, every shard admitting the event, each of the 4 × 4
/// `phase1` calls behind one `publish`, one `publish_arc` and a
/// two-event `publish_batch` runs on the thread that published.
#[test]
fn every_phase1_runs_on_the_publishing_thread() {
    let phase1_threads = Arc::new(Mutex::new(Vec::new()));
    let never = Arc::new(AtomicBool::new(false));
    let broker = Broker::builder()
        .engine_instances(
            (0..4)
                .map(|_| ProbeEngine::new(&phase1_threads, &never) as _)
                .collect(),
        )
        .build();
    let _subs: Vec<Subscription> = (0..4_096)
        .map(|_| broker.subscribe("hit = 1").unwrap())
        .collect();
    let event = Arc::new(Event::builder().attr("hit", 1_i64).build());

    assert_eq!(broker.publish((*event).clone()), 4_096);
    assert_eq!(broker.publish_arc(Arc::clone(&event)), 4_096);
    assert_eq!(
        broker.publish_batch(&[Arc::clone(&event), Arc::clone(&event)]),
        2 * 4_096
    );

    let seen = phase1_threads.lock().unwrap();
    assert_eq!(seen.len(), 4 * 4, "one phase 1 per shard per event");
    let me = thread::current().id();
    assert!(
        seen.iter().all(|&id| id == me),
        "a shard was matched off the publishing thread"
    );
}

/// With no worker to swallow it, an engine panic unwinds to the
/// `publish` caller — from either publish body. Nothing is delivered
/// for that event, no shard lock stays held (subscribes that write-lock
/// both shards succeed afterwards), and the next publish delivers
/// exactly, on the thread that caught the panic and on another one.
#[test]
fn panicking_engine_unwinds_to_the_publisher_and_leaves_no_lock_held() {
    let phase1_threads = Arc::new(Mutex::new(Vec::new()));
    let never = Arc::new(AtomicBool::new(false));
    let dying = Arc::new(AtomicBool::new(false));
    let broker = Broker::builder()
        .engine_instances(vec![
            ProbeEngine::new(&phase1_threads, &never), // healthy shard 0
            ProbeEngine::new(&phase1_threads, &dying), // shard 1 dies on demand
        ])
        .build();
    let a = broker.subscribe("hit = 1").unwrap(); // shard 0
    let b = broker.subscribe("hit = 1").unwrap(); // shard 1
    let event = || Arc::new(Event::builder().attr("hit", 1_i64).build());

    dying.store(true, Ordering::SeqCst);
    let single = catch_unwind(AssertUnwindSafe(|| broker.publish_arc(event())));
    assert!(single.is_err(), "the panic reaches the publish caller");
    let batch = catch_unwind(AssertUnwindSafe(|| {
        broker.publish_batch(&[event(), event()])
    }));
    assert!(batch.is_err(), "the panic reaches the publish_batch caller");
    dying.store(false, Ordering::SeqCst);
    assert!(
        a.drain().is_empty() && b.drain().is_empty(),
        "an event whose match unwound is delivered to nobody"
    );
    let stats = broker.stats();
    assert_eq!(stats.events_published, 0);
    assert_eq!(stats.fanout_worker_failures, 0, "documented as always 0");

    // The unwind dropped shard 1's read guard: a subscribe on each
    // shard takes its write lock.
    let c = broker.subscribe("hit = 1").unwrap();
    let d = broker.subscribe("hit = 1").unwrap();
    assert_eq!(broker.shard_loads(), vec![2, 2]);

    assert_eq!(broker.publish_arc(event()), 4, "same thread, next publish");
    let elsewhere = thread::scope(|scope| {
        scope
            .spawn(|| broker.publish_batch(&[event(), event()]))
            .join()
            .unwrap()
    });
    assert_eq!(elsewhere, 8, "another thread, both widths covered");
    for sub in [&a, &b, &c, &d] {
        assert_eq!(sub.drain().len(), 3);
    }
}
