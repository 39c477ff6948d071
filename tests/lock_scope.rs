//! Lock scope: which broker operations proceed while another holds a
//! lock, proven without relying on timing. Every engine is a real one
//! wrapped in [`ProbeEngine`], whose hooks park, record or panic inside
//! the broker's locks; a [`Latch`] observes what can still proceed, so
//! a broken property fails on a timeout or an assertion, on one core
//! too. Proven: a shard write-locked by a subscribe or a migration does
//! not block matching elsewhere; publishers match inside one engine at
//! once; the directory's write lock blocks no publish; every `phase1`
//! runs on the publishing thread; an engine panic leaves no lock held;
//! an unsubscribe or a shrinking `resize` waits out a publish parked in
//! the shard it needs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use boolmatch::core::{
    BoxedEngine, FulfilledSet, MatchStats, MemoryUsage, SubscribeError, UnsubscribeError,
};
use boolmatch::prelude::*;

/// How long a latch waits before the proof counts its property broken.
const PATIENCE: Duration = Duration::from_secs(10);

/// A one-shot latch: `open` releases every current and future `wait`.
#[derive(Default)]
struct Latch {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn new() -> Arc<Self> {
        Arc::default()
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    /// Returns whether the latch opened within `timeout`.
    fn wait(&self, timeout: Duration) -> bool {
        let guard = self.open.lock().unwrap();
        let (_guard, result) = self
            .cv
            .wait_timeout_while(guard, timeout, |open| !*open)
            .unwrap();
        !result.timed_out()
    }
}

type Hook = Box<dyn Fn() + Send + Sync>;

/// A real non-canonical engine with two hooks (no-ops unless set), each
/// run before the call is forwarded: `on_phase1` inside a publish's visit of the
/// shard (its read lock held), `on_subscribe` inside a subscribe or a
/// migration's re-subscribe (its write lock held). Everything else is
/// the inner engine's — ids, the expression a migration asks for back,
/// and the bounds scratch is sized by.
struct ProbeEngine {
    inner: BoxedEngine,
    on_phase1: Hook,
    on_subscribe: Hook,
}

impl ProbeEngine {
    fn new() -> Self {
        ProbeEngine {
            inner: EngineKind::NonCanonical.build(),
            on_phase1: Box::new(|| {}),
            on_subscribe: Box::new(|| {}),
        }
    }

    fn on_phase1(mut self, hook: impl Fn() + Send + Sync + 'static) -> Self {
        self.on_phase1 = Box::new(hook);
        self
    }

    fn on_subscribe(mut self, hook: impl Fn() + Send + Sync + 'static) -> Self {
        self.on_subscribe = Box::new(hook);
        self
    }

    fn boxed(self) -> BoxedEngine {
        Box::new(self)
    }
}

impl FilterEngine for ProbeEngine {
    fn kind(&self) -> EngineKind {
        self.inner.kind()
    }
    fn subscribe(&mut self, expr: &Expr) -> Result<SubscriptionId, SubscribeError> {
        (self.on_subscribe)();
        self.inner.subscribe(expr)
    }
    fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), UnsubscribeError> {
        self.inner.unsubscribe(id)
    }
    fn expression(&self, id: SubscriptionId) -> Option<Expr> {
        self.inner.expression(id)
    }
    fn phase1(&self, event: &Event, out: &mut FulfilledSet) {
        (self.on_phase1)();
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

/// Where a hook parks: the first call made while `armed` is set clears
/// it, opens `entered` and waits for `release`. Unarmed calls pass
/// through, so set-up subscribes and publishes run freely.
#[derive(Default)]
struct Park {
    armed: AtomicBool,
    entered: Latch,
    release: Latch,
}

impl Park {
    fn hook(self: &Arc<Self>) -> impl Fn() + Send + Sync + 'static {
        let park = Arc::clone(self);
        move || {
            if park.armed.swap(false, Ordering::SeqCst) {
                park.entered.open();
                assert!(
                    park.release.wait(PATIENCE),
                    "test driver never released the parked call"
                );
            }
        }
    }
}

fn tick() -> Event {
    Event::builder().attr("tick", 1_i64).build()
}

/// While shard 1's write lock is held by an in-flight subscribe, a
/// publisher must still enter matching on shard 0. Under a single
/// engine lock this times out.
#[test]
fn write_locked_shard_does_not_block_matching_on_other_shards() {
    let matching_entered = Latch::new();
    let in_subscribe = Arc::new(Park::default());
    let entered = matching_entered.clone();
    let broker = Broker::builder()
        .engine_instances(vec![
            ProbeEngine::new().on_phase1(move || entered.open()).boxed(),
            ProbeEngine::new().on_subscribe(in_subscribe.hook()).boxed(),
        ])
        .build();

    // Least-loaded placement: subscription 0 lands on shard 0, 1 on
    // shard 1, where it parks in `subscribe` holding the write lock. An
    // `or`-rooted resident keeps shard 0 a candidate for the probe
    // event, which matches nothing.
    let _warm = broker.subscribe("warmup = 0 or other = 1").unwrap();
    in_subscribe.armed.store(true, Ordering::SeqCst);

    let _blocked = thread::scope(|scope| {
        let subscriber = scope.spawn(|| broker.subscribe("blocked = 1").unwrap());
        assert!(
            in_subscribe.entered.wait(PATIENCE),
            "blocked subscribe never started"
        );

        // Shard 1 is write-locked; a publish must still match on shard 0.
        let publisher = scope.spawn(|| broker.publish(Event::builder().attr("n", 1_i64).build()));
        assert!(
            matching_entered.wait(PATIENCE),
            "publisher never entered matching on shard 0 while shard 1 \
             was write-locked: shard locks are not independent"
        );

        in_subscribe.release.open();
        let sub = subscriber.join().unwrap();
        assert_eq!(publisher.join().unwrap(), 0, "gate engines match nothing");
        assert_eq!(sub.id().slot() % 2, 1, "second subscription is shard 1's");
        sub // keep the handle alive so drop doesn't unsubscribe it yet
    });

    assert_eq!(broker.subscription_count(), 2);
    assert_eq!(broker.stats().events_published, 1);
}

/// Matching is shared-read: N publishers must be inside `phase1` at
/// once before any may leave — the Nth arrival opens the latch. A
/// publish that write-locks its shard fails here on the timeout.
#[test]
fn publishers_match_inside_the_engine_simultaneously() {
    const PUBLISHERS: usize = 4;
    let arrived = Arc::new(AtomicUsize::new(0));
    let (count, all_in) = (arrived.clone(), Latch::new());
    let broker = Broker::builder()
        .engine_instances(vec![ProbeEngine::new()
            .on_phase1(move || {
                if count.fetch_add(1, Ordering::SeqCst) + 1 == PUBLISHERS {
                    all_in.open();
                }
                assert!(
                    all_in.wait(PATIENCE),
                    "publishers never overlapped inside matching: publish is \
                     holding an exclusive engine lock"
                );
            })
            .boxed()])
        .build();
    // An empty shard admits no event, so `phase1` would never run: an
    // `or`-rooted resident keeps the shard a candidate.
    let _resident = broker.subscribe("warmup = 0 or other = 1").unwrap();

    thread::scope(|scope| {
        for _ in 0..PUBLISHERS {
            scope.spawn(|| broker.publish(Event::builder().attr("n", 1_i64).build()));
        }
    });
    assert_eq!(
        arrived.load(Ordering::SeqCst),
        PUBLISHERS,
        "every publish matched"
    );
    assert_eq!(broker.stats().events_published, PUBLISHERS as u64);
}

/// While a migration holds the write locks of its shard pair (parked
/// inside the target engine's re-subscribe), a publisher must still
/// enter matching on a shard outside the pair. Under a single engine
/// lock — or a stop-the-world rebuild — this times out.
#[test]
fn migration_does_not_block_matching_on_other_shards() {
    let matching_entered = Latch::new();
    let in_migration = Arc::new(Park::default());
    let entered = matching_entered.clone();
    let broker = Broker::builder()
        .engine_instances(vec![
            // Shard 0: outside the migrating pair; announces matching.
            ProbeEngine::new().on_phase1(move || entered.open()).boxed(),
            // Shard 1: the migration target; parks inside `subscribe`
            // once armed.
            ProbeEngine::new().on_subscribe(in_migration.hook()).boxed(),
            // Shard 2: the migration source.
            ProbeEngine::new().boxed(),
        ])
        .build();

    // Least-loaded placement: arrivals 0..6 land on shards 0,1,2,0,1,2.
    // `or`-rooted residents keep every shard always-candidate for the
    // probe event, which matches nothing.
    let subs: Vec<Subscription> = (0..6)
        .map(|i| broker.subscribe(&format!("s = {i} or t = {i}")).unwrap())
        .collect();
    assert_eq!(broker.shard_loads(), vec![2, 2, 2]);
    // Skew to loads [1, 0, 2]: the skew pair is (from=2, to=1).
    broker.unsubscribe(subs[1].id());
    broker.unsubscribe(subs[4].id());
    broker.unsubscribe(subs[0].id());
    assert_eq!(broker.shard_loads(), vec![1, 0, 2]);

    in_migration.armed.store(true, Ordering::SeqCst); // only the first move parks
    thread::scope(|scope| {
        let migrator = scope.spawn(|| broker.rebalance());
        assert!(
            in_migration.entered.wait(PATIENCE),
            "migration never reached the target-side subscribe"
        );

        // The migration write-locks shards 1 and 2; a publish must still
        // enter matching on shard 0.
        let publisher = scope.spawn(|| broker.publish(Event::builder().attr("n", 1_i64).build()));
        assert!(
            matching_entered.wait(PATIENCE),
            "publisher never entered matching on shard 0 while the \
             migration held shards 1 and 2: migration is not lock-scoped"
        );

        in_migration.release.open();
        let moved = migrator.join().unwrap();
        assert!(moved >= 1, "the migration completed");
        assert_eq!(publisher.join().unwrap(), 0, "gate engines match nothing");
    });

    let loads = broker.shard_loads();
    let spread = loads.iter().max().unwrap() - loads.iter().min().unwrap();
    assert!(spread <= 1, "balanced after the gated migration: {loads:?}");
    assert_eq!(broker.stats().subscriptions_migrated, 1);
    assert_eq!(broker.subscription_count(), 3);
}

/// A thread parks **holding the directory write lock** (the lock every
/// subscribe, unsubscribe and migration needs); publishes on every
/// shard, single and batch, must still complete while it is parked. A
/// publish that took the directory read lock to translate matched ids
/// would hang at the first publish.
#[test]
fn publishes_flow_while_directory_write_lock_is_held() {
    let ev = |name: &str, value: i64| Event::builder().attr(name, value).build();
    let broker = Broker::builder().shards(3).build();
    let subs: Vec<Subscription> = (0..9)
        .map(|i| broker.subscribe(&format!("a = {i} or all = 1")).unwrap())
        .collect();
    assert_eq!(broker.shard_loads(), vec![3, 3, 3]);

    let lock_held = Latch::new();
    let release = Latch::new();
    let published = Latch::new();

    thread::scope(|scope| {
        let holder = scope.spawn(|| {
            broker.with_directory_write_held(|| {
                lock_held.open();
                assert!(
                    release.wait(Duration::from_secs(30)),
                    "test driver never released the directory holder"
                );
            });
        });
        assert!(
            lock_held.wait(PATIENCE),
            "holder never acquired the directory write lock"
        );

        // With the directory write-held, publish through every entry:
        // single, arc, and batch. Every subscription lives on some
        // shard, so all three shards translate matched ids here.
        let publisher = scope.spawn(|| {
            let mut delivered = broker.publish(ev("all", 1));
            delivered += broker.publish_arc(Arc::new(ev("all", 1)));
            delivered += broker.publish_batch(&[Arc::new(ev("all", 1)), Arc::new(ev("a", 4))]);
            published.open();
            delivered
        });
        assert!(
            published.wait(PATIENCE),
            "a publish blocked while the directory write lock was held: \
             the directory is back on the hot path"
        );
        assert_eq!(
            publisher.join().unwrap(),
            9 + 9 + 9 + 1,
            "all deliveries completed under the held lock"
        );
        release.open();
        holder.join().unwrap();
    });

    for sub in &subs {
        assert_eq!(sub.drain().len(), 4 - usize::from(sub.id().slot() != 4));
    }
}

/// The broker has one publish pipeline: with 4 096 live subscriptions
/// on 4 shards, every shard admitting the event, each of the 4 × 4
/// `phase1` calls behind one `publish`, one `publish_arc` and a
/// two-event `publish_batch` runs on the thread that published.
#[test]
fn every_phase1_runs_on_the_publishing_thread() {
    let phase1_threads = Arc::new(Mutex::new(Vec::new()));
    let broker = Broker::builder()
        .engine_instances(
            (0..4)
                .map(|_| {
                    let seen = phase1_threads.clone();
                    ProbeEngine::new()
                        .on_phase1(move || seen.lock().unwrap().push(thread::current().id()))
                        .boxed()
                })
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
    let dying = Arc::new(AtomicBool::new(false));
    let dies = dying.clone();
    let broker = Broker::builder()
        .engine_instances(vec![
            ProbeEngine::new().boxed(), // healthy shard 0
            ProbeEngine::new() // shard 1 dies on demand
                .on_phase1(move || assert!(!dies.load(Ordering::SeqCst), "engine dies mid-match"))
                .boxed(),
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

/// An unsubscribe racing a publish parked in `phase1` on the
/// subscriber's shard. Outcome: the unsubscribe removes the sender at
/// once but does not return until the match releases the shard (it
/// needs the shard's write lock to remove the engine entry); the
/// racing event is then matched, finds no sender and is not delivered
/// to the unsubscribed subscriber, while its shard neighbour receives
/// it exactly once.
#[test]
fn unsubscribe_racing_a_parked_publish_returns_after_it_and_misses_the_event() {
    let in_phase1 = Arc::new(Park::default());
    let broker = Broker::builder()
        .engine_instances(vec![ProbeEngine::new().on_phase1(in_phase1.hook()).boxed()])
        .build();
    let leaving = broker.subscribe("tick = 1").unwrap();
    let staying = broker.subscribe("tick = 1").unwrap();

    in_phase1.armed.store(true, Ordering::SeqCst);
    thread::scope(|scope| {
        let publisher = scope.spawn(|| broker.publish(tick()));
        assert!(
            in_phase1.entered.wait(PATIENCE),
            "publish never reached phase 1"
        );
        let unsubscriber = scope.spawn(|| broker.unsubscribe(leaving.id()));
        let deadline = Instant::now() + PATIENCE;
        while broker.subscription_count() != 1 {
            assert!(
                Instant::now() < deadline,
                "unsubscribe never removed the sender"
            );
            thread::yield_now();
        }
        assert!(
            !unsubscriber.is_finished(),
            "unsubscribe returned while a match held its shard"
        );

        in_phase1.release.open();
        assert_eq!(publisher.join().unwrap(), 1, "only the neighbour receives");
        assert!(unsubscriber.join().unwrap());
    });

    assert!(
        leaving.drain().is_empty(),
        "the racing event is not delivered"
    );
    assert_eq!(staying.drain().len(), 1);
    let stats = broker.stats();
    assert_eq!(stats.notifications_delivered, 1);
    assert_eq!(stats.notifications_disconnected, 0);
    assert_eq!(broker.shard_loads(), vec![1]);
    assert_eq!(broker.publish(tick()), 1, "the engine entry is gone too");
    assert_eq!(staying.drain().len(), 1);
}

/// A shrinking `resize` racing a publish parked in `phase1` on the
/// dying shard. Outcome: `resize` does not return until the publish
/// releases that shard (draining it needs the shard's write lock); the
/// racing event is delivered exactly once to every subscriber, on both
/// shards; afterwards every subscription lives on the survivor and the
/// next event again reaches each exactly once.
#[test]
fn shrinking_resize_racing_a_parked_publish_waits_and_delivers_once() {
    let in_phase1 = Arc::new(Park::default());
    let broker = Broker::builder()
        .engine_instances(vec![
            ProbeEngine::new().boxed(),                             // the survivor
            ProbeEngine::new().on_phase1(in_phase1.hook()).boxed(), // the dying shard
        ])
        .build();
    let subs: Vec<Subscription> = (0..4)
        .map(|_| broker.subscribe("tick = 1").unwrap())
        .collect();
    assert_eq!(broker.shard_loads(), vec![2, 2]);

    in_phase1.armed.store(true, Ordering::SeqCst);
    thread::scope(|scope| {
        let publisher = scope.spawn(|| broker.publish(tick()));
        assert!(
            in_phase1.entered.wait(PATIENCE),
            "publish never reached the dying shard"
        );
        let resizer = scope.spawn(|| broker.resize(1));
        assert!(
            !resizer.is_finished(),
            "resize returned while a match held the dying shard"
        );

        in_phase1.release.open();
        assert_eq!(publisher.join().unwrap(), 4, "every subscriber, once");
        assert_eq!(resizer.join().unwrap(), 2, "the dying shard drained");
    });

    assert_eq!(broker.shard_count(), 1);
    assert_eq!(broker.shard_loads(), vec![4]);
    for sub in &subs {
        assert_eq!(sub.drain().len(), 1, "the racing event, exactly once");
    }
    assert_eq!(broker.publish(tick()), 4);
    for sub in &subs {
        assert_eq!(sub.drain().len(), 1);
    }
}
