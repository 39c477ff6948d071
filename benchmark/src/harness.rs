//! The load harness: one publisher thread (the caller) and one
//! delivery worker, consumer-callback subscribers, and the phases
//! every workload goes through — set-up, verify, closed loop, open
//! loop.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use boolmatch_broker::{Broker, DeliveryPolicy, Subscription};
use boolmatch_types::Event;

use crate::util::{Clock, Hist, Rng};
use crate::workloads::{Inputs, POOL, SEQ, VERIFY};

/// How long a phase waits for outstanding notifications before
/// counting them as failed.
const OUTSTANDING_DEADLINE: Duration = Duration::from_secs(2);

/// State shared between the publisher and every consumer callback.
pub struct Shared {
    pub clock: Clock,
    /// Notifications received, all subscribers. The callback's
    /// release add pairs with the publisher's acquire load, so the
    /// histogram bumps before it are visible once the count is.
    pub received: AtomicU64,
    /// Side table indexed by `seq`: when the event was due (ns on
    /// `clock`). Written by the publisher before it publishes.
    due_ns: Box<[AtomicU64]>,
    /// Due time → callback entry, every notification of the phase.
    pub latency: Hist,
    /// Per subscriber slot: bit `i` set when it received verify event `i`.
    verify_bits: Box<[AtomicU64]>,
    /// Per verify event: notifications received (catches duplicates).
    verify_counts: [AtomicU32; VERIFY],
}

impl Shared {
    fn new(slots: usize) -> Arc<Shared> {
        Arc::new(Shared {
            clock: Clock::start(),
            received: AtomicU64::new(0),
            due_ns: (0..POOL).map(|_| AtomicU64::new(0)).collect(),
            latency: Hist::new(),
            verify_bits: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            verify_counts: std::array::from_fn(|_| AtomicU32::new(0)),
        })
    }

    pub fn received(&self) -> u64 {
        self.received.load(Ordering::Acquire)
    }

    /// Records when pool event `seq` is due, before it is published.
    pub fn set_due(&self, seq: usize, ns: u64) {
        // ordering: sequenced before the publish call, whose queue lock
        // orders it before the callback that reads it.
        self.due_ns[seq].store(ns, Ordering::Relaxed);
    }

    /// Spins until `target` notifications have arrived; returns how
    /// many are still missing at the deadline (0 = all arrived).
    pub fn wait_for(&self, target: u64) -> u64 {
        if self.received() >= target {
            return 0;
        }
        let start = Instant::now();
        loop {
            for _ in 0..64 {
                if self.received() >= target {
                    return 0;
                }
                std::hint::spin_loop();
            }
            if start.elapsed() > OUTSTANDING_DEADLINE {
                return target.saturating_sub(self.received());
            }
        }
    }

    /// The consumer callback of subscriber `slot`: one histogram bump
    /// and one counter add — no lock, no allocation.
    fn consumer(self: &Arc<Self>, slot: usize) -> impl Fn(Arc<Event>) + Send + Sync + 'static {
        let shared = Arc::clone(self);
        move |event: Arc<Event>| {
            let now = shared.clock.now_ns();
            let seq = event.get(SEQ).and_then(|v| v.as_int()).unwrap_or(-1) as usize;
            if seq < POOL {
                // ordering: the publisher stored the due time before it
                // published, and the broker's queue lock handed the
                // event — and everything before it — to this thread.
                let due = shared.due_ns[seq].load(Ordering::Relaxed);
                shared.latency.record(now.saturating_sub(due));
            } else if seq < POOL + VERIFY {
                // ordering: verify reads both only after `received`
                // (released below, acquired there) has reached its target.
                shared.verify_bits[slot].fetch_or(1 << (seq - POOL), Ordering::Relaxed);
                shared.verify_counts[seq - POOL].fetch_add(1, Ordering::Relaxed);
            }
            shared.received.fetch_add(1, Ordering::Release);
        }
    }
}

/// A set-up broker with its subscribers.
pub struct Live {
    pub broker: Broker,
    pub shared: Arc<Shared>,
    /// One handle per subscriber slot; a churn workload replaces them.
    pub handles: Vec<Subscription>,
    /// Sum of the publish calls' return values so far: what
    /// `shared.received` must reach.
    pub expected: u64,
    /// Next pool event to publish.
    cursor: usize,
}

impl Live {
    /// Drops the broker before the handles, so tear-down does not pay
    /// one `unsubscribe` per handle (a handle whose broker is gone
    /// drops without one).
    pub fn tear_down(self) {
        let Live {
            broker, handles, ..
        } = self;
        drop(broker);
        drop(handles);
    }
}

/// Builds a broker and registers the whole corpus. Returns the live
/// broker, the seconds from `builder()` to the last `subscribe`
/// return, and the number of refused subscriptions.
pub fn set_up(inputs: &Inputs) -> (Live, f64, u64) {
    let shared = Shared::new(inputs.texts.len());
    let mut handles = Vec::with_capacity(inputs.texts.len());
    let mut refused = 0u64;
    let start = Instant::now();
    let spec = inputs.spec;
    let broker = Broker::builder()
        .engine(spec.engine)
        .shards(spec.shards)
        .placement(spec.placement)
        .delivery_workers(1)
        .build();
    for (slot, text) in inputs.texts.iter().enumerate() {
        match broker.subscribe_consumer(text, DeliveryPolicy::Unbounded, shared.consumer(slot)) {
            Ok(handle) => handles.push(handle),
            Err(e) => {
                refused += 1;
                eprintln!("refused subscription {slot} `{text}`: {e}");
            }
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    let live = Live {
        broker,
        shared,
        handles,
        expected: 0,
        cursor: 0,
    };
    (live, seconds, refused)
}

/// Publishes the verify events one at a time and compares each
/// receiver set with a naive evaluation of every stored expression.
/// Returns `(notifications checked, wrong)`; prints every mismatch.
pub fn verify(live: &mut Live, inputs: &Inputs) -> (u64, u64) {
    let mut checked = 0u64;
    let mut wrong = 0u64;
    for (i, event) in inputs.verify.iter().enumerate() {
        let oracle: Vec<bool> = inputs.exprs.iter().map(|e| e.eval_event(event)).collect();
        let expected_count = oracle.iter().filter(|&&m| m).count() as u64;
        let returned = live.broker.publish_arc(Arc::clone(event)) as u64;
        // Wait for what the oracle expects even when the broker
        // reports fewer, so a late extra delivery is still seen.
        let missing = live
            .shared
            .wait_for(live.expected + returned.max(expected_count));
        let mut receivers = 0u64;
        for (slot, &expected) in oracle.iter().enumerate() {
            // ordering: `wait_for` acquired `received` above.
            let actual = live.shared.verify_bits[slot].load(Ordering::Relaxed) >> i & 1 == 1;
            receivers += u64::from(actual);
            if expected != actual {
                wrong += 1;
                eprintln!(
                    "verify mismatch on {}: event {event}, subscription {slot} `{}`: \
                     expected {}, actual {}",
                    inputs.spec.name,
                    inputs.texts[slot],
                    if expected { "delivery" } else { "none" },
                    if actual { "delivery" } else { "none" },
                );
            }
        }
        // A receiver notified twice, or a return value that disagrees
        // with the oracle; missing and extra receivers were counted
        // above.
        // ordering: as for the bits, behind the acquire in `wait_for`.
        let arrived = u64::from(live.shared.verify_counts[i].load(Ordering::Relaxed));
        let duplicates = arrived.saturating_sub(receivers);
        if duplicates > 0 || returned != expected_count {
            wrong += duplicates + u64::from(returned != expected_count);
            eprintln!(
                "verify mismatch on {}: event {event}: oracle expects {expected_count} \
                 notifications, publish returned {returned}, {arrived} arrived at \
                 {receivers} receivers ({missing} still outstanding)",
                inputs.spec.name,
            );
        }
        // Resynchronise so one lost notification is not counted again.
        live.expected = live.shared.received();
        checked += expected_count.max(1);
    }
    (checked, wrong)
}

/// What one closed-loop phase measured.
#[derive(Default)]
pub struct ClosedLoop {
    /// Events per second, one value per kept segment.
    pub segments: Vec<f64>,
    pub events: u64,
    pub notifications: u64,
    /// Notifications still missing at a wait deadline.
    pub outstanding: u64,
    /// Call times in ns, kept segments only (churn workloads).
    pub subscribe_ns: Vec<u64>,
    pub unsubscribe_ns: Vec<u64>,
    pub refused: u64,
}

/// Publishes of one churn cycle, between an unsubscribe/subscribe pair.
const CHURN_PUBLISHES: usize = 8;

impl Live {
    /// Unsubscribes the subscriber in `slot` and subscribes `text` in
    /// its place. Returns the two call times in ns and how many of the
    /// two operations were refused.
    fn replace(&mut self, slot: usize, text: &str) -> (u64, u64, u64) {
        let id = self.handles[slot].id();
        let t = Instant::now();
        let existed = self.broker.unsubscribe(id);
        let unsubscribe_ns = t.elapsed().as_nanos() as u64;
        let consumer = self.shared.consumer(slot);
        let t = Instant::now();
        let handle = self
            .broker
            .subscribe_consumer(text, DeliveryPolicy::Unbounded, consumer);
        let subscribe_ns = t.elapsed().as_nanos() as u64;
        let mut refused = u64::from(!existed);
        match handle {
            // The replaced handle's drop finds its id gone.
            Ok(handle) => self.handles[slot] = handle,
            Err(_) => refused += 1,
        }
        (unsubscribe_ns, subscribe_ns, refused)
    }

    /// Publishes the next pool event with `due` as its due time and
    /// returns the time inside `publish_arc` in ns.
    fn publish_next(&mut self, inputs: &Inputs, due: u64) -> u64 {
        let seq = self.cursor;
        self.cursor = (self.cursor + 1) % inputs.pool.len();
        self.shared.set_due(seq, due);
        let event = Arc::clone(&inputs.pool[seq]);
        let t = self.shared.clock.now_ns();
        let delivered = self.broker.publish_arc(event);
        let spent = self.shared.clock.now_ns() - t;
        self.expected += delivered as u64;
        spent
    }
}

/// Closed loop, one event in flight: publish, spin until every
/// notification it caused has reached its callback, publish the next.
/// Runs `discard + keep` segments of `segment` each and reports the
/// kept ones. With `churn`, every eighth publish is followed by one
/// unsubscribe of a seeded-random live subscriber and one subscribe of
/// a fresh text.
pub fn closed_loop(
    live: &mut Live,
    inputs: &Inputs,
    churn: bool,
    discard: usize,
    keep: usize,
    segment: Duration,
) -> ClosedLoop {
    let mut out = ClosedLoop::default();
    let mut rng = Rng::fork(inputs.seed, "churn");
    let mut fresh = 0usize;
    let mut since_churn = 0usize;
    live.shared.latency.reset();
    for index in 0..discard + keep {
        let kept = index >= discard;
        let mut events = 0u64;
        let before = live.expected;
        let start = Instant::now();
        let elapsed = loop {
            if churn && since_churn == CHURN_PUBLISHES {
                since_churn = 0;
                let slot = rng.below(live.handles.len() as u64) as usize;
                let text = &inputs.fresh[fresh % inputs.fresh.len()];
                fresh += 1;
                let (unsubscribe_ns, subscribe_ns, refused) = live.replace(slot, text);
                out.refused += refused;
                if kept {
                    out.unsubscribe_ns.push(unsubscribe_ns);
                    out.subscribe_ns.push(subscribe_ns);
                }
            }
            live.publish_next(inputs, live.shared.clock.now_ns());
            events += 1;
            since_churn += 1;
            let missing = live.shared.wait_for(live.expected);
            if missing > 0 {
                out.outstanding += missing;
                live.expected -= missing;
            }
            let elapsed = start.elapsed();
            if elapsed >= segment {
                break elapsed;
            }
        };
        out.events += events;
        out.notifications += live.expected - before;
        if kept {
            out.segments.push(events as f64 / elapsed.as_secs_f64());
        }
    }
    out
}

/// What one open-loop phase measured.
#[derive(Default)]
pub struct OpenLoop {
    pub events: u64,
    pub notifications: u64,
    /// Time inside each `publish_arc` call, ns.
    pub publish_ns: Vec<u64>,
    /// How far behind its due time each send started, ns.
    pub late_ns: Vec<u64>,
    /// Notifications not yet received when the last publish returned.
    pub backlog_end: u64,
    /// Notifications still missing two seconds after the phase.
    pub outstanding: u64,
}

/// Open loop at the workload's fixed rate: the publisher spins to
/// each due time and publishes whether or not earlier notifications
/// have arrived; latency is counted from the due time.
/// `after_publish` runs after each publish call (the traced run
/// samples queue depths there).
pub fn open_loop(
    live: &mut Live,
    inputs: &Inputs,
    duration: Duration,
    mut after_publish: impl FnMut(&Live),
) -> OpenLoop {
    let step_ns = (1e9 / inputs.spec.open_rate) as u64;
    let steps = (duration.as_nanos() as u64 / step_ns).max(1);
    let mut out = OpenLoop {
        events: steps,
        publish_ns: Vec::with_capacity(steps as usize),
        late_ns: Vec::with_capacity(steps as usize),
        ..OpenLoop::default()
    };
    live.shared.latency.reset();
    let clock = live.shared.clock;
    let before = live.expected;
    let t0 = clock.now_ns() + 1_000_000;
    for k in 0..steps {
        let due = t0 + k * step_ns;
        let mut now = clock.now_ns();
        while now < due {
            std::hint::spin_loop();
            now = clock.now_ns();
        }
        out.late_ns.push(now - due);
        out.publish_ns.push(live.publish_next(inputs, due));
        after_publish(live);
    }
    out.notifications = live.expected - before;
    out.backlog_end = live.expected.saturating_sub(live.shared.received());
    out.outstanding = live.shared.wait_for(live.expected);
    live.expected -= out.outstanding;
    out
}

/// Unsubscribes a seeded-random live subscriber and subscribes its
/// text again, `pairs` times, with nothing else running. Returns the
/// subscribe and unsubscribe call times in ns and the number of
/// refused operations.
pub fn resubscribe_probe(
    live: &mut Live,
    inputs: &Inputs,
    pairs: usize,
) -> (Vec<u64>, Vec<u64>, u64) {
    let mut rng = Rng::fork(inputs.seed, "probe");
    let mut subscribe_ns = Vec::with_capacity(pairs);
    let mut unsubscribe_ns = Vec::with_capacity(pairs);
    let mut refused = 0u64;
    for _ in 0..pairs {
        let slot = rng.below(live.handles.len() as u64) as usize;
        let (unsubscribe, subscribe, r) = live.replace(slot, &inputs.texts[slot]);
        unsubscribe_ns.push(unsubscribe);
        subscribe_ns.push(subscribe);
        refused += r;
    }
    (subscribe_ns, unsubscribe_ns, refused)
}

/// Publishes `batches` batches of 64 pool events with `publish_batch`,
/// one batch in flight, and returns the time inside each call in ns
/// per event. No workload drives the batch path end to end (see the
/// README), so the traced run keeps its figure as a per-layer row.
pub fn batch_probe(live: &mut Live, inputs: &Inputs, batches: usize) -> (Vec<u64>, u64) {
    const WIDTH: usize = 64;
    let mut per_event_ns = Vec::with_capacity(batches);
    let mut outstanding = 0u64;
    for chunk in inputs.pool.chunks(WIDTH).take(batches) {
        let now = live.shared.clock.now_ns();
        for seq in 0..chunk.len() {
            live.shared.set_due(seq, now);
        }
        let t = Instant::now();
        let delivered = live.broker.publish_batch(chunk);
        per_event_ns.push(t.elapsed().as_nanos() as u64 / chunk.len() as u64);
        live.expected += delivered as u64;
        let missing = live.shared.wait_for(live.expected);
        live.expected -= missing;
        outstanding += missing;
    }
    (per_event_ns, outstanding)
}
