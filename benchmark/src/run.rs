//! One workload, start to finish: the untraced run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer
//! rows.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use boolmatch_broker::{Broker, BrokerStats, DeliveryPolicy};
use boolmatch_types::Event;

use crate::harness::{self, ClosedLoop, OpenLoop};
use crate::layers::{self, label, Rows};
use crate::trace;
use crate::util::{median, median_u64, quantile_u64, Clock, Rng};
use crate::workloads::Inputs;

/// Broker instances per untraced run; `setup_s` is the median of their
/// set-ups (plus unmeasured ones until [`SETUP_FLOOR`] seconds have
/// been spent, at most [`SETUPS_MAX`] in all).
const INSTANCES: usize = 5;
const SETUP_FLOOR: f64 = 0.4;
const SETUPS_MAX: usize = 60;
/// Closed-loop segments per instance: the first warms up and is
/// discarded, so a run keeps `INSTANCES * KEEP` = 10.
const DISCARD: usize = 1;
const KEEP: usize = 2;
/// Unsubscribe/subscribe pairs the traced run times on a quiet broker.
const PROBE_PAIRS: usize = 1_000;
/// Batches of 64 the traced run pushes through `publish_batch`.
const BATCHES: usize = 4;
/// Pool events the traced replay walks, time permitting.
const TRACED_EVENTS: usize = 2_048;

/// Everything one run of one workload reports.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    /// Hash of the generated texts and events.
    pub hash: u64,
    /// Gating metrics (`end_to_end` untraced, `per_layer` traced).
    pub metrics: Rows,
    /// Printed beside them, never gating.
    pub context: Rows,
    /// The per-segment / per-repeat values behind each median.
    pub samples: Vec<(String, Vec<f64>)>,
    pub attempted: u64,
    pub failed: u64,
}

/// Failures the broker counts itself.
fn broker_failures(stats: &BrokerStats) -> u64 {
    stats.notifications_dropped
        + stats.notifications_disconnected
        + stats.fanout_worker_failures
        + stats.consumer_panics
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// The untraced run. The measured time is shared equally between
/// [`INSTANCES`] broker instances, each set up from scratch, driven
/// (closed loop for two thirds of its share, open loop for the rest)
/// and torn down, because how fast one instance matches depends on
/// where its allocations happened to land: six instances built one
/// after another in one process ranged 490–850 events/s on the
/// counting engine's batch path, each steady for as long as it lived.
/// The first instance is verified against the oracle.
pub fn measure(inputs: &Inputs, seconds: f64) -> Outcome {
    let spec = inputs.spec;
    let share = seconds / INSTANCES as f64;
    let segment = Duration::from_secs_f64(share * 2.0 / 3.0 / (DISCARD + KEEP) as f64);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut setup_seconds = Vec::new();
    let mut segments = Vec::new();
    let (mut subscribe_ns, mut unsubscribe_ns) = (Vec::new(), Vec::new());
    let (mut publish_ns, mut late_ns) = (Vec::new(), Vec::new());
    let (mut round_trip_p50, mut deliver_p50, mut deliver_p99) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut deliver_max, mut backlog_end) = (0.0f64, 0u64);
    let (mut events, mut notifications, mut open_events, mut open_notifications) = (0, 0, 0, 0);
    let mut live_subs = 0;
    let mut bytes_per_sub = 0.0;
    for instance in 0..INSTANCES {
        let (mut live, s, refused) = harness::set_up(inputs);
        setup_seconds.push(s);
        attempted += inputs.texts.len() as u64;
        failed += refused;
        if instance == 0 {
            live_subs = live.broker.subscription_count();
            bytes_per_sub = live.broker.memory_usage().total() as f64 / live_subs.max(1) as f64;
            let (checked, wrong) = harness::verify(&mut live, inputs);
            attempted += checked;
            failed += wrong;
        }
        let closed: ClosedLoop =
            harness::closed_loop(&mut live, inputs, spec.churn, DISCARD, KEEP, segment);
        round_trip_p50.push(live.shared.latency.quantile(0.5));
        let open: OpenLoop = harness::open_loop(
            &mut live,
            inputs,
            Duration::from_secs_f64(share / 3.0),
            |_| {},
        );
        let latency = &live.shared.latency;
        deliver_p50.push(latency.quantile(0.5));
        deliver_p99.push(latency.quantile(0.99));
        deliver_max = deliver_max.max(latency.max());
        backlog_end = backlog_end.max(open.backlog_end);
        open_notifications += latency.count();

        attempted += closed.events + open.events + 2 * closed.subscribe_ns.len() as u64;
        failed += closed.outstanding
            + closed.refused
            + open.outstanding
            + broker_failures(&live.broker.stats());
        events += closed.events;
        notifications += closed.notifications;
        open_events += open.events;
        segments.extend(closed.segments);
        subscribe_ns.extend(closed.subscribe_ns);
        unsubscribe_ns.extend(closed.unsubscribe_ns);
        publish_ns.extend(open.publish_ns);
        late_ns.extend(open.late_ns);
        live.tear_down();
    }
    // A corpus that registers in milliseconds is set up again, without
    // being driven, until its median is not a coin toss.
    while setup_seconds.iter().sum::<f64>() < SETUP_FLOOR && setup_seconds.len() < SETUPS_MAX {
        let (live, s, refused) = harness::set_up(inputs);
        setup_seconds.push(s);
        attempted += inputs.texts.len() as u64;
        failed += refused;
        live.tear_down();
    }

    let metrics = vec![
        ("setup_s".to_string(), median(&setup_seconds)),
        ("events_per_s".to_string(), median(&segments)),
        ("bytes_per_sub".to_string(), bytes_per_sub),
    ];
    // Latencies at the fixed open-loop rate, medians over the
    // instances: printed here, gating nowhere (see README, "Noise
    // floor").
    let mut context = vec![
        ("subscriptions".to_string(), live_subs as f64),
        (
            "matches_per_event".to_string(),
            notifications as f64 / events.max(1) as f64,
        ),
        (
            "closed_loop.round_trip_p50_us".to_string(),
            us(median(&round_trip_p50)),
        ),
        ("open_loop.rate_per_s".to_string(), spec.open_rate),
        ("open_loop.events".to_string(), open_events as f64),
        (
            "open_loop.notifications".to_string(),
            open_notifications as f64,
        ),
        (
            "open_loop.publish_p50_us".to_string(),
            us(median_u64(&publish_ns)),
        ),
        (
            "open_loop.publish_p99_us".to_string(),
            us(quantile_u64(&publish_ns, 0.99)),
        ),
        (
            "open_loop.deliver_p50_us".to_string(),
            us(median(&deliver_p50)),
        ),
        (
            "open_loop.deliver_p99_us".to_string(),
            us(median(&deliver_p99)),
        ),
        ("open_loop.deliver_max_us".to_string(), us(deliver_max)),
        (
            "open_loop.late_p50_us".to_string(),
            us(median_u64(&late_ns)),
        ),
        (
            "open_loop.late_p99_us".to_string(),
            us(quantile_u64(&late_ns, 0.99)),
        ),
        ("open_loop.backlog_end_max".to_string(), backlog_end as f64),
        (
            "failed_share".to_string(),
            failed as f64 / attempted.max(1) as f64,
        ),
    ];
    if spec.churn {
        // Call times inside the closed loop, beside concurrent reads.
        context.push((
            "closed_loop.subscribe_p50_us".to_string(),
            us(median_u64(&subscribe_ns)),
        ));
        context.push((
            "closed_loop.unsubscribe_p50_us".to_string(),
            us(median_u64(&unsubscribe_ns)),
        ));
    }
    let samples = vec![
        ("setup_s".to_string(), setup_seconds),
        ("events_per_s".to_string(), segments),
    ];
    Outcome {
        workload: spec.name,
        seed: inputs.seed,
        hash: inputs.hash,
        metrics,
        context,
        samples,
        attempted,
        failed,
    }
}

/// Time from `publish` to callback entry for a lone subscriber whose
/// delivery worker is idle: the hand-off cost with nothing queued.
fn callback_wakeup_us() -> f64 {
    let shared = Arc::new(AtomicU64::new(0));
    let broker = Broker::builder().delivery_workers(1).build();
    let seen = Arc::clone(&shared);
    let clock = Clock::start();
    let handle = broker
        .subscribe_consumer("wake = 1", DeliveryPolicy::Unbounded, move |_| {
            seen.store(clock.now_ns(), Ordering::Release);
        })
        .expect("probe subscription parses");
    let event = Arc::new(Event::builder().attr("wake", 1_i64).build());
    let mut samples = Vec::with_capacity(500);
    for _ in 0..500 {
        shared.store(0, Ordering::Release);
        // Let the worker park, so every sample pays the wake-up.
        std::thread::sleep(Duration::from_micros(200));
        let sent = clock.now_ns();
        broker.publish_arc(Arc::clone(&event));
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut at = 0;
        while at == 0 && Instant::now() < deadline {
            std::hint::spin_loop();
            at = shared.load(Ordering::Acquire);
        }
        if at > sent {
            samples.push(at - sent);
        }
    }
    drop(broker);
    drop(handle);
    us(median_u64(&samples))
}

/// The traced run: one set-up, verify, a short untraced closed loop
/// (the base for `trace.overhead_share`), the traced replay, a short
/// open loop for the tail and generator rows, then the twin rows.
/// The phases that drive the broker share half of `seconds`; the twin
/// rows walk fixed numbers of events and take about as long again.
pub fn traced(inputs: &Inputs, seconds: f64, out_dir: &Path) -> Outcome {
    let spec = inputs.spec;
    let started = Instant::now();
    let (mut live, setup_seconds, refused) = harness::set_up(inputs);
    let (checked, wrong) = harness::verify(&mut live, inputs);
    let mut attempted = inputs.texts.len() as u64 + checked;
    let mut failed = refused + wrong;
    let mut rows = Rows::new();
    let broker_subscribe_ns = setup_seconds * 1e9 / inputs.texts.len() as f64;

    let twin = layers::sharded_twin(inputs);

    let segment = Duration::from_secs_f64(seconds * 0.1 / 5.0);
    let closed = harness::closed_loop(&mut live, inputs, false, 1, 4, segment);
    let untraced = median(&closed.segments);
    let mut replay = trace::replay(
        &mut live,
        inputs,
        &twin,
        TRACED_EVENTS,
        Duration::from_secs_f64(seconds * 0.25),
    );
    rows.extend(std::mem::take(&mut replay.rows));
    rows.push((
        "trace.overhead_share".into(),
        1.0 - replay.events_per_s / untraced,
    ));
    let (batch_ns, batch_outstanding) = harness::batch_probe(&mut live, inputs, BATCHES);
    rows.push((
        "broker.publish.batch64_ns_per_event".into(),
        median_u64(&batch_ns),
    ));

    // Queue depths are sampled on the first few subscribers after each
    // open-loop publish: `subscriber_lag` takes locks, so only the
    // traced run pays for it.
    let probes: Vec<_> = live.handles.iter().take(8).map(|h| h.id()).collect();
    let mut depth_max = 0usize;
    let open = harness::open_loop(
        &mut live,
        inputs,
        Duration::from_secs_f64(seconds * 0.15),
        |live| {
            for &id in &probes {
                if let Some(lag) = live.broker.subscriber_lag(id) {
                    depth_max = depth_max.max(lag.queued);
                }
            }
        },
    );
    let latency = &live.shared.latency;
    rows.push((
        "broker.publish_p50_us".into(),
        us(median_u64(&open.publish_ns)),
    ));
    rows.push((
        "broker.publish_p99_us".into(),
        us(quantile_u64(&open.publish_ns, 0.99)),
    ));
    rows.push(("broker.deliver_p50_us".into(), us(latency.quantile(0.5))));
    rows.push(("broker.deliver_p99_us".into(), us(latency.quantile(0.99))));
    rows.push(("broker.deliver_max_us".into(), us(latency.max())));
    rows.push(("loadgen.late_p50_us".into(), us(median_u64(&open.late_ns))));
    rows.push((
        "loadgen.late_p99_us".into(),
        us(quantile_u64(&open.late_ns, 0.99)),
    ));
    rows.push(("loadgen.backlog_end".into(), open.backlog_end as f64));
    rows.push(("broker.delivery.queue_depth_max".into(), depth_max as f64));

    let (subscribe_ns, unsubscribe_ns, probe_refused) =
        harness::resubscribe_probe(&mut live, inputs, PROBE_PAIRS);
    rows.push((
        "broker.subscribe_p50_us".into(),
        us(median_u64(&subscribe_ns)),
    ));
    rows.push((
        "broker.unsubscribe_p50_us".into(),
        us(median_u64(&unsubscribe_ns)),
    ));
    attempted += 2 * PROBE_PAIRS as u64;
    failed += probe_refused;

    // Broker-level unsubscribe, timed last: it shrinks the corpus.
    let mut rng = Rng::fork(inputs.seed, "unsubscribe");
    let mut slots: Vec<usize> = (0..live.handles.len()).collect();
    let removals = slots.len().min(2_000);
    let t = Instant::now();
    for i in 0..removals {
        let pick = i + rng.below((slots.len() - i) as u64) as usize;
        slots.swap(i, pick);
        let id = live.handles[slots[i]].id();
        if !live.broker.unsubscribe(id) {
            failed += 1;
        }
    }
    let broker_unsubscribe_ns = t.elapsed().as_nanos() as f64 / removals as f64;
    let stats = live.broker.stats();
    rows.push((
        "broker.delivery.dropped".into(),
        stats.notifications_dropped as f64,
    ));
    attempted +=
        closed.events + replay.events + 64 * BATCHES as u64 + open.events + removals as u64;
    failed += closed.outstanding
        + replay.failed
        + batch_outstanding
        + open.outstanding
        + broker_failures(&stats);
    live.tear_down();

    let broker_phases = started.elapsed().as_secs_f64();
    rows.push((
        "broker.delivery.callback_wakeup_us".into(),
        callback_wakeup_us(),
    ));
    rows.extend(layers::front_end(inputs));
    let engine_rows = layers::engines(inputs);
    let core_of = |suffix: &str| {
        let name = format!("core.{}.{suffix}", label(spec.engine));
        engine_rows
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    rows.push(("broker.subscribe_ns".into(), broker_subscribe_ns));
    rows.push(("broker.unsubscribe_ns".into(), broker_unsubscribe_ns));
    rows.push((
        "broker.subscribe_excess_ns".into(),
        broker_subscribe_ns - core_of("subscribe_ns"),
    ));
    rows.push((
        "broker.unsubscribe_excess_ns".into(),
        broker_unsubscribe_ns - core_of("unsubscribe_ns"),
    ));
    rows.extend(engine_rows);
    rows.extend(layers::sharding(inputs, &twin));
    drop(twin);
    let twin_rows = started.elapsed().as_secs_f64() - broker_phases;
    rows.extend(layers::fig3(inputs.seed));
    let fig3_rows = started.elapsed().as_secs_f64() - broker_phases - twin_rows;

    let path = out_dir.join(format!("trace-{}.jsonl", spec.name));
    if let Err(e) = trace::write_spans(&path, spec.name, &replay.spans) {
        eprintln!("could not write {}: {e}", path.display());
        failed += 1;
    }
    let context = vec![
        ("wall.broker_phases_s".to_string(), broker_phases),
        ("wall.twin_rows_s".to_string(), twin_rows),
        ("wall.fig3_rows_s".to_string(), fig3_rows),
        ("traced_events".to_string(), replay.events as f64),
        ("spans".to_string(), replay.spans.len() as f64),
        ("untraced_events_per_s".to_string(), untraced),
        ("traced_events_per_s".to_string(), replay.events_per_s),
        (
            "open_loop.notifications".to_string(),
            open.notifications as f64,
        ),
    ];
    Outcome {
        workload: spec.name,
        seed: inputs.seed,
        hash: inputs.hash,
        metrics: rows,
        context,
        samples: vec![("untraced_events_per_s".to_string(), closed.segments)],
        attempted,
        failed,
    }
}
