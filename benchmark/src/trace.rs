//! The traced replay: spans recorded from the benchmark's side of
//! each layer boundary.
//!
//! A root span `publish` surrounds the real publish call and a
//! `deliver` span runs from its return to the moment the publisher
//! sees the event's last notification arrive. Spans cannot nest inside
//! the publish call from outside the program, so the stages `prune`,
//! `phase1`, `phase2` and `translate` are replayed immediately
//! afterwards on the sharded twin for the same event and recorded as
//! children marked `replayed`: their durations are comparable, their
//! start times lie after the parent's end. In-program spans, when a
//! later change adds them, must reuse these stage names.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use boolmatch_core::{FulfilledSet, MatchScratch, ShardedEngine, SubscriptionId};
use boolmatch_types::Event;

use crate::harness::Live;
use crate::layers::Rows;
use crate::util::{median, median_u64};
use crate::workloads::Inputs;

pub const STAGES: [&str; 4] = ["prune", "phase1", "phase2", "translate"];

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `None` for a root span.
    pub parent: Option<&'static str>,
    /// The event's index in the pool; spans of one event share it.
    pub seq: usize,
    pub replayed: bool,
}

/// What the replay produced besides the spans themselves.
pub struct Replay {
    pub spans: Vec<Span>,
    pub rows: Rows,
    /// Events whose twin match count disagreed with the broker's
    /// return value, plus notifications missing at a wait deadline.
    pub failed: u64,
    pub events: u64,
    /// Events per second over publish start → last notification seen,
    /// the traced counterpart of the closed loop's figure.
    pub events_per_s: f64,
}

/// Per-shard buffers for the stage replay.
struct Stages<'a> {
    twin: &'a ShardedEngine,
    fulfilled: Vec<FulfilledSet>,
    matched: Vec<Vec<SubscriptionId>>,
    admitted: Vec<bool>,
    scratch: MatchScratch,
    translated: Vec<SubscriptionId>,
}

impl Stages<'_> {
    /// Replays the four stages for `event`, returning the five
    /// boundary times and the number of translated matches.
    fn replay(&mut self, event: &Event, now: impl Fn() -> u64) -> ([u64; 5], usize) {
        let twin = self.twin;
        let shards = twin.shard_count();
        let t0 = now();
        for s in 0..shards {
            self.admitted[s] = twin.synopsis(s).admits(event);
        }
        let t1 = now();
        for s in (0..shards).filter(|&s| self.admitted[s]) {
            twin.shard(s).phase1(event, &mut self.fulfilled[s]);
        }
        let t2 = now();
        for s in 0..shards {
            self.matched[s].clear();
            if self.admitted[s] {
                twin.shard(s)
                    .phase2(&self.fulfilled[s], &mut self.scratch, &mut self.matched[s]);
            }
        }
        let t3 = now();
        self.translated.clear();
        for s in 0..shards {
            let translation = twin.translation(s);
            self.translated.extend(
                self.matched[s]
                    .iter()
                    .filter_map(|&l| translation.global_of(l)),
            );
        }
        let t4 = now();
        ([t0, t1, t2, t3, t4], self.translated.len())
    }
}

/// Publishes up to `max_events` pool events one at a time — stopping
/// early once `budget` is spent — with every span recorded.
pub fn replay(
    live: &mut Live,
    inputs: &Inputs,
    twin: &ShardedEngine,
    max_events: usize,
    budget: Duration,
) -> Replay {
    let shards = twin.shard_count();
    let mut stages = Stages {
        twin,
        fulfilled: (0..shards).map(|_| FulfilledSet::new()).collect(),
        matched: vec![Vec::new(); shards],
        admitted: vec![false; shards],
        scratch: MatchScratch::new(),
        translated: Vec::new(),
    };
    let clock = live.shared.clock;
    let now = || clock.now_ns();
    let mut spans = Vec::with_capacity(max_events * 6);
    let mut publish_ns = Vec::new();
    let mut deliver_ns = Vec::new();
    let mut self_ns = Vec::new();
    let mut stage_ns: [Vec<u64>; 4] = Default::default();
    let (mut self_sum, mut deliver_sum, mut matches, mut in_flight_ns) = (0i64, 0u64, 0u64, 0u64);
    let mut failed = 0u64;
    let started = Instant::now();
    let mut seq = 0usize;
    while seq < max_events.min(inputs.pool.len()) && started.elapsed() < budget {
        let event = &inputs.pool[seq];
        let start = now();
        live.shared.set_due(seq, start);
        let delivered = live.broker.publish_arc(Arc::clone(event)) as u64;
        let returned = now();
        live.expected += delivered;
        let missing = live.shared.wait_for(live.expected);
        let arrived = now();
        if missing > 0 {
            failed += missing;
            live.expected -= missing;
        }
        let (t, twin_matches) = stages.replay(event, now);
        if twin_matches as u64 != delivered {
            failed += 1;
            eprintln!(
                "trace mismatch on {}: broker delivered {delivered} for seq {seq}, twin matched {twin_matches}",
                inputs.spec.name
            );
        }
        let span = |name, start_ns, end_ns, replayed| Span {
            name,
            start_ns,
            end_ns,
            parent: (name != "publish").then_some("publish"),
            seq,
            replayed,
        };
        spans.push(span("publish", start, returned, false));
        spans.push(span("deliver", returned, arrived, false));
        for (stage, name) in STAGES.into_iter().enumerate() {
            spans.push(span(name, t[stage], t[stage + 1], true));
            stage_ns[stage].push(t[stage + 1] - t[stage]);
        }
        let publish = returned - start;
        // Negative when the broker's parallel fan-out beats the twin's
        // sequential stages.
        let own = publish as i64 - (t[4] - t[0]) as i64;
        publish_ns.push(publish);
        deliver_ns.push(arrived - returned);
        self_ns.push(own as f64);
        self_sum += own;
        deliver_sum += arrived - returned;
        matches += delivered;
        in_flight_ns += arrived - start;
        seq += 1;
    }
    let events = seq as u64;

    let publish_median = median_u64(&publish_ns);
    let stage_medians: Vec<f64> = stage_ns.iter().map(|v| median_u64(v)).collect();
    let mut rows = Rows::new();
    rows.push(("trace.publish_ns".into(), publish_median));
    for (name, m) in STAGES.iter().zip(&stage_medians) {
        rows.push((format!("trace.{name}_ns"), *m));
    }
    rows.push(("trace.deliver_ns".into(), median_u64(&deliver_ns)));
    rows.push(("broker.publish.self_ns_per_event".into(), median(&self_ns)));
    rows.push((
        "broker.delivery.enqueue_ns_per_notification".into(),
        self_sum as f64 / matches.max(1) as f64,
    ));
    rows.push((
        "broker.delivery.drain_ns_per_notification".into(),
        deliver_sum as f64 / matches.max(1) as f64,
    ));
    rows.push((
        "trace.unaccounted_share".into(),
        1.0 - stage_medians.iter().sum::<f64>() / publish_median.max(1.0),
    ));
    Replay {
        spans,
        rows,
        failed,
        events,
        events_per_s: events as f64 / (in_flight_ns.max(1) as f64 / 1e9),
    }
}

/// Writes one JSON object per span, one per line.
pub fn write_spans(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
             \"seq\": {}, \"workload\": \"{workload}\", \"replayed\": {}}}",
            s.name, s.start_ns, s.end_ns, s.seq, s.replayed
        )?;
    }
    out.flush()
}
