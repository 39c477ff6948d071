//! Per-layer rows, each timed from here around one public function
//! of the layer, on *twins*: engines built from the workload's own
//! texts with `EngineKind::build` / `ShardedEngine`, never the broker
//! under test.
//!
//! Timings are wall-clock means over a fixed slice of the event pool
//! (median of a few passes); counts come from the engines' own
//! `MatchStats` and repeat exactly for equal seeds.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use boolmatch_core::{
    BatchScratch, EngineKind, FanOut, FilterEngine, FulfilledSet, MatchScratch, MatchStats,
    ScratchPool, ShardSynopsis, ShardedEngine, SubscriptionDirectory, SubscriptionId, WorkerPool,
};
use boolmatch_expr::{transform::to_dnf, Expr, Predicate};
use boolmatch_index::PredicateIndex;
use boolmatch_types::Event;

use crate::util::{median, Rng};
use crate::workloads::{fig3_corpus, paper_event, Inputs};

pub type Rows = Vec<(String, f64)>;

/// Pool events each per-event timing walks.
const EVENTS: usize = 128;
/// Events each `fig3.*` row walks: nine engines share the time.
const FIG3_EVENTS: usize = 64;
/// Timed passes over those events; the median pass is reported.
const PASSES: usize = 3;
/// Subscriptions removed to time `unsubscribe`.
const UNSUBSCRIBES: usize = 2_000;
/// Texts, predicates and synopsis inserts timed per corpus, at most.
const SAMPLE: usize = 20_000;

pub fn label(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::NonCanonical => "noncanonical",
        EngineKind::Counting => "counting",
        EngineKind::CountingVariant => "counting-variant",
    }
}

/// Median over [`PASSES`] of the seconds `pass` takes, in ns per `per`.
fn timed(per: usize, mut pass: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / per.max(1) as f64
        })
        .collect();
    median(&runs)
}

/// `types`, `expr` and `index` rows: building events, parsing texts,
/// DNF transformation, predicate-index insert and remove.
pub fn front_end(inputs: &Inputs) -> Rows {
    let mut rows = Rows::new();
    let events = &inputs.pool[..EVENTS];
    rows.push((
        "types.event.build_ns".into(),
        timed(events.len(), || {
            for e in events {
                let mut b = Event::builder();
                for (name, value) in e.iter() {
                    b.set(name, value.clone());
                }
                black_box(b.build());
            }
        }),
    ));
    let texts = &inputs.texts[..inputs.texts.len().min(SAMPLE)];
    rows.push((
        "expr.parser.parse_ns".into(),
        timed(texts.len(), || {
            for t in texts {
                black_box(Expr::parse(t).expect("generated text parses"));
            }
        }),
    ));
    let exprs = &inputs.exprs[..texts.len()];
    let mut conjunctions = 0usize;
    rows.push((
        "expr.transform.dnf_ns".into(),
        timed(exprs.len(), || {
            conjunctions = 0;
            for e in exprs {
                conjunctions += to_dnf(e, usize::MAX).expect("no limit set").len();
            }
        }),
    ));
    rows.push((
        "expr.transform.dnf_conjunctions".into(),
        conjunctions as f64 / exprs.len() as f64,
    ));
    let predicates: Vec<&Predicate> = exprs.iter().flat_map(Expr::predicates).collect();
    let mut index = PredicateIndex::<u32>::new();
    let t = Instant::now();
    for (id, p) in predicates.iter().enumerate() {
        index.insert(id as u32, p);
    }
    let insert = t.elapsed().as_nanos() as f64 / predicates.len() as f64;
    let t = Instant::now();
    for (id, p) in predicates.iter().enumerate() {
        black_box(index.remove(id as u32, p));
    }
    let remove = t.elapsed().as_nanos() as f64 / predicates.len() as f64;
    rows.push(("index.predicate_index.insert_ns".into(), insert));
    rows.push(("index.predicate_index.remove_ns".into(), remove));
    rows
}

/// A flat engine of `kind` holding `exprs`, with the mean `subscribe`
/// call time.
struct Flat {
    engine: Box<dyn FilterEngine + Send + Sync>,
    ids: Vec<SubscriptionId>,
    subscribe_ns: f64,
}

impl Flat {
    fn build(kind: EngineKind, exprs: &[Expr]) -> Flat {
        let mut engine = kind.build();
        let t = Instant::now();
        let ids = exprs
            .iter()
            .map(|e| engine.subscribe(e).expect("twin accepts the corpus"))
            .collect();
        let subscribe_ns = t.elapsed().as_nanos() as f64 / exprs.len() as f64;
        Flat {
            engine,
            ids,
            subscribe_ns,
        }
    }

    /// Mean phase-2 ns per event over `events`, with the summed stats
    /// of one pass. Phase 1 runs untimed before each phase-2 call.
    fn phase2(&self, events: &[Arc<Event>]) -> (f64, MatchStats) {
        let mut fulfilled = FulfilledSet::new();
        let mut scratch = MatchScratch::new();
        scratch.ensure_capacity(&self.engine);
        let mut matched = Vec::new();
        let mut stats = MatchStats::default();
        let runs: Vec<f64> = (0..PASSES)
            .map(|_| {
                stats = MatchStats::default();
                let mut ns = 0u128;
                for e in events {
                    self.engine.phase1(e, &mut fulfilled);
                    let t = Instant::now();
                    let s = self.engine.phase2(&fulfilled, &mut scratch, &mut matched);
                    ns += t.elapsed().as_nanos();
                    stats = stats + s;
                    black_box(&matched);
                }
                ns as f64 / events.len() as f64
            })
            .collect();
        (median(&runs), stats)
    }

    fn phase2_bytes_per_sub(&self) -> f64 {
        self.engine.memory_usage().phase2_bytes() as f64 / self.ids.len() as f64
    }

    /// Mean `unsubscribe` ns over the first [`UNSUBSCRIBES`] ids.
    /// Consumes the twin: it no longer holds the corpus afterwards.
    fn unsubscribe_ns(mut self) -> f64 {
        let ids = &self.ids[..self.ids.len().min(UNSUBSCRIBES)];
        let t = Instant::now();
        for &id in ids {
            self.engine.unsubscribe(id).expect("id is live");
        }
        t.elapsed().as_nanos() as f64 / ids.len() as f64
    }
}

/// `index.phase1.*` and every `core.{kind}.*` row, on flat twins of
/// all three kinds built from the workload's corpus.
pub fn engines(inputs: &Inputs) -> Rows {
    let mut rows = Rows::new();
    let events = &inputs.pool[..EVENTS];
    let n = events.len() as f64;
    for kind in EngineKind::ALL {
        let k = label(kind);
        let twin = Flat::build(kind, &inputs.exprs);
        if kind == inputs.spec.engine {
            let mut fulfilled = FulfilledSet::new();
            let mut total = 0usize;
            let ns = timed(events.len(), || {
                total = 0;
                for e in events {
                    twin.engine.phase1(e, &mut fulfilled);
                    total += fulfilled.len();
                }
            });
            rows.push(("index.phase1.ns_per_event".into(), ns));
            rows.push(("index.phase1.fulfilled_per_event".into(), total as f64 / n));
            rows.push((
                "index.phase1.ns_per_fulfilled".into(),
                ns * n / total.max(1) as f64,
            ));
        }
        let (ns, stats) = twin.phase2(events);
        rows.push((format!("core.{k}.phase2_ns_per_event"), ns));
        match kind {
            EngineKind::NonCanonical => {
                rows.push((
                    format!("core.{k}.candidates_per_event"),
                    stats.candidates as f64 / n,
                ));
                rows.push((
                    format!("core.{k}.evaluations_per_event"),
                    stats.evaluations as f64 / n,
                ));
                rows.push((
                    format!("core.{k}.match_ratio"),
                    stats.matched as f64 / stats.candidates.max(1) as f64,
                ));
            }
            EngineKind::Counting => {
                rows.push((
                    format!("core.{k}.comparisons_per_event"),
                    stats.comparisons as f64 / n,
                ));
                rows.push((
                    format!("core.{k}.increments_per_event"),
                    stats.increments as f64 / n,
                ));
                let mut batch = BatchScratch::new();
                batch.ensure_capacity(&twin.engine);
                let mut batch_stats = MatchStats::default();
                for width in [8usize, 64] {
                    let ns = timed(events.len(), || {
                        batch_stats = MatchStats::default();
                        for chunk in events.chunks(width) {
                            batch.reset();
                            batch_stats =
                                batch_stats + twin.engine.match_batch(chunk, &[], &mut batch);
                            black_box(batch.matched(0));
                        }
                    });
                    rows.push((format!("core.{k}.batch{width}_ns_per_event"), ns));
                }
                rows.push((
                    format!("core.{k}.batch_passes_per_event"),
                    batch_stats.batch_passes as f64 / batch_stats.batch_events.max(1) as f64,
                ));
            }
            EngineKind::CountingVariant => {
                rows.push((
                    format!("core.{k}.candidates_per_event"),
                    stats.candidates as f64 / n,
                ));
                rows.push((
                    format!("core.{k}.comparisons_per_event"),
                    stats.comparisons as f64 / n,
                ));
            }
        }
        rows.push((format!("core.{k}.subscribe_ns"), twin.subscribe_ns));
        rows.push((
            format!("core.{k}.units_per_sub"),
            twin.engine.registered_units() as f64 / twin.ids.len() as f64,
        ));
        rows.push((
            format!("core.{k}.phase2_bytes_per_sub"),
            twin.phase2_bytes_per_sub(),
        ));
        rows.push((format!("core.{k}.unsubscribe_ns"), twin.unsubscribe_ns()));
    }
    rows
}

/// The sharded twin the traced run replays stages on: same engine
/// kind, shard count and placement as the broker, same texts in the
/// same order.
pub fn sharded_twin(inputs: &Inputs) -> ShardedEngine {
    let spec = inputs.spec;
    let mut twin = ShardedEngine::new(spec.engine, spec.shards).with_placement(spec.placement);
    for e in &inputs.exprs {
        twin.subscribe(e).expect("twin accepts the corpus");
    }
    twin
}

/// `core.synopsis.*`, `core.routing.*`, `core.shard.*` and
/// `core.pool.*` rows, on the sharded twin.
pub fn sharding(inputs: &Inputs, twin: &ShardedEngine) -> Rows {
    let mut rows = Rows::new();
    let events = &inputs.pool[..EVENTS];
    let shards = twin.shard_count();

    let mut admitted = 0usize;
    let admits_ns = timed(events.len() * shards, || {
        admitted = 0;
        for e in events {
            for s in 0..shards {
                admitted += usize::from(twin.synopsis(s).admits(e));
            }
        }
    });
    rows.push(("core.synopsis.admits_ns".into(), admits_ns));
    rows.push((
        "core.synopsis.admit_ratio".into(),
        admitted as f64 / (events.len() * shards) as f64,
    ));
    let sample = &inputs.exprs[..inputs.exprs.len().min(SAMPLE)];
    let mut synopsis = ShardSynopsis::new();
    let t = Instant::now();
    for (i, e) in sample.iter().enumerate() {
        synopsis.insert(SubscriptionId::from_index(i), e);
    }
    rows.push((
        "core.synopsis.insert_ns".into(),
        t.elapsed().as_nanos() as f64 / sample.len() as f64,
    ));

    // Translation is timed over every resident id, shard by shard: a
    // single event's handful of matches is below the clock's
    // resolution.
    let residents: Vec<Vec<SubscriptionId>> = (0..shards)
        .map(|s| {
            twin.translation(s)
                .residents()
                .into_iter()
                .map(|(l, _)| l)
                .collect()
        })
        .collect();
    let resident_count: usize = residents.iter().map(Vec::len).sum();
    rows.push((
        "core.routing.translate_ns_per_match".into(),
        timed(resident_count, || {
            for (s, locals) in residents.iter().enumerate() {
                let translation = twin.translation(s);
                for &l in locals {
                    black_box(translation.global_of(l));
                }
            }
        }),
    ));
    let stored: Vec<Arc<Expr>> = sample.iter().map(|e| Arc::new(e.clone())).collect();
    let mut directory = SubscriptionDirectory::new(shards);
    let t = Instant::now();
    for (i, e) in stored.iter().enumerate() {
        let shard = directory.place();
        black_box(directory.commit(shard, SubscriptionId::from_index(i), Arc::clone(e)));
    }
    rows.push((
        "core.routing.place_commit_ns".into(),
        t.elapsed().as_nanos() as f64 / stored.len() as f64,
    ));

    let mut scratch = MatchScratch::new();
    let mut stats = MatchStats::default();
    rows.push((
        "core.shard.sequential_ns_per_event".into(),
        timed(events.len(), || {
            stats = MatchStats::default();
            for e in events {
                stats = stats + twin.match_event_into(e, &mut scratch);
            }
        }),
    ));
    rows.push((
        "core.shard.pruned_per_event".into(),
        stats.shards_pruned as f64 / events.len() as f64,
    ));
    // The standalone parallel walk spawns one scoped thread per remote
    // shard per call, so it walks a shorter slice.
    let pool = ScratchPool::new(shards);
    let few = &events[..64];
    rows.push((
        "core.shard.parallel_ns_per_event".into(),
        timed(few.len(), || {
            for e in few {
                black_box(twin.match_event_parallel(e, &pool, &mut scratch));
            }
        }),
    ));
    let mut batch = BatchScratch::new();
    rows.push((
        "core.shard.batch64_ns_per_event".into(),
        timed(events.len(), || {
            for chunk in events.chunks(64) {
                batch.reset();
                black_box(twin.match_batch(chunk, &[], &mut batch));
            }
        }),
    ));

    let engine = twin.shard(0);
    let calls = 10_000;
    rows.push((
        "core.pool.scratch_checkout_ns".into(),
        timed(calls, || {
            for _ in 0..calls {
                black_box(&*pool.checkout(engine));
            }
        }),
    ));
    let workers = WorkerPool::new(1);
    let roundtrips: Vec<f64> = (0..2_000)
        .map(|_| {
            let run = FanOut::<()>::new(1);
            let slot = run.slot(0);
            let t = Instant::now();
            workers.submit(move || slot.fill(()));
            black_box(run.wait());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    rows.push(("core.pool.worker_roundtrip_ns".into(), median(&roundtrips)));
    rows
}

/// The paper's Fig. 3 as rows: phase-2 time and bytes per
/// subscription of each engine kind on 20 000-subscription paper-shape
/// corpora with 3, 4 and 5 OR pairs (|p| = 6, 8, 10; DNF factor 8, 16,
/// 32), plus the non-canonical ÷ counting time ratio.
pub fn fig3(seed: u64) -> Rows {
    let mut rows = Rows::new();
    let mut rng = Rng::fork(seed, "fig3-events");
    let events: Vec<Arc<Event>> = (0..FIG3_EVENTS)
        .map(|seq| Arc::new(paper_event(&mut rng, seq)))
        .collect();
    for pairs in [3usize, 4, 5] {
        let p = pairs * 2;
        let corpus = fig3_corpus(seed, pairs);
        let mut ns_by_kind = [0.0f64; 3];
        for (i, kind) in EngineKind::ALL.into_iter().enumerate() {
            let k = label(kind);
            let twin = Flat::build(kind, &corpus);
            let (ns, _) = twin.phase2(&events);
            ns_by_kind[i] = ns;
            rows.push((format!("fig3.{k}.p{p}.phase2_ns_per_event"), ns));
            rows.push((
                format!("fig3.{k}.p{p}.phase2_bytes_per_sub"),
                twin.phase2_bytes_per_sub(),
            ));
        }
        // EngineKind::ALL lists non-canonical first, counting second.
        rows.push((
            format!("fig3.ratio.p{p}.noncanonical_over_counting"),
            ns_by_kind[0] / ns_by_kind[1],
        ));
    }
    rows
}
