//! One oracle for every broker configuration.
//!
//! The contract: for every engine kind × shard count × scalar/batch
//! publish × placement policy, under subscribe / unsubscribe /
//! rebalance / resize churn, each subscriber receives exactly the
//! events a naive evaluation of its expression accepts, by value and in
//! publish order. That naive evaluation is the oracle, the same for
//! every kind: `Expr::eval_event`, which evaluates `not` in negation
//! normal form — three-valued, where a leaf whose attribute is missing
//! is false, negated or not.
//!
//! The grid, per kind: S ∈ {1, 3, 8} × {scalar `publish_arc`,
//! `publish_batch` windows of 1–9 events} × {`LeastLoaded`,
//! `ClusterByAttribute`} placement.
//! Each cell replays 1 200 steps of the generated-tree corpus
//! (`TreeScenario`). Every 31st step calls `rebalance()` and
//! `rebalance_by_match_frequency(8)`. Every 83rd step resizes along
//! S → S+2 → max(1, S−1) → S. A quarter of the other steps publish a
//! window; the rest subscribe or unsubscribe around 24 live
//! subscriptions. Besides every delivery, the driver checks the live
//! count after each step, the load spread after each `rebalance()`,
//! that every issued id's slot stays below the peak live count (retired
//! slots are reissued), the shard count, and that something migrated.
//! Two more corpora run on the same driver:
//! - the selective population at S ∈ {3, 8}, clustered, where pruning
//!   must really fire;
//! - the stock, news and auction scenarios, after four subscriptions of
//!   which classical negation would make two true of events that carry
//!   none of their attributes; no kind may deliver those.
//!
//! A mismatch names the configuration, seed and step, and the
//! subscription. It then lists each event of the publish window with
//! the oracle's verdict and how often it was delivered: why the
//! subscription did (not) fire.

use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

use boolmatch::expr::transform::eliminate_not;
use boolmatch::prelude::*;
use boolmatch::workload::satisfying_event;
use boolmatch::workload::scenarios::{
    AuctionScenario, NewsScenario, SelectiveScenario, StockScenario, TreeScenario,
};

/// Driver steps per generated-tree replay; the two smaller corpora
/// replay `SHORT` steps.
const STEPS: usize = 1_200;
const SHORT: usize = 400;
const REBALANCE_EVERY: usize = 31;
const RESIZE_EVERY: usize = 83;
/// The live-subscription count the driver steers towards.
const TARGET_LIVE: usize = 24;
const MAX_WINDOW: usize = 9;

#[derive(Debug, Clone, Copy)]
enum Width {
    Scalar,
    Batch,
}

struct Config {
    kind: EngineKind,
    shards: usize,
    width: Width,
    placement: PlacementPolicy,
    corpus: &'static str,
    seed: u64,
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kind={} S={} width={:?} placement={:?} corpus={} seed={}",
            self.kind, self.shards, self.width, self.placement, self.corpus, self.seed
        )
    }
}

/// Negations that classical negation would make true on an event
/// carrying none of their attributes — three-valued, they are not —
/// plus two plain predicates.
const NEGATIONS: [&str; 4] = ["not (a = 1)", "a = 1 or not (b = 2)", "a = 1", "b = 2"];

/// Where a replay's subscriptions and events come from.
enum Corpus {
    Trees(TreeScenario),
    Selective(SelectiveScenario),
    /// `NEGATIONS` first, then stock, news and auction round-robin.
    /// Events rotate through the three domains, an event with only an
    /// unrelated attribute, and one with only `b = 2`.
    Domain {
        stock: StockScenario,
        news: NewsScenario,
        auction: AuctionScenario,
        subscriptions: usize,
        events: usize,
    },
}

impl Corpus {
    fn domain(seed: u64) -> Self {
        Corpus::Domain {
            stock: StockScenario::new(seed),
            news: NewsScenario::new(seed + 1),
            auction: AuctionScenario::new(seed + 2),
            subscriptions: 0,
            events: 0,
        }
    }

    fn subscription(&mut self) -> Expr {
        match self {
            Corpus::Trees(s) => s.subscription(),
            Corpus::Selective(s) => s.subscription(),
            Corpus::Domain {
                stock,
                news,
                auction,
                subscriptions,
                ..
            } => {
                let n = *subscriptions;
                *subscriptions += 1;
                match n {
                    0..=3 => Expr::parse(NEGATIONS[n]).unwrap(),
                    _ if n % 3 == 0 => stock.subscription(),
                    _ if n % 3 == 1 => news.subscription(),
                    _ => auction.subscription(),
                }
            }
        }
    }

    fn event(&mut self) -> Event {
        match self {
            Corpus::Trees(s) => s.event(),
            Corpus::Selective(s) => s.event(),
            Corpus::Domain {
                stock,
                news,
                auction,
                events,
                ..
            } => {
                *events += 1;
                match *events % 5 {
                    0 => stock.tick(),
                    1 => news.headline(),
                    2 => auction.bid(),
                    3 => Event::builder().attr("unrelated", 0_i64).build(),
                    _ => Event::builder().attr("b", 2_i64).build(),
                }
            }
        }
    }
}

struct Live {
    handle: Subscription,
    expr: Expr,
}

/// The failure message: the subscription, then every event of the
/// window with the oracle's verdict and its delivery count, then the
/// window positions wanted and delivered, in order.
fn mismatch(
    config: &Config,
    step: usize,
    sub: &Live,
    window: &[Arc<Event>],
    got: &[Arc<Event>],
) -> String {
    let mut out = format!(
        "{config} step={step}: subscription {} `{}`",
        sub.handle.id(),
        sub.expr
    );
    let position = |event: &Arc<Event>| window.iter().position(|e| e == event);
    for (i, event) in window.iter().enumerate() {
        let delivered = got.iter().filter(|g| position(g) == Some(i)).count();
        let _ = write!(
            out,
            "\n  event {i} {event}: oracle {}, delivered {delivered}×",
            sub.expr.eval_event(event)
        );
    }
    let want: Vec<usize> = (0..window.len())
        .filter(|&i| sub.expr.eval_event(&window[i]))
        .collect();
    let got: Vec<Option<usize>> = got.iter().map(position).collect();
    let _ = write!(out, "\n  want events {want:?}, got {got:?}");
    out
}

/// Publishes a window of 1–`MAX_WINDOW` events the way `config` says,
/// then checks what every live subscriber received against its oracle.
/// Returns the window's length and the notifications delivered.
fn publish(
    config: &Config,
    step: usize,
    broker: &Broker,
    corpus: &mut Corpus,
    dice: &mut TreeScenario,
    live: &[Live],
) -> (usize, usize) {
    let window: Vec<Arc<Event>> = (0..1 + dice.pick(MAX_WINDOW))
        .map(|_| Arc::new(corpus.event()))
        .collect();
    let delivered = match config.width {
        Width::Scalar => window
            .iter()
            .map(|event| broker.publish_arc(Arc::clone(event)))
            .sum(),
        Width::Batch => broker.publish_batch(&window),
    };
    let mut wanted = 0;
    for sub in live {
        let want: Vec<Arc<Event>> = window
            .iter()
            .filter(|event| sub.expr.eval_event(event))
            .cloned()
            .collect();
        let got = sub.handle.drain();
        assert!(
            got == want,
            "{}",
            mismatch(config, step, sub, &window, &got)
        );
        wanted += want.len();
    }
    assert_eq!(delivered, wanted, "{config} step={step}: publish count");
    (window.len(), delivered)
}

/// Replays `steps` driver steps of `corpus` through a broker built as
/// `config` says, checking every publish window against the oracle.
/// Returns the most prunes the shards were seen to have counted.
fn replay(config: &Config, steps: usize, mut corpus: Corpus) -> u64 {
    let broker = Broker::builder()
        .engine(config.kind)
        .shards(config.shards)
        .placement(config.placement)
        .build();
    // The driver's own choices come from a second seeded stream.
    let mut dice = TreeScenario::new(!config.seed);
    let base = config.shards;
    let ladder = [base + 2, base.saturating_sub(1).max(1), base];
    let (mut shards, mut resizes) = (base, 0);
    let mut live: Vec<Live> = Vec::new();
    let (mut subscribed, mut peak_live) = (0, 0);
    let (mut events, mut notifications) = (0, 0);
    let mut prunes = 0;
    let prunes_now = |broker: &Broker| broker.shard_prune_counts().iter().sum::<u64>();

    for step in 0..steps {
        if step % RESIZE_EVERY == RESIZE_EVERY - 1 {
            // Counters go with dying cells: read them first.
            prunes = prunes.max(prunes_now(&broker));
            shards = ladder[resizes % ladder.len()];
            resizes += 1;
            broker.resize(shards);
            assert_eq!(broker.shard_count(), shards, "{config} step={step}");
        } else if step % REBALANCE_EVERY == REBALANCE_EVERY - 1 {
            broker.rebalance();
            let loads = broker.shard_loads();
            let spread = loads.iter().max().unwrap() - loads.iter().min().unwrap();
            assert!(spread <= 1, "{config} step={step}: rebalanced to {loads:?}");
            assert_eq!(
                loads.iter().sum::<usize>(),
                live.len(),
                "{config} step={step}"
            );
            broker.rebalance_by_match_frequency(8);
        } else {
            // One publish in four steps; the churn steps favour
            // subscribing below the target and unsubscribing above it.
            let roll = dice.pick(8);
            let subscribe_below = if live.len() < TARGET_LIVE { 5 } else { 1 };
            if roll >= 6 && !live.is_empty() {
                let (n, delivered) = publish(config, step, &broker, &mut corpus, &mut dice, &live);
                events += n;
                notifications += delivered;
            } else if live.is_empty() || roll < subscribe_below {
                let expr = corpus.subscription();
                let handle = broker
                    .subscribe_expr(&expr)
                    .unwrap_or_else(|e| panic!("{config} step={step}: `{expr}` refused: {e}"));
                peak_live = peak_live.max(live.len() + 1);
                assert!(
                    handle.id().slot() < peak_live,
                    "{config} step={step}: recycling keeps slots below the peak live count"
                );
                subscribed += 1;
                live.push(Live { expr, handle });
            } else {
                let gone = live.swap_remove(dice.pick(live.len()));
                if dice.pick(2) == 0 {
                    assert!(broker.unsubscribe(gone.handle.id()), "{config} step={step}");
                }
                // Dropping the handle unsubscribes; after the explicit
                // call above it must be a no-op.
                drop(gone);
            }
        }
        assert_eq!(
            broker.subscription_count(),
            live.len(),
            "{config} step={step}"
        );
    }
    assert_eq!(broker.shard_count(), shards, "{config}: final shard count");
    let stats = broker.stats();
    assert!(
        stats.subscriptions_migrated > 0,
        "{config}: nothing migrated"
    );
    let counted = [
        stats.events_published,
        stats.notifications_delivered,
        stats.subscriptions_created,
        stats.subscriptions_removed,
    ];
    let replayed = [events, notifications, subscribed, subscribed - live.len()];
    assert_eq!(counted, replayed.map(|n| n as u64), "{config}: stats");
    prunes.max(prunes_now(&broker))
}

/// Every row of the matrix for one engine kind.
fn every_configuration(kind: EngineKind) {
    for shards in [1, 3, 8] {
        for width in [Width::Scalar, Width::Batch] {
            for placement in [
                PlacementPolicy::LeastLoaded,
                PlacementPolicy::ClusterByAttribute,
            ] {
                let config = Config {
                    kind,
                    shards,
                    width,
                    placement,
                    corpus: "trees",
                    seed: 2005 + shards as u64,
                };
                replay(
                    &config,
                    STEPS,
                    Corpus::Trees(TreeScenario::new(config.seed)),
                );
            }
            if shards > 1 {
                let config = Config {
                    kind,
                    shards,
                    width,
                    placement: PlacementPolicy::ClusterByAttribute,
                    corpus: "selective",
                    seed: 0x5e1ec7 + shards as u64,
                };
                let corpus = Corpus::Selective(SelectiveScenario::new(config.seed, 8));
                let prunes = replay(&config, SHORT, corpus);
                assert!(prunes > 0, "{config}: pruning never fired");
            }
            if shards < 8 {
                let config = Config {
                    kind,
                    shards,
                    width,
                    placement: PlacementPolicy::LeastLoaded,
                    corpus: "domain",
                    seed: 11 + shards as u64,
                };
                replay(&config, SHORT, Corpus::domain(config.seed));
            }
        }
    }
}

#[test]
fn non_canonical_in_every_configuration() {
    every_configuration(EngineKind::NonCanonical);
}

#[test]
fn counting_in_every_configuration() {
    every_configuration(EngineKind::Counting);
}

#[test]
fn counting_variant_in_every_configuration() {
    every_configuration(EngineKind::CountingVariant);
}

/// The oracle's meaning of `not`, on generated trees and events —
/// missing attributes and kind mismatches included: it is the negation
/// normal form's, an expression and its negation never both hold, and
/// every kind answers the one divergent case of classical negation the
/// same way.
#[test]
fn negation_is_three_valued() {
    let mut corpus = TreeScenario::new(0x3_7A1E);
    let events: Vec<Event> = (0..64)
        .map(|_| corpus.event())
        .chain([
            Event::builder().build(),
            // Every tree attribute, each with a value of a kind its
            // constants do not have.
            Event::builder()
                .attr("x0", "x")
                .attr("x1", "x")
                .attr("x2", "x")
                .attr("x3", "x")
                .attr("f", "f")
                .attr("s", 7_i64)
                .attr("b", 0.5)
                .build(),
        ])
        .collect();
    let (mut held, mut unknown) = (0, 0);
    for _ in 0..400 {
        let e = corpus.subscription();
        let nnf = eliminate_not(&e);
        let negated = !e.clone();
        for event in &events {
            let verdict = e.eval_event(event);
            assert_eq!(
                verdict,
                nnf.eval_event(event),
                "`{e}` as `{nnf}` on {event}"
            );
            let negated_verdict = negated.eval_event(event);
            assert!(
                !(verdict && negated_verdict),
                "`{e}` and its negation both hold on {event}"
            );
            held += usize::from(verdict);
            unknown += usize::from(!verdict && !negated_verdict);
        }
    }
    assert!(held > 0 && unknown > 0, "held {held}, unknown {unknown}");

    let expr = Expr::parse("not (a = 1) and b = 2").unwrap();
    let without_a = Event::builder().attr("b", 2_i64).build();
    let with_a = Event::builder().attr("a", 3_i64).attr("b", 2_i64).build();
    assert!(!expr.eval_event(&without_a));
    assert!(expr.eval_event(&with_a));
    for kind in EngineKind::ALL {
        let mut engine = kind.build_matcher();
        engine.subscribe(&expr).unwrap();
        assert!(engine.match_event(&without_a).matched.is_empty(), "{kind}");
        assert_eq!(engine.match_event(&with_a).matched.len(), 1, "{kind}");
    }
}

#[test]
fn full_pipeline_events_from_satisfying_generator() {
    // satisfying_event builds a witness per subscription; the engine
    // must match it through the real (phase-1 + phase-2) pipeline.
    let mut scenario = StockScenario::new(21);
    let subs = scenario.subscriptions(60);
    let mut nc = EngineKind::NonCanonical.build_matcher();
    let ids: Vec<_> = subs.iter().map(|s| nc.subscribe(s).unwrap()).collect();
    for (i, s) in subs.iter().enumerate() {
        let event = satisfying_event(s)
            .unwrap_or_else(|| panic!("subscription {i} should be satisfiable: {s}"));
        let matched = nc.match_event(&event).matched;
        assert!(
            matched.contains(&ids[i]),
            "witness for {i} did not match its subscription"
        );
    }
}
