//! Cross-crate equivalence: scenario workloads through every engine.
//!
//! Semantics contract (DESIGN.md §6):
//! * the non-canonical engine implements exact Boolean semantics —
//!   `not` is full negation over the fulfilled set;
//! * the canonical engines implement NNF semantics — `not` becomes
//!   operator complementation, which differs exactly when an event
//!   lacks the negated attribute (an inherent limitation of canonical
//!   transformation, not a bug).

use boolmatch::core::EngineKind;
use boolmatch::expr::{transform, Expr};
use boolmatch::types::Event;
use boolmatch::workload::scenarios::{AuctionScenario, NewsScenario, StockScenario};

fn check_engine_against(
    kind: EngineKind,
    subs: &[Expr],
    events: &[Event],
    reference: impl Fn(&Expr, &Event) -> bool,
) {
    let mut engine = kind.build_matcher();
    for s in subs {
        engine.subscribe(s).unwrap();
    }
    for event in events {
        let mut got: Vec<usize> = engine
            .match_event(event)
            .matched
            .iter()
            .map(|s| s.index())
            .collect();
        got.sort();
        let want: Vec<usize> = subs
            .iter()
            .enumerate()
            .filter(|(_, s)| reference(s, event))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(got, want, "{kind} mismatch on {event}");
    }
}

#[test]
fn stock_scenario_all_engines_equal_direct_eval() {
    // Stock subscriptions are NOT-free: every engine implements exact
    // semantics and they all agree with direct evaluation.
    let mut scenario = StockScenario::new(11);
    let subs = scenario.subscriptions(120);
    assert!(subs.iter().all(|s| !s.contains_not()));
    let events: Vec<Event> = (0..300).map(|_| scenario.tick()).collect();
    for kind in EngineKind::ALL {
        check_engine_against(kind, &subs, &events, Expr::eval_event);
    }
}

#[test]
fn news_scenario_noncanonical_exact_canonical_nnf() {
    let mut scenario = NewsScenario::new(12);
    let subs = scenario.subscriptions(100);
    let events: Vec<Event> = (0..300).map(|_| scenario.headline()).collect();

    check_engine_against(EngineKind::NonCanonical, &subs, &events, |s, e| {
        s.eval_event(e)
    });
    for kind in [EngineKind::Counting, EngineKind::CountingVariant] {
        check_engine_against(kind, &subs, &events, |s, e| {
            transform::eliminate_not(s).eval_event(e)
        });
    }
}

#[test]
fn auction_scenario_noncanonical_exact_canonical_nnf() {
    let mut scenario = AuctionScenario::new(13);
    let subs = scenario.subscriptions(80);
    let events: Vec<Event> = (0..300).map(|_| scenario.bid()).collect();

    check_engine_against(EngineKind::NonCanonical, &subs, &events, |s, e| {
        s.eval_event(e)
    });
    for kind in [EngineKind::Counting, EngineKind::CountingVariant] {
        check_engine_against(kind, &subs, &events, |s, e| {
            transform::eliminate_not(s).eval_event(e)
        });
    }
}

#[test]
fn negation_semantics_diverge_exactly_on_missing_attributes() {
    // Documented divergence: `not (a = 1) and b = 2` on an event
    // without `a`.
    let expr = Expr::parse("not (a = 1) and b = 2").unwrap();
    let event = Event::builder().attr("b", 2_i64).build();

    let mut nc = EngineKind::NonCanonical.build_matcher();
    nc.subscribe(&expr).unwrap();
    // Full negation: a=1 is unfulfilled, so `not` holds.
    assert_eq!(nc.match_event(&event).matched.len(), 1);

    for kind in [EngineKind::Counting, EngineKind::CountingVariant] {
        let mut engine = kind.build_matcher();
        engine.subscribe(&expr).unwrap();
        // Complemented: `a != 1` needs the attribute to be present.
        assert!(engine.match_event(&event).matched.is_empty(), "{kind}");
    }

    // With the attribute present, everyone agrees.
    let full = Event::builder().attr("a", 3_i64).attr("b", 2_i64).build();
    assert_eq!(nc.match_event(&full).matched.len(), 1);
    for kind in [EngineKind::Counting, EngineKind::CountingVariant] {
        let mut engine = kind.build_matcher();
        engine.subscribe(&expr).unwrap();
        assert_eq!(engine.match_event(&full).matched.len(), 1, "{kind}");
    }
}

#[test]
fn negations_match_events_that_fulfil_none_of_their_predicates() {
    // Exact semantics has no "some predicate must be fulfilled"
    // precondition: these are true of an event carrying none of their
    // attributes, through the engine and through the broker's shard
    // pruning alike.
    let subs: Vec<Expr> = ["not (a = 1)", "a = 1 or not (b = 2)", "a = 1", "b = 2"]
        .iter()
        .map(|t| Expr::parse(t).unwrap())
        .collect();
    let nothing = Event::builder().attr("unrelated", 0_i64).build();
    let only_b = Event::builder().attr("b", 2_i64).build();
    check_engine_against(
        EngineKind::NonCanonical,
        &subs,
        &[nothing.clone(), only_b],
        Expr::eval_event,
    );
    for shards in [1, 3] {
        let broker = boolmatch::broker::Broker::builder()
            .engine(EngineKind::NonCanonical)
            .shards(shards)
            .build();
        let handles: Vec<_> = subs
            .iter()
            .map(|s| broker.subscribe_expr(s).unwrap())
            .collect();
        assert_eq!(broker.publish(nothing.clone()), 2, "{shards} shard(s)");
        assert!(handles[0].try_recv().is_some());
        assert!(handles[1].try_recv().is_some());
        assert!(handles[2].try_recv().is_none());
    }
}

#[test]
fn full_pipeline_events_from_satisfying_generator() {
    // satisfying_event builds a witness per subscription; the engines
    // must match it through the real (phase-1 + phase-2) pipeline.
    let mut scenario = StockScenario::new(21);
    let subs = scenario.subscriptions(60);
    let mut nc = EngineKind::NonCanonical.build_matcher();
    let ids: Vec<_> = subs.iter().map(|s| nc.subscribe(s).unwrap()).collect();
    for (i, s) in subs.iter().enumerate() {
        let event = boolmatch::workload::satisfying_event(s)
            .unwrap_or_else(|| panic!("subscription {i} should be satisfiable: {s}"));
        let matched = nc.match_event(&event).matched;
        assert!(
            matched.contains(&ids[i]),
            "witness for {i} did not match its subscription"
        );
    }
}
