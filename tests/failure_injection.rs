//! Failure injection and boundary conditions across the stack.

use std::sync::Arc;

use boolmatch::broker::{Broker, BrokerError};
use boolmatch::core::{
    EngineKind, FulfilledSet, PlacementPolicy, PredicateId, SubscribeError, SubscriptionId,
};
use boolmatch::expr::{Expr, MAX_DEPTH};
use boolmatch::types::{Event, Schema, ValueKind};

#[test]
fn malformed_subscriptions_are_rejected_not_panicked() {
    let cases = [
        "",
        "and",
        "a >",
        "a > 10 or",
        "(a = 1",
        "a = 1)",
        "a ! 1",
        "a prefix 10",
        "a = \"unterminated",
        "not",
        "a == == 1",
    ];
    for text in cases {
        assert!(Expr::parse(text).is_err(), "`{text}` should fail to parse");
    }
}

/// `x1 = 1 and (x2 = 1 or (x3 = 1 and (…)))`, `depth` levels deep:
/// each level is one leaf beside the next level in parentheses.
fn nested(depth: usize) -> String {
    let mut text = String::new();
    for level in 1..depth {
        let op = if level % 2 == 1 { "and" } else { "or" };
        text += &format!("x{level} = 1 {op} (");
    }
    text + &format!("x{depth} = 1") + &")".repeat(depth - 1)
}

/// A tree built in code never goes through the parser's bound, so the
/// broker must hand it to the engines' depth check as it is: on a
/// 128 KiB thread, a 2 000-deep tree of nested `and`s around an `or`,
/// passed by reference, is refused with [`SubscribeError::TooDeep`]
/// under either placement — neither a deep copy nor clustering's
/// search for a required equality recurses over it first.
#[test]
fn a_deep_tree_built_in_code_is_refused_without_a_copy() {
    const DEPTH: usize = 2_000;
    let leaf = Expr::parse("x > 1").unwrap();
    let mut deep = Expr::parse("x = 1 or y = 1").unwrap();
    while deep.depth() < DEPTH {
        deep = Expr::And(vec![deep, leaf.clone()]);
    }
    for kind in EngineKind::ALL {
        for placement in [
            PlacementPolicy::LeastLoaded,
            PlacementPolicy::ClusterByAttribute,
        ] {
            let broker = Broker::builder()
                .engine(kind)
                .shards(2)
                .placement(placement)
                .build();
            let err = std::thread::scope(|scope| {
                std::thread::Builder::new()
                    .stack_size(128 << 10)
                    .spawn_scoped(scope, || broker.subscribe_expr(&deep).map(|sub| sub.id()))
                    .unwrap()
                    .join()
                    .unwrap()
            })
            .unwrap_err();
            assert_eq!(
                err,
                BrokerError::Subscribe(SubscribeError::TooDeep {
                    depth: DEPTH,
                    limit: MAX_DEPTH,
                }),
                "{kind} {placement:?}"
            );
            assert_eq!(
                broker.shard_loads(),
                vec![0, 0],
                "{kind}: nothing is registered"
            );
        }
    }
}

/// A hostile subscription gets an error, not a process abort: on a
/// 256 KiB thread of a debug build, a subscription exactly
/// [`MAX_DEPTH`] deep goes through every pass on every engine kind,
/// one level more is refused by the engine, a 100 000-deep string
/// (deep enough to overflow the parser's stack without the bound) is
/// refused by the parser, and a 100 000-leaf flat `or` by every engine.
#[test]
fn subscription_depth_is_bounded() {
    let worker = std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(|| {
            let deep = nested(MAX_DEPTH);
            let expr = Expr::parse(&deep).expect("MAX_DEPTH levels parse");
            assert_eq!(expr.depth(), MAX_DEPTH);
            let hit = Arc::new(Event::from_pairs(
                (1..=MAX_DEPTH).map(|level| (format!("x{level}"), 1_i64)),
            ));
            for kind in EngineKind::ALL {
                let mut engine = kind.build();
                let id = engine.subscribe(&expr).expect("MAX_DEPTH is accepted");
                let back = engine.expression(id).expect("the engine gives it back");
                assert!(back.depth() <= MAX_DEPTH && back.eval_event(&hit), "{kind}");

                // Subscribe, publish, a migrating rebalance (which takes
                // the expression from the source engine and subscribes
                // it on the target) and unsubscribe, through the broker.
                let broker = Broker::builder().engine(kind).build();
                let _filler = broker.subscribe("y = 1").unwrap();
                let sub = broker.subscribe(&deep).unwrap();
                assert_eq!(broker.publish_arc(Arc::clone(&hit)), 1, "{kind}");
                broker.resize(2);
                // The migration victim is the highest local id: `sub`.
                assert_eq!(broker.rebalance(), 1, "{kind}");
                assert_eq!(broker.publish_arc(Arc::clone(&hit)), 1, "{kind}");
                assert_eq!(sub.drain().len(), 2, "{kind}");
                assert!(broker.unsubscribe(sub.id()), "{kind}");

                let err = broker.subscribe(&nested(MAX_DEPTH + 1)).unwrap_err();
                assert_eq!(
                    err,
                    BrokerError::Subscribe(SubscribeError::TooDeep {
                        depth: MAX_DEPTH + 1,
                        limit: MAX_DEPTH,
                    }),
                    "{kind}"
                );
            }
            let err = Broker::builder().build().subscribe(&nested(100_000));
            assert!(matches!(err, Err(BrokerError::Parse(_))), "{err:?}");

            // Breadth is not depth: a 100 000-leaf flat `or` parses
            // (depth 2) and is refused with the engines' size errors.
            let flat: Vec<String> = (0..100_000).map(|i| format!("x = {i}")).collect();
            let flat = Expr::parse(&flat.join(" or ")).unwrap();
            for kind in EngineKind::ALL {
                let err = kind.build().subscribe(&flat).unwrap_err();
                match kind {
                    // The `or` node's child table outgrows its encoding.
                    EngineKind::NonCanonical => {
                        assert!(matches!(err, SubscribeError::Encode(_)), "{err:?}");
                    }
                    _ => assert!(matches!(err, SubscribeError::DnfTooLarge { .. }), "{err:?}"),
                }
            }
        })
        .unwrap();
    worker.join().unwrap();
}

#[test]
fn stale_subscription_ids_error_on_every_engine() {
    for kind in EngineKind::ALL {
        let mut engine = kind.build_matcher();
        let id = engine.subscribe(&Expr::parse("a = 1").unwrap()).unwrap();
        engine.unsubscribe(id).unwrap();
        assert!(engine.unsubscribe(id).is_err(), "{kind} double unsubscribe");
        assert!(
            engine
                .unsubscribe(SubscriptionId::from_index(10_000))
                .is_err(),
            "{kind} unknown id"
        );
        // The engine still works after the failed calls.
        let id2 = engine.subscribe(&Expr::parse("b = 2").unwrap()).unwrap();
        let hit = Event::builder().attr("b", 2_i64).build();
        assert_eq!(engine.match_event(&hit).matched, vec![id2]);
    }
}

#[test]
fn failed_subscribe_leaks_nothing() {
    // DNF bomb: rejected by counting engines *before* any table is
    // touched; the engine must remain byte-identical in accounting.
    for kind in [EngineKind::Counting, EngineKind::CountingVariant] {
        let mut engine = kind.build_matcher();
        engine.subscribe(&Expr::parse("keep = 1").unwrap()).unwrap();
        let before = engine.memory_usage();
        let preds_before = engine.predicate_count();

        let bomb_text: String = (0..40)
            .map(|i| format!("(x{i} = 1 or y{i} = 2)"))
            .collect::<Vec<_>>()
            .join(" and ");
        let bomb = Expr::parse(&bomb_text).unwrap();
        assert!(engine.subscribe(&bomb).is_err(), "{kind}");

        assert_eq!(engine.predicate_count(), preds_before, "{kind}");
        assert_eq!(engine.memory_usage(), before, "{kind} accounting drifted");
        assert_eq!(engine.subscription_count(), 1);
    }
}

#[test]
fn fulfilled_sets_with_out_of_universe_ids_are_safe_for_matching() {
    // phase2 with a set whose universe is larger than the engine's:
    // engines must ignore unknown ids gracefully.
    let mut engine = EngineKind::NonCanonical.build_matcher();
    let id = engine
        .subscribe(&Expr::parse("a = 1 and b = 2").unwrap())
        .unwrap();
    let set = FulfilledSet::from_ids(
        (0..100).map(PredicateId::from_index),
        1_000, // far larger than the engine's 2-predicate universe
    );
    let mut matched = Vec::new();
    engine.phase2(&set, &mut matched);
    assert_eq!(matched, vec![id]);
}

#[test]
fn empty_and_alien_events_match_nothing() {
    for kind in EngineKind::ALL {
        let mut engine = kind.build_matcher();
        engine
            .subscribe(&Expr::parse("(a = 1 or b = 2) and c = 3").unwrap())
            .unwrap();
        assert!(engine
            .match_event(&Event::builder().build())
            .matched
            .is_empty());
        let alien = Event::builder().attr("zzz", "nothing").build();
        assert!(engine.match_event(&alien).matched.is_empty(), "{kind}");
    }
}

#[test]
fn type_confusion_never_matches_and_schema_catches_it() {
    // Subscription on int price; publisher sends float price.
    let mut engine = EngineKind::NonCanonical.build_matcher();
    engine
        .subscribe(&Expr::parse("price > 10").unwrap())
        .unwrap();
    let confused = Event::builder().attr("price", 15.0).build();
    assert!(
        engine.match_event(&confused).matched.is_empty(),
        "strict typing: float 15.0 does not satisfy int > 10"
    );

    // The schema layer exists to catch exactly this at the boundary.
    let schema = Schema::builder()
        .attr("price", ValueKind::Int)
        .build()
        .unwrap();
    assert!(schema.validate_event(&confused).is_err());
    let ok = Event::builder().attr("price", 15_i64).build();
    assert!(schema.validate_event(&ok).is_ok());
    assert_eq!(engine.match_event(&ok).matched.len(), 1);
}

#[test]
fn heavy_churn_keeps_engines_consistent() {
    for kind in EngineKind::ALL {
        let mut engine = kind.build_matcher();
        let expr_a = Expr::parse("(a = 1 or b = 2) and (c = 3 or d = 4)").unwrap();
        let expr_b = Expr::parse("(a = 1 or e = 5) and f = 6").unwrap();
        let hit_a = Event::builder().attr("a", 1_i64).attr("c", 3_i64).build();

        for round in 0..50 {
            let ida = engine.subscribe(&expr_a).unwrap();
            let idb = engine.subscribe(&expr_b).unwrap();
            let matched = engine.match_event(&hit_a).matched;
            assert_eq!(matched, vec![ida], "{kind} round {round}");
            engine.unsubscribe(ida).unwrap();
            engine.unsubscribe(idb).unwrap();
            assert!(engine.match_event(&hit_a).matched.is_empty());
        }
        assert_eq!(engine.subscription_count(), 0);
        assert_eq!(engine.predicate_count(), 0, "{kind} leaked predicates");
    }
}
