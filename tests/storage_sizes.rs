//! What the broker's storage costs, by the bytes it reports: a shard
//! holds 64 KiB tree blocks, a tree larger than one block gets a block
//! of its own for as long as it lives, and the tables indexed by
//! subscription grow without a doubling cliff.

use std::sync::Arc;

use boolmatch::core::arena::BLOCK_SIZE;
use boolmatch::core::ShardSynopsis;
use boolmatch::prelude::*;

/// What a shard with one small subscription may hold for its trees:
/// one 64 KiB block and 256 bytes of block table.
const ONE_BLOCK: usize = (64 << 10) + 256;

#[test]
fn one_subscription_per_shard_holds_one_block_per_shard() {
    for shards in [1, 4, 8] {
        let broker = Broker::builder()
            .engine(EngineKind::NonCanonical)
            .shards(shards)
            .build();
        let _subs: Vec<Subscription> = (0..shards)
            .map(|i| broker.subscribe(&format!("a = {i}")).unwrap())
            .collect();
        assert_eq!(broker.shard_loads(), vec![1; shards]);
        let trees = broker.memory_usage().trees;
        assert!(
            trees <= shards * ONE_BLOCK,
            "{shards} shards: {trees} tree bytes"
        );
    }
}

/// `x = i and (y = … or …)` for `i < 40`, joined by `or`: 250 `y`
/// leaves a child, 70 602 encoded bytes in all — more than one block.
fn tree_over_one_block() -> Expr {
    let children = (0..40_i64)
        .map(|i| {
            let leaves = (0..250)
                .map(|j| Expr::pred(Predicate::new("y", CompareOp::Eq, i * 250 + j)))
                .collect();
            Expr::and(vec![
                Expr::pred(Predicate::new("x", CompareOp::Eq, i)),
                Expr::or(leaves),
            ])
        })
        .collect();
    Expr::or(children)
}

#[test]
fn a_tree_over_one_block_matches_and_frees_its_block() {
    let broker = Broker::builder().engine(EngineKind::NonCanonical).build();
    let small = broker.subscribe("x = 3 and y > 9990").unwrap();
    let before = broker.memory_usage().trees;

    let expr = tree_over_one_block();
    let big = broker.subscribe_expr(&expr).unwrap();
    let grown = broker.memory_usage().trees - before;
    assert!(
        grown > BLOCK_SIZE && grown < 2 * BLOCK_SIZE,
        "the tree's own block: {grown} bytes"
    );

    let small_expr = Expr::parse("x = 3 and y > 9990").unwrap();
    for x in [0_i64, 3, 17, 39, 40] {
        for y in [0_i64, 749, 750, 999, 1_000, 4_250, 9_249, 9_991, 10_000] {
            let event = Event::builder().attr("x", x).attr("y", y).build();
            let delivered = broker.publish(event.clone());
            let expected = [&expr, &small_expr]
                .iter()
                .filter(|e| e.eval_event(&event))
                .count();
            assert_eq!(delivered, expected, "x = {x}, y = {y}");
            assert_eq!(big.drain().len(), usize::from(expr.eval_event(&event)));
            assert_eq!(
                small.drain().len(),
                usize::from(small_expr.eval_event(&event))
            );
        }
    }

    drop(big);
    assert_eq!(broker.memory_usage().trees, before);
}

/// Bytes per entry of a table holding `n` entries.
fn per_entry(n: usize, heap_bytes: impl Fn(usize) -> usize) -> f64 {
    heap_bytes(n) as f64 / n as f64
}

#[test]
fn subscription_tables_have_no_doubling_cliff() {
    let expr = Arc::new(Expr::parse("sym = 3 and px > 10").unwrap());
    let directory = |n: usize| {
        let mut dir = SubscriptionDirectory::new(1);
        for i in 0..n {
            let shard = dir.place();
            dir.commit(shard, SubscriptionId::from_index(i), Arc::clone(&expr));
        }
        dir.heap_bytes()
    };
    let translation = |n: usize| {
        let mut map = ShardTranslation::new();
        for i in 0..n {
            map.set(SubscriptionId::from_index(i), SubscriptionId::from_index(i));
        }
        map.heap_bytes()
    };
    // Eight constants: the per-value summaries are keyed by constant,
    // not by subscription, so they stay out of the comparison.
    let synopsis = |n: usize| {
        let mut synopsis = ShardSynopsis::new();
        for i in 0..n {
            let text = format!("sym = {} and px > 10", i % 8);
            synopsis.insert(SubscriptionId::from_index(i), &Expr::parse(&text).unwrap());
        }
        synopsis.heap_bytes()
    };
    for k in [10, 12, 14] {
        let n = 1 << k;
        for (table, bytes) in [
            ("directory", &directory as &dyn Fn(usize) -> usize),
            ("translation", &translation),
            ("synopsis", &synopsis),
        ] {
            let (at, past) = (per_entry(n, bytes), per_entry(n + 1, bytes));
            assert!(
                (past / at - 1.0).abs() < 0.02,
                "{table}: {at:.1} B/sub at 2^{k}, {past:.1} at 2^{k} + 1"
            );
        }
    }
}
