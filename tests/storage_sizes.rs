//! What the broker's storage costs, by the bytes it reports: a shard
//! holds 64 KiB tree blocks, a tree larger than one block gets a block
//! of its own for as long as it lives, the tables indexed by
//! subscription grow without a doubling cliff, and they follow the live
//! set, not the number of subscriptions ever made.

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
    let directory = |n: usize| {
        let mut dir = SubscriptionDirectory::new(1);
        for i in 0..n {
            let shard = dir.place();
            dir.issue(shard, SubscriptionId::from_index(i));
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

/// A seeded splitmix64 stream.
struct Dice(u64);

impl Dice {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// The benchmark's paper shape: attributes `a0`–`a31`, values in
/// `0..1 000 000`, thresholds in the outer 7.5 % of the domain.
const PAPER_ATTRS: u64 = 32;
const DOMAIN: u64 = 1_000_000;
const TAIL: u64 = 75_000;

/// Four `(a > hi or a <= lo)` pairs AND-ed over distinct attributes.
fn paper_subscription(dice: &mut Dice) -> Expr {
    let mut attrs: Vec<u64> = (0..PAPER_ATTRS).collect();
    let pairs = (0..4)
        .map(|p| {
            attrs.swap(p, p + dice.below(PAPER_ATTRS - p as u64) as usize);
            let attr = format!("a{}", attrs[p]);
            let hi = DOMAIN - 1 - dice.below(TAIL);
            let lo = dice.below(TAIL);
            Expr::or(vec![
                Expr::pred(Predicate::new(&attr, CompareOp::Gt, hi as i64)),
                Expr::pred(Predicate::new(&attr, CompareOp::Le, lo as i64)),
            ])
        })
        .collect();
    Expr::and(pairs)
}

/// An event carrying every paper attribute.
fn paper_event(dice: &mut Dice) -> Event {
    let mut event = Event::builder();
    for a in 0..PAPER_ATTRS {
        event.set(&format!("a{a}"), dice.below(DOMAIN) as i64);
    }
    event.build()
}

/// The routing fence: a broker keeps, per subscription, a directory
/// slot, a translation entry and a synopsis entry — and no copy of the
/// expression, which the engine already holds. On these 2 000
/// paper-shape subscriptions that reads 72.4 bytes each at S = 1 and
/// 78.0 at S = 4; a stored copy of the expression added ≈ 640.
#[test]
fn routing_keeps_no_expression() {
    const LIVE: usize = 2_000;
    for shards in [1, 4] {
        let broker = Broker::builder()
            .engine(EngineKind::NonCanonical)
            .shards(shards)
            .build();
        let mut dice = Dice(2005);
        let _live: Vec<Subscription> = (0..LIVE)
            .map(|_| {
                broker
                    .subscribe_expr(&paper_subscription(&mut dice))
                    .unwrap()
            })
            .collect();
        let per_sub = broker.memory_usage().unsub_support as f64 / LIVE as f64;
        assert!(
            per_sub <= 100.0,
            "S={shards}: {per_sub:.1} B of unsubscription support per subscription"
        );
    }
}

/// The phase-1 fence: a range predicate is one entry of a sorted column
/// — an 8-byte key and a 4-byte id, with at most an eighth spare — so
/// the counting engine's phase-1 index on the paper shape costs ≤ 14
/// bytes per distinct range predicate (≈ 13.0 here; ≈ 89 when each sat
/// in a B-tree entry).
#[test]
fn phase1_index_holds_a_column_entry_per_range_predicate() {
    const LIVE: usize = 4_000;
    let broker = Broker::builder().engine(EngineKind::Counting).build();
    let mut dice = Dice(2005);
    let mut distinct = std::collections::HashSet::new();
    let _live: Vec<Subscription> = (0..LIVE)
        .map(|_| {
            let expr = paper_subscription(&mut dice);
            distinct.extend(expr.predicates().into_iter().cloned());
            broker.subscribe_expr(&expr).unwrap()
        })
        .collect();
    let per_predicate = broker.memory_usage().phase1_index as f64 / distinct.len() as f64;
    assert!(
        per_predicate <= 14.0,
        "{per_predicate:.1} B of phase-1 index per range predicate ({} predicates)",
        distinct.len()
    );
}

/// The history fence: a broker holding a constant live set reports the
/// same bytes after ten full turnovers of it as after one, at S ∈ {1, 4}.
/// Every step unsubscribes a random live subscription and subscribes a
/// fresh one; every eighth step publishes.
fn memory_follows_the_live_set(kind: EngineKind) {
    const LIVE: usize = 2_000;
    const TURNOVERS: usize = 10;
    for shards in [1, 4] {
        let broker = Broker::builder().engine(kind).shards(shards).build();
        let mut dice = Dice(2005 + shards as u64);
        let mut live: Vec<Subscription> = (0..LIVE)
            .map(|_| {
                broker
                    .subscribe_expr(&paper_subscription(&mut dice))
                    .unwrap()
            })
            .collect();
        let mut after_first = 0;
        for turnover in 1..=TURNOVERS {
            for step in 0..LIVE {
                drop(live.swap_remove(dice.below(LIVE as u64) as usize));
                live.push(
                    broker
                        .subscribe_expr(&paper_subscription(&mut dice))
                        .unwrap(),
                );
                if step % 8 == 7 {
                    broker.publish(paper_event(&mut dice));
                }
            }
            if turnover == 1 {
                after_first = broker.memory_usage().total();
            }
        }
        let after_last = broker.memory_usage().total();
        assert!(
            after_last as f64 <= after_first as f64 * 1.01,
            "{kind} S={shards}: {after_first} B after one turnover of {LIVE}, \
             {after_last} B after {TURNOVERS}"
        );
    }
}

#[test]
fn non_canonical_memory_follows_the_live_set() {
    memory_follows_the_live_set(EngineKind::NonCanonical);
}

#[test]
fn counting_memory_follows_the_live_set() {
    memory_follows_the_live_set(EngineKind::Counting);
}

#[test]
fn counting_variant_memory_follows_the_live_set() {
    memory_follows_the_live_set(EngineKind::CountingVariant);
}
