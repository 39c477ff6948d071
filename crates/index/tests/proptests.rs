//! Property-based tests: the B+ tree against a `BTreeMap` oracle, and
//! the predicate index against direct predicate evaluation.

use std::collections::BTreeMap;
use std::ops::Bound;

use proptest::prelude::*;

use boolmatch_expr::{CompareOp, Predicate};
use boolmatch_index::{BPlusTree, PredicateIndex};
use boolmatch_types::{Event, Value};

#[derive(Debug, Clone)]
enum Op {
    Insert(i16, u32),
    Remove(i16),
    Get(i16),
    Range(i16, i16),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<i16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        any::<i16>().prop_map(Op::Remove),
        any::<i16>().prop_map(Op::Get),
        (any::<i16>(), any::<i16>()).prop_map(|(a, b)| Op::Range(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bptree_matches_btreemap_oracle(
        ops in prop::collection::vec(arb_op(), 1..400),
        order in 4usize..16,
    ) {
        let mut tree: BPlusTree<i16, u32> = BPlusTree::with_order(order);
        let mut oracle: BTreeMap<i16, u32> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(k, v), oracle.insert(k, v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(tree.remove(&k), oracle.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(&k), oracle.get(&k));
                }
                Op::Range(a, b) => {
                    let got: Vec<(i16, u32)> =
                        tree.range(a..b).map(|(k, v)| (*k, *v)).collect();
                    let want: Vec<(i16, u32)> =
                        oracle.range(a..b).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len(), oracle.len());
        }
        tree.check_invariants();
        let got: Vec<(i16, u32)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(i16, u32)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn bptree_range_bound_combinations(
        keys in prop::collection::btree_set(any::<i16>(), 0..200),
        a in any::<i16>(),
        b in any::<i16>(),
        incl_start in any::<bool>(),
        incl_end in any::<bool>(),
    ) {
        let tree: BPlusTree<i16, ()> = keys.iter().map(|&k| (k, ())).collect();
        let oracle: BTreeMap<i16, ()> = keys.iter().map(|&k| (k, ())).collect();
        let (lo, hi) = (a.min(b), a.max(b));
        let start = if incl_start { Bound::Included(lo) } else { Bound::Excluded(lo) };
        let end = if incl_end { Bound::Included(hi) } else { Bound::Excluded(hi) };
        // BTreeMap panics on (Excluded(x), Excluded(x)); skip that corner.
        prop_assume!(!(lo == hi && (!incl_start || !incl_end)));
        let got: Vec<i16> = tree.range((start, end)).map(|(k, _)| *k).collect();
        let want: Vec<i16> = oracle.range((start, end)).map(|(k, _)| *k).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn predicate_index_agrees_with_direct_eval(
        preds in prop::collection::vec(
            (0..3u8, 0..6u8, -5i64..5),
            1..60
        ),
        attrs in prop::collection::vec((0..3u8, -6i64..6), 0..3),
    ) {
        let ops = [CompareOp::Eq, CompareOp::Ne, CompareOp::Lt,
                   CompareOp::Le, CompareOp::Gt, CompareOp::Ge];
        let mut idx: PredicateIndex<u32> = PredicateIndex::new();
        let mut list = Vec::new();
        for (i, (attr, op, c)) in preds.iter().enumerate() {
            let p = Predicate::new(&format!("a{attr}"), ops[*op as usize % 6], *c);
            idx.insert(i as u32, &p);
            list.push(p);
        }
        let event = Event::from_pairs(
            attrs.iter().map(|(a, v)| (format!("a{a}"), *v)),
        );
        let mut got = idx.matching(&event);
        got.sort();
        got.dedup();
        let want: Vec<u32> = list
            .iter()
            .enumerate()
            .filter(|(_, p)| p.eval_event(&event))
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn predicate_index_insert_remove_round_trip(
        preds in prop::collection::vec((0..3u8, 0..6u8, -5i64..5), 1..40),
        event_val in -6i64..6,
    ) {
        let ops = [CompareOp::Eq, CompareOp::Ne, CompareOp::Lt,
                   CompareOp::Le, CompareOp::Gt, CompareOp::Ge];
        let mut idx: PredicateIndex<u32> = PredicateIndex::new();
        let list: Vec<Predicate> = preds
            .iter()
            .map(|(attr, op, c)| Predicate::new(&format!("a{attr}"), ops[*op as usize % 6], *c))
            .collect();
        for (i, p) in list.iter().enumerate() {
            idx.insert(i as u32, p);
        }
        // Remove every other predicate.
        for (i, p) in list.iter().enumerate() {
            if i % 2 == 0 {
                prop_assert!(idx.remove(i as u32, p));
            }
        }
        let event = Event::builder()
            .attr("a0", event_val)
            .attr("a1", event_val)
            .attr("a2", event_val)
            .build();
        let mut got = idx.matching(&event);
        got.sort();
        let want: Vec<u32> = list
            .iter()
            .enumerate()
            .filter(|(i, p)| i % 2 == 1 && p.eval_event(&event))
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(idx.predicate_count(), list.len() / 2);
    }

    #[test]
    fn bptree_float_values_with_total_order(
        floats in prop::collection::vec(any::<f64>(), 0..100),
    ) {
        let mut tree: BPlusTree<Value, usize> = BPlusTree::new();
        let mut oracle: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, &x) in floats.iter().enumerate() {
            tree.insert(Value::from(x), i);
            // total_cmp order on bits for non-negative, flipped for negative:
            // use the sign-magnitude transform BTreeMap-compatible key.
            let bits = x.to_bits();
            let key = if bits >> 63 == 0 { bits ^ (1 << 63) } else { !bits };
            oracle.insert(key, i);
        }
        prop_assert_eq!(tree.len(), oracle.len());
        let got: Vec<usize> = tree.iter().map(|(_, v)| *v).collect();
        let want: Vec<usize> = oracle.values().copied().collect();
        prop_assert_eq!(got, want);
        tree.check_invariants();
    }
}
