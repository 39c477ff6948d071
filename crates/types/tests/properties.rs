//! Seeded properties of the value model: the total order, `Eq`/`Hash`
//! agreement and coercion round trips the indexes depend on, and event
//! lookup against iteration.

use std::cmp::Ordering;
use std::hash::{BuildHasher, RandomState};

use boolmatch_types::{Event, Value, ValueKind};

/// splitmix64 (Steele, Lea, Flood 2014), reduced below `n`.
fn below(state: &mut u64, n: u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % n
}

/// A name of one or two letters from `a`–`c`, so names repeat.
fn name(rng: &mut u64) -> String {
    let len = 1 + below(rng, 2);
    (0..len)
        .map(|_| char::from(b'a' + below(rng, 3) as u8))
        .collect()
}

/// A value of any kind from small pools, so that equal values built
/// apart and the float corners (signed zeros, infinities, NaNs of both
/// signs) turn up.
fn value(rng: &mut u64) -> Value {
    let floats = [
        0.0,
        -0.0,
        1.0,
        -2.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];
    match below(rng, 5) {
        0 => Value::from(below(rng, 2) == 1),
        1 => Value::from(below(rng, 7) as i64 - 3),
        2 => Value::from([i64::MIN, i64::MAX][below(rng, 2) as usize]),
        3 => Value::from(floats[below(rng, floats.len() as u64) as usize]),
        _ => Value::from(name(rng).as_str()),
    }
}

#[test]
fn order_is_total_transitive_and_agrees_with_eq_hash_and_coercion() {
    let mut rng = 2005;
    let values: Vec<Value> = (0..120).map(|_| value(&mut rng)).collect();
    let (hasher, mut equal_pairs) = (RandomState::new(), 0);
    for a in &values {
        // Reflexive, NaN included.
        assert_eq!(a.cmp(&a.clone()), Ordering::Equal, "{a}");
        assert_eq!(a, &a.clone());
        for kind in [
            ValueKind::Bool,
            ValueKind::Int,
            ValueKind::Float,
            ValueKind::Str,
        ] {
            if let Some(c) = a.coerce_to(kind) {
                assert_eq!(c.kind(), kind, "{a} as {kind}");
                assert_eq!(
                    c.coerce_to(a.kind()).as_ref(),
                    Some(a),
                    "{a} as {kind} and back"
                );
            }
        }
        for b in &values {
            let ab = a.cmp(b);
            assert_eq!(ab, b.cmp(a).reverse(), "antisymmetry of {a} and {b}");
            assert_eq!(ab == Ordering::Equal, a == b, "cmp and eq of {a} and {b}");
            if a == b {
                assert_eq!(
                    hasher.hash_one(a),
                    hasher.hash_one(b),
                    "hash of {a} and {b}"
                );
                equal_pairs += 1;
            }
            for c in &values {
                assert!(!(a <= b && b <= c) || a <= c, "{a} <= {b} <= {c}");
            }
        }
    }
    // Equal values built apart, not only each value against itself.
    assert!(equal_pairs > 2 * values.len(), "{equal_pairs} equal pairs");
}

#[test]
fn event_lookup_agrees_with_iteration() {
    let mut rng = 7;
    for _ in 0..500 {
        let pairs: Vec<(String, i64)> = (0..below(&mut rng, 12))
            .map(|_| (name(&mut rng), below(&mut rng, 100) as i64))
            .collect();
        let event = Event::from_pairs(pairs.iter().map(|(n, v)| (n.as_str(), *v)));
        // Names iterate strictly increasing, and each is found by lookup.
        let names: Vec<&str> = event.iter().map(|(n, _)| n).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        for (name, value) in event.iter() {
            assert_eq!(event.get(name), Some(value), "{event}");
        }
        // Every written name is there, holding its last write.
        for (name, _) in &pairs {
            let last = pairs
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|(_, v)| Value::from(*v));
            assert_eq!(event.get(name), last.as_ref(), "{event}");
        }
        assert_eq!(event.len(), names.len());
    }
}
