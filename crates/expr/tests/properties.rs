//! Seeded properties of the subscription language: a generated tree
//! prints and parses back to itself, its negation normal form is
//! NOT-free and compact, and the parser returns (never panics) on
//! arbitrary input.

use boolmatch_expr::{transform, CompareOp, Expr, Predicate};
use boolmatch_types::Value;

/// splitmix64 (Steele, Lea, Flood 2014), reduced below `n`.
fn below(state: &mut u64, n: u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % n
}

fn pick<T: Copy>(rng: &mut u64, items: &[T]) -> T {
    items[below(rng, items.len() as u64) as usize]
}

/// A string that often needs escaping.
fn string(rng: &mut u64) -> Value {
    let chars = ['a', ' ', '"', '\\', 'é', '日'];
    let s: String = (0..below(rng, 4)).map(|_| pick(rng, &chars)).collect();
    Value::from(s.as_str())
}

/// A predicate on any operator with a constant the language can spell:
/// every kind, negative and extreme integers, whole and fractional
/// floats, strings needing escapes.
fn predicate(rng: &mut u64) -> Predicate {
    use CompareOp::{Contains, Eq, Gt, Lt, Prefix};
    // Five operators and their complements: all ten.
    let op = pick(rng, &[Eq, Lt, Gt, Prefix, Contains]);
    let op = if below(rng, 2) == 1 {
        op.complement()
    } else {
        op
    };
    let value = match below(rng, 5) {
        _ if op.is_string_search() => string(rng),
        0 => Value::from(below(rng, 2) == 1),
        1 => Value::from(below(rng, 200) as i64 - 100),
        2 => Value::from(pick(rng, &[i64::MIN, i64::MAX])),
        3 => Value::from((below(rng, 80) as f64 - 40.0) / 4.0),
        _ => string(rng),
    };
    Predicate::new(pick(rng, &["x0", "x1", "price", "a.b", "_n2"]), op, value)
}

/// A tree of `and`, `or` and `not` up to `depth` levels deep, compact
/// as the parser builds it: an `and` child of an `and` (an `or` of an
/// `or`) is spliced into its parent.
fn expr(rng: &mut u64, depth: u32) -> Expr {
    if depth == 0 || below(rng, 4) == 0 {
        return Expr::pred(predicate(rng));
    }
    let kind = below(rng, 3);
    let mut children: Vec<Expr> = (0..2 + below(rng, 2))
        .map(|_| expr(rng, depth - 1))
        .collect();
    if kind == 2 {
        return !children.swap_remove(0);
    }
    let and = kind == 0;
    let flat = children.into_iter().flat_map(|c| match c {
        Expr::And(cs) if and => cs,
        Expr::Or(cs) if !and => cs,
        c => vec![c],
    });
    if and {
        Expr::And(flat.collect())
    } else {
        Expr::Or(flat.collect())
    }
}

#[test]
fn display_parse_round_trip() {
    let mut rng = 2005;
    for _ in 0..2_000 {
        // Display flattens same-operator chains the way the parser
        // does, so the round trip is exact for compact trees.
        let e = expr(&mut rng, 4);
        let printed = e.to_string();
        let reparsed = Expr::parse(&printed).unwrap_or_else(|err| panic!("`{printed}`: {err}"));
        assert_eq!(reparsed, e, "round trip of `{printed}`");
    }
}

#[test]
fn negation_normal_form_is_not_free_and_compact() {
    let mut rng = 36;
    for _ in 0..2_000 {
        let e = expr(&mut rng, 4);
        let n = transform::eliminate_not(&e);
        assert!(!n.contains_not(), "`{e}` became `{n}`");
        // The parser builds compact trees, so `n` survives a round trip
        // through its text exactly when it is compact.
        assert_eq!(
            Expr::parse(&n.to_string()).unwrap(),
            n,
            "`{e}` became `{n}`"
        );
        assert_eq!(n.predicate_count(), e.predicate_count(), "`{e}`");
    }
}

#[test]
fn parser_never_panics_on_arbitrary_input() {
    // Fragments of the language beside stray characters, joined with
    // and without spaces, so inputs get past the lexer as often as they
    // fail in it; then arbitrary bytes, cut to valid UTF-8.
    let pieces: Vec<&str> =
        r#"a a=1 b<2.5 x.y and or not && || ! ( ) = != <= > prefix !contains 1 -2.5 "s" 't \ " é"#
            .split(' ')
            .collect();
    let mut rng = 7;
    let mut parsed = 0;
    for _ in 0..20_000 {
        let input: Vec<&str> = (0..below(&mut rng, 12))
            .map(|_| pick(&mut rng, &pieces))
            .collect();
        for sep in ["", " "] {
            parsed += usize::from(Expr::parse(&input.join(sep)).is_ok());
        }
        let bytes: Vec<u8> = (0..below(&mut rng, 60))
            .map(|_| below(&mut rng, 256) as u8)
            .collect();
        let _ = Expr::parse(&String::from_utf8_lossy(&bytes));
    }
    // Some inputs get through the whole grammar, not only the lexer.
    assert!(parsed > 100, "{parsed} of 40 000 inputs parsed");
}
