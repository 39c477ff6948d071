//! Subscription generation.

use boolmatch_expr::{CompareOp, Expr, Predicate};

use crate::rng::StdRng;

/// Deterministic generator of subscriptions in the paper's §4 shape:
/// an AND of `|p|/2` binary ORs, each OR over one fresh attribute
/// (`a > hi ∨ a <= lo`), so no predicate is shared between
/// subscriptions. DNF-transforming one yields exactly `2^(|p|/2)`
/// conjunctions of `|p|/2` predicates — the Table 1 "8 to 32" row.
///
/// Two generators with the same seed and settings produce identical
/// subscription sequences — the sweep harness relies on this to
/// register *the same corpus* in every engine without materializing it.
///
/// # Examples
///
/// ```
/// use boolmatch_workload::SubscriptionGenerator;
///
/// let mut g = SubscriptionGenerator::new(42, 6);
/// let s = g.generate();
/// assert_eq!(s.predicate_count(), 6);
/// // Deterministic: same seed, same subscription.
/// let mut g2 = SubscriptionGenerator::new(42, 6);
/// assert_eq!(g2.generate(), s);
/// ```
#[derive(Debug, Clone)]
pub struct SubscriptionGenerator {
    rng: StdRng,
    predicates_per_sub: usize,
    next_attr: u64,
}

/// Integer constant domain (paper: "domains are supposed to have
/// relatively large sizes").
const DOMAIN: i64 = 1_000_000;

impl SubscriptionGenerator {
    /// Creates a generator for `predicates_per_sub`-predicate
    /// subscriptions.
    ///
    /// # Panics
    ///
    /// Panics if `predicates_per_sub` is 0 or odd.
    pub fn new(seed: u64, predicates_per_sub: usize) -> Self {
        assert!(predicates_per_sub > 0, "need at least one predicate");
        assert!(
            predicates_per_sub % 2 == 0,
            "and-of-or-pairs needs an even predicate count"
        );
        SubscriptionGenerator {
            rng: StdRng::seed_from_u64(seed),
            predicates_per_sub,
            next_attr: 0,
        }
    }

    /// One OR-group over a fresh attribute: `attr > hi ∨ attr <= lo`
    /// with `lo < hi`, so at most one branch holds for any value.
    fn or_pair(&mut self) -> Expr {
        let attr = format!("a{}", self.next_attr);
        self.next_attr += 1;
        let a = self.rng.random_range(0..DOMAIN);
        let b = self.rng.random_range(0..DOMAIN);
        let (lo, hi) = if a <= b { (a, b.max(a + 1)) } else { (b, a) };
        Expr::or(vec![
            Expr::pred(Predicate::new(&attr, CompareOp::Gt, hi)),
            Expr::pred(Predicate::new(&attr, CompareOp::Le, lo)),
        ])
    }

    /// Generates the next subscription.
    pub fn generate(&mut self) -> Expr {
        let groups = self.predicates_per_sub / 2;
        Expr::and((0..groups).map(|_| self.or_pair()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolmatch_expr::transform;

    #[test]
    fn paper_shape_counts_and_blowup() {
        for preds in [6usize, 8, 10] {
            let mut g = SubscriptionGenerator::new(1, preds);
            let e = g.generate();
            assert_eq!(e.predicate_count(), preds);
            assert_eq!(
                transform::estimate_dnf_size(&e),
                1u128 << (preds / 2),
                "2^(|p|/2) conjunctions"
            );
            let dnf = transform::to_dnf(&e, 1 << 10).unwrap();
            assert!(dnf.conjuncts().iter().all(|c| c.len() == preds / 2));
        }
    }

    #[test]
    fn unique_predicates_without_pool() {
        let mut g = SubscriptionGenerator::new(7, 6);
        let mut all: Vec<String> = Vec::new();
        for _ in 0..50 {
            for p in g.generate().predicates() {
                all.push(p.to_string());
            }
        }
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(
            all.len(),
            before,
            "no predicate shared between subscriptions"
        );
    }

    #[test]
    fn determinism_across_instances() {
        let mut a = SubscriptionGenerator::new(99, 8);
        let mut b = SubscriptionGenerator::new(99, 8);
        for _ in 0..20 {
            assert_eq!(a.generate(), b.generate());
        }
    }

    #[test]
    fn or_pair_branches_are_disjoint() {
        let mut g = SubscriptionGenerator::new(3, 2);
        for _ in 0..50 {
            let e = g.generate();
            let preds = e.predicates();
            assert_eq!(preds.len(), 2);
            let hi = preds[0].value().as_int().unwrap();
            let lo = preds[1].value().as_int().unwrap();
            assert!(lo < hi, "a > {hi} and a <= {lo} must be disjoint");
        }
    }

    #[test]
    #[should_panic(expected = "even predicate count")]
    fn odd_count_for_pairs_panics() {
        let _ = SubscriptionGenerator::new(1, 5);
    }
}
