//! Generated-tree scenario: seeded random Boolean trees and events
//! that leave attributes out — the corpus the oracle checks replay.
//!
//! The domain scenarios model applications; this one aims at the
//! engines' corners. Trees nest `and`, `or` and `not` three levels
//! deep over a small leaf pool, so leaves repeat inside a tree and
//! across subscriptions. The pool covers all ten operators and all four
//! value kinds, plus an Int attribute compared with a Float constant
//! (never true: kinds differ). Events miss each attribute a quarter of
//! the time — exactly where three-valued negation (`not (a = 1)` is
//! false without `a`, as its normal form `a != 1` is) and classical
//! negation would part ways — and sometimes carry an Int where the
//! predicates hold Floats.
//!
//! The stream comes from a dependency-free splitmix64 generator, so it
//! is identical on every platform and independent of [`crate::rng`].

use boolmatch_expr::{CompareOp, Expr, Predicate};
use boolmatch_types::Event;

const RELATIONAL: [CompareOp; 6] = [
    CompareOp::Eq,
    CompareOp::Ne,
    CompareOp::Gt,
    CompareOp::Le,
    CompareOp::Ge,
    CompareOp::Lt,
];

const STRING: [CompareOp; 4] = [
    CompareOp::Prefix,
    CompareOp::NotPrefix,
    CompareOp::Contains,
    CompareOp::NotContains,
];

/// Seeded generator of random subscription trees and partial events.
///
/// Subscriptions, events and [`TreeScenario::pick`] draw from one
/// stream: a consumer that interleaves them in a fixed order replays
/// the same workload on every run.
///
/// # Examples
///
/// ```
/// use boolmatch_workload::scenarios::TreeScenario;
///
/// let mut a = TreeScenario::new(2005);
/// let mut b = TreeScenario::new(2005);
/// let (sub, event) = (a.subscription(), a.event());
/// assert_eq!(sub.to_string(), b.subscription().to_string());
/// assert_eq!(event, b.event());
/// assert!(a.pick(3) < 3);
/// ```
#[derive(Debug, Clone)]
pub struct TreeScenario {
    state: u64,
}

impl TreeScenario {
    /// Creates the deterministic stream for `seed`.
    pub fn new(seed: u64) -> Self {
        TreeScenario { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// An index below `n` (which must be positive) from the same
    /// stream — for the consumer's own choices, such as which live
    /// subscription to drop.
    pub fn pick(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// The next subscription: a tree of depth ≤ 3.
    pub fn subscription(&mut self) -> Expr {
        self.tree(3)
    }

    /// The next event. Each of `x0`…`x3`, `s` and `b` is missing a
    /// quarter of the time, `f` carries an Int (a quarter), a Float
    /// (half) or nothing, and `other` — an attribute no subscription
    /// mentions — comes and goes.
    pub fn event(&mut self) -> Event {
        let mut b = Event::builder();
        for a in 0..4 {
            if self.below(4) > 0 {
                b.set(&format!("x{a}"), self.below(3) as i64);
            }
        }
        match self.below(4) {
            0 => {}
            1 => {
                b.set("f", self.below(3) as i64);
            }
            _ => {
                b.set("f", self.below(4) as f64);
            }
        }
        if self.below(4) > 0 {
            b.set("s", ["ab", "abc", "b", "xab", ""][self.below(5) as usize]);
        }
        if self.below(4) > 0 {
            b.set("b", self.below(2) == 0);
        }
        if self.below(2) == 0 {
            b.set("other", 1_i64);
        }
        b.build()
    }

    /// A leaf over a small pool: four Int attributes under the six
    /// relational operators, a Float attribute, an Int attribute with a
    /// Float constant, a string attribute under all ten operators, and
    /// a Bool attribute.
    fn leaf(&mut self) -> Predicate {
        let relational = RELATIONAL[self.below(6) as usize];
        match self.below(10) {
            0..=4 => Predicate::new(
                &format!("x{}", self.below(4)),
                relational,
                self.below(3) as i64,
            ),
            5 => Predicate::new("f", relational, self.below(3) as f64 + 0.5),
            6 => Predicate::new("x0", relational, self.below(3) as f64),
            7 => Predicate::new("s", relational, ["ab", "b"][self.below(2) as usize]),
            8 => Predicate::new(
                "s",
                STRING[self.below(4) as usize],
                ["ab", "b"][self.below(2) as usize],
            ),
            _ => Predicate::new("b", relational, self.below(2) == 0),
        }
    }

    fn tree(&mut self, depth: usize) -> Expr {
        let pick = if depth == 0 { 0 } else { self.below(10) };
        match pick {
            0..=3 => Expr::pred(self.leaf()),
            4..=6 => Expr::And(
                (0..2 + self.below(3))
                    .map(|_| self.tree(depth - 1))
                    .collect(),
            ),
            7..=8 => Expr::Or(
                (0..2 + self.below(3))
                    .map(|_| self.tree(depth - 1))
                    .collect(),
            ),
            _ => Expr::Not(Box::new(self.tree(depth - 1))),
        }
    }
}
