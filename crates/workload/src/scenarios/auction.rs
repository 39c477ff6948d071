//! Auction-monitoring scenario: mixed numeric/string subscriptions
//! with deliberately deep Boolean structure.

use boolmatch_expr::Expr;
use boolmatch_types::Event;

use crate::rng::StdRng;

const ITEMS: [&str; 8] = [
    "stamp", "painting", "guitar", "laptop", "bicycle", "camera", "watch", "kayak",
];

/// Generates auction-sniping subscriptions ("tell me when a watch goes
/// under 50 with few bidders, or any closing lot I can afford") and
/// bid events.
///
/// # Examples
///
/// ```
/// use boolmatch_workload::scenarios::AuctionScenario;
///
/// let mut s = AuctionScenario::new(11);
/// let sub = s.subscription();
/// assert!(sub.predicate_count() >= 3);
/// let bid = s.bid();
/// assert!(bid.contains("item"));
/// ```
#[derive(Debug, Clone)]
pub struct AuctionScenario {
    rng: StdRng,
}

impl AuctionScenario {
    /// Creates a deterministic scenario.
    pub fn new(seed: u64) -> Self {
        AuctionScenario {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// One subscription with nested alternatives.
    pub fn subscription(&mut self) -> Expr {
        let item = ITEMS[self.rng.random_range(0..ITEMS.len())];
        let budget = self.rng.random_range(20..500_i64);
        let bidders = self.rng.random_range(2..10_i64);
        let minutes = self.rng.random_range(1..30_i64);
        let text = format!(
            "(item = \"{item}\" and price <= {budget} and bidders < {bidders}) \
             or (closing_in <= {minutes} and price <= {half} and not (reserve_met = true))",
            half = budget / 2
        );
        Expr::parse(&text).expect("generated subscription parses")
    }

    /// A batch of subscriptions.
    pub fn subscriptions(&mut self, n: usize) -> Vec<Expr> {
        (0..n).map(|_| self.subscription()).collect()
    }

    /// One bid/auction-state event.
    pub fn bid(&mut self) -> Event {
        Event::builder()
            .attr("item", ITEMS[self.rng.random_range(0..ITEMS.len())])
            .attr("price", self.rng.random_range(5..600_i64))
            .attr("bidders", self.rng.random_range(0..15_i64))
            .attr("closing_in", self.rng.random_range(0..120_i64))
            .attr("reserve_met", self.rng.random_bool(0.4))
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscriptions_have_disjunctive_structure() {
        let mut s = AuctionScenario::new(1);
        for _ in 0..10 {
            let e = s.subscription();
            assert!(!e.is_conjunctive());
            assert!(e.contains_not(), "scenario exercises negation");
        }
    }

    #[test]
    fn bids_sometimes_match() {
        let mut s = AuctionScenario::new(2);
        let subs = s.subscriptions(30);
        let mut hits = 0;
        for _ in 0..300 {
            let b = s.bid();
            hits += subs.iter().filter(|e| e.eval_event(&b)).count();
        }
        assert!(hits > 0);
    }
}
