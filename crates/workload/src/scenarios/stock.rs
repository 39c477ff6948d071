//! Stock-ticker scenario.

use boolmatch_expr::Expr;
use boolmatch_types::Event;

use crate::rng::StdRng;

const SYMBOLS: [&str; 12] = [
    "IBM", "AAPL", "MSFT", "GOOG", "AMZN", "TSLA", "NVDA", "ORCL", "SAP", "NZX", "ASX", "BHP",
];

/// Generates stock-market subscriptions and ticks.
///
/// Subscriptions combine a symbol with *alternative* price conditions
/// ("breaks out above hi or dips below lo") plus an optional volume
/// guard — naturally non-canonical Boolean structure.
///
/// # Examples
///
/// ```
/// use boolmatch_workload::scenarios::StockScenario;
///
/// let mut s = StockScenario::new(7);
/// let sub = s.subscription();
/// assert!(sub.to_string().contains("symbol"));
/// let tick = s.tick();
/// assert!(tick.contains("price"));
/// ```
#[derive(Debug, Clone)]
pub struct StockScenario {
    rng: StdRng,
}

impl StockScenario {
    /// Creates a deterministic scenario.
    pub fn new(seed: u64) -> Self {
        StockScenario {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn symbol(&mut self) -> &'static str {
        SYMBOLS[self.rng.random_range(0..SYMBOLS.len())]
    }

    /// One subscription, e.g.
    /// `symbol = "IBM" and (price > 120.0 or price <= 80.0) and volume >= 1000`.
    pub fn subscription(&mut self) -> Expr {
        let symbol = self.symbol();
        let mid = self.rng.random_range(20.0..200.0_f64);
        let hi = mid * self.rng.random_range(1.05..1.5);
        let lo = mid * self.rng.random_range(0.5..0.95);
        let volume = self.rng.random_range(100..10_000_i64);
        let text = if self.rng.random_bool(0.5) {
            format!(
                "symbol = \"{symbol}\" and (price > {hi:.2} or price <= {lo:.2}) and volume >= {volume}"
            )
        } else {
            format!(
                "symbol = \"{symbol}\" and (price > {hi:.2} or (price <= {lo:.2} and volume >= {volume}))"
            )
        };
        Expr::parse(&text).expect("generated subscription parses")
    }

    /// A batch of subscriptions.
    pub fn subscriptions(&mut self, n: usize) -> Vec<Expr> {
        (0..n).map(|_| self.subscription()).collect()
    }

    /// One market tick event.
    pub fn tick(&mut self) -> Event {
        let symbol = self.symbol();
        Event::builder()
            .attr("symbol", symbol)
            .attr(
                "price",
                (self.rng.random_range(10.0..250.0_f64) * 100.0).round() / 100.0,
            )
            .attr("volume", self.rng.random_range(1..20_000_i64))
            .attr(
                "exchange",
                if self.rng.random_bool(0.5) {
                    "NYSE"
                } else {
                    "NZX"
                },
            )
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscriptions_parse_and_have_alternatives() {
        let mut s = StockScenario::new(1);
        for _ in 0..20 {
            let e = s.subscription();
            assert!(e.predicate_count() >= 3);
            assert!(
                !e.is_conjunctive(),
                "scenario is deliberately non-canonical"
            );
        }
    }

    #[test]
    fn ticks_carry_the_expected_attributes() {
        let mut s = StockScenario::new(2);
        let t = s.tick();
        for attr in ["symbol", "price", "volume", "exchange"] {
            assert!(t.contains(attr), "{attr} missing");
        }
    }

    #[test]
    fn some_ticks_match_some_subscriptions() {
        let mut s = StockScenario::new(3);
        let subs = s.subscriptions(50);
        let mut matches = 0usize;
        for _ in 0..500 {
            let t = s.tick();
            matches += subs.iter().filter(|e| e.eval_event(&t)).count();
        }
        assert!(matches > 0, "workload must produce hits");
    }
}
