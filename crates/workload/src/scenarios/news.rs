//! News-alerting scenario: string-heavy subscriptions.

use boolmatch_expr::Expr;
use boolmatch_types::Event;

use crate::rng::StdRng;

const CATEGORIES: [&str; 6] = [
    "politics", "business", "science", "sport", "weather", "arts",
];
const KEYWORDS: [&str; 10] = [
    "election", "merger", "quake", "kiwi", "champion", "storm", "budget", "launch", "strike",
    "record",
];
const REGIONS: [&str; 5] = ["nz", "au", "eu", "us", "asia"];

/// Generates news-alert subscriptions (category, keyword containment,
/// region prefixes, negated exclusions) and headline events.
///
/// # Examples
///
/// ```
/// use boolmatch_workload::scenarios::NewsScenario;
///
/// let mut s = NewsScenario::new(5);
/// let sub = s.subscription();
/// let headline = s.headline();
/// assert!(headline.contains("headline"));
/// let _ = sub.eval_event(&headline);
/// ```
#[derive(Debug, Clone)]
pub struct NewsScenario {
    rng: StdRng,
}

impl NewsScenario {
    /// Creates a deterministic scenario.
    pub fn new(seed: u64) -> Self {
        NewsScenario {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn pick<const N: usize>(&mut self, options: [&'static str; N]) -> &'static str {
        options[self.rng.random_range(0..N)]
    }

    /// One subscription, e.g.
    /// `category = "science" and (headline contains "quake" or headline contains "storm") and not (region prefix "us")`.
    pub fn subscription(&mut self) -> Expr {
        let category = self.pick(CATEGORIES);
        let kw1 = self.pick(KEYWORDS);
        let kw2 = self.pick(KEYWORDS);
        let region = self.pick(REGIONS);
        let text = match self.rng.random_range(0..3) {
            0 => format!(
                "category = \"{category}\" and (headline contains \"{kw1}\" or headline contains \"{kw2}\")"
            ),
            1 => format!(
                "category = \"{category}\" and headline contains \"{kw1}\" and not (region prefix \"{region}\")"
            ),
            _ => format!(
                "(category = \"{category}\" or urgency >= 8) and headline contains \"{kw1}\""
            ),
        };
        Expr::parse(&text).expect("generated subscription parses")
    }

    /// A batch of subscriptions.
    pub fn subscriptions(&mut self, n: usize) -> Vec<Expr> {
        (0..n).map(|_| self.subscription()).collect()
    }

    /// One headline event.
    pub fn headline(&mut self) -> Event {
        let kw1 = self.pick(KEYWORDS);
        let kw2 = self.pick(KEYWORDS);
        Event::builder()
            .attr("category", self.pick(CATEGORIES))
            .attr("headline", format!("breaking: {kw1} follows {kw2}"))
            .attr(
                "region",
                format!("{}-{}", self.pick(REGIONS), self.rng.random_range(1..9)),
            )
            .attr("urgency", self.rng.random_range(1..10_i64))
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscriptions_parse_with_string_operators() {
        let mut s = NewsScenario::new(1);
        let mut saw_contains = false;
        for _ in 0..30 {
            let e = s.subscription();
            if e.to_string().contains("contains") {
                saw_contains = true;
            }
        }
        assert!(saw_contains);
    }

    #[test]
    fn headlines_match_subscriptions_sometimes() {
        let mut s = NewsScenario::new(2);
        let subs = s.subscriptions(40);
        let mut hits = 0;
        for _ in 0..400 {
            let h = s.headline();
            hits += subs.iter().filter(|e| e.eval_event(&h)).count();
        }
        assert!(hits > 0);
    }
}
