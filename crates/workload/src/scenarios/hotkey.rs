//! Hot-key scenario: a minority of subscriptions absorb most matches.
//!
//! Production interest distributions are heavy-tailed: a few "hot"
//! subscriptions (the breaking-news alert, the index-wide ticker watch)
//! match almost every event, while the long tail of narrow interests
//! almost never fires. Shard placement that balances **subscription
//! counts** is blind to this — two count-equal shards can carry
//! arbitrarily different match loads — which is exactly the gap the
//! broker's match-frequency rebalancing policy exists to close.
//!
//! The generator makes the gap *provable* rather than probabilistic:
//! with a `stride` equal to the consumer's shard count, every
//! `stride`-th subscription is hot, so a churn-free least-loaded
//! placement (which degenerates to round-robin) parks **all** hot
//! subscriptions on shard 0. Counts stay perfectly balanced; match
//! load is maximally skewed. A count-balancing rebalancer then does
//! nothing, while the frequency-weighted one measurably spreads the
//! hot set (see
//! `tests/hot_path.rs::match_frequency_rebalancer_fixes_hot_key_skew_counts_cannot_see`).

use boolmatch_expr::Expr;
use boolmatch_types::Event;

use crate::rng::StdRng;

/// Generates the hot-key workload: hot subscriptions that match every
/// hot event, cold subscriptions keyed to (almost never published)
/// individual keys, and an event stream dominated by hot events.
///
/// # Examples
///
/// ```
/// use boolmatch_workload::scenarios::HotKeyScenario;
///
/// let mut s = HotKeyScenario::new(7, 4);
/// let subs = s.subscriptions(8);
/// assert_eq!(s.hot_subscriptions(), 2); // arrivals 0 and 4
/// let event = s.event();
/// assert!(event.contains("hot"));
/// ```
#[derive(Debug, Clone)]
pub struct HotKeyScenario {
    rng: StdRng,
    /// Every `stride`-th subscription (arrival order) is hot. Set this
    /// to the consumer's shard count to provably cluster the hot set
    /// on shard 0 under churn-free round-robin placement.
    stride: usize,
    /// Arrival index of the next subscription.
    next_sub: usize,
    /// Hot subscriptions generated so far.
    hot: usize,
    /// Event counter, for the rotating cold key.
    ticks: u64,
}

impl HotKeyScenario {
    /// Creates a deterministic scenario whose every `stride`-th
    /// subscription is hot (clamped to at least 2, so there is always
    /// a cold majority).
    pub fn new(seed: u64, stride: usize) -> Self {
        HotKeyScenario {
            rng: StdRng::seed_from_u64(seed),
            stride: stride.max(2),
            next_sub: 0,
            hot: 0,
            ticks: 0,
        }
    }

    /// The arrival-order stride between hot subscriptions.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Hot subscriptions generated so far.
    pub fn hot_subscriptions(&self) -> usize {
        self.hot
    }

    /// The next subscription in arrival order: hot (`hot = 1`, matched
    /// by every hot event) when the arrival index is a multiple of the
    /// stride, otherwise cold — keyed to a unique `key` value the event
    /// stream only rarely publishes.
    pub fn subscription(&mut self) -> Expr {
        let index = self.next_sub;
        self.next_sub += 1;
        let text = if index % self.stride == 0 {
            self.hot += 1;
            // Alternatives keep the shape non-canonical, like the other
            // scenarios; both arms fire on hot events.
            "hot = 1 or priority >= 9".to_owned()
        } else {
            format!("key = {} and hot <= 1", 1_000 + index)
        };
        Expr::parse(&text).expect("generated subscription parses")
    }

    /// A batch of subscriptions, in arrival order.
    pub fn subscriptions(&mut self, n: usize) -> Vec<Expr> {
        (0..n).map(|_| self.subscription()).collect()
    }

    /// The next event. Almost all events are hot (`hot = 1`), matching
    /// every hot subscription and no cold one; roughly one in sixteen
    /// instead carries a low key from the cold range, occasionally
    /// waking an individual cold subscription.
    pub fn event(&mut self) -> Event {
        self.ticks += 1;
        let cold_probe = self.rng.random_bool(1.0 / 16.0);
        let (hot, key) = if cold_probe {
            // Walk the cold key space slowly so individual cold
            // subscriptions do fire now and then (cold keys start at
            // 1_000 + 1).
            (0, 1_000 + 1 + (self.ticks % 64) as i64)
        } else {
            (1, 0)
        };
        Event::builder()
            .attr("hot", hot)
            .attr("key", key)
            .attr("priority", self.rng.random_range(0..8_i64))
            .build()
    }

    /// A batch of events.
    pub fn events(&mut self, n: usize) -> Vec<Event> {
        (0..n).map(|_| self.event()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_subscriptions_follow_the_stride() {
        let mut s = HotKeyScenario::new(1, 4);
        let subs = s.subscriptions(16);
        assert_eq!(s.hot_subscriptions(), 4);
        assert_eq!(s.stride(), 4);
        for (i, sub) in subs.iter().enumerate() {
            let text = sub.to_string();
            if i % 4 == 0 {
                assert!(text.contains("hot"), "arrival {i} should be hot: {text}");
                assert!(!text.contains("key"), "hot subs are keyless");
            } else {
                assert!(text.contains("key"), "arrival {i} should be cold: {text}");
            }
        }
    }

    #[test]
    fn hot_events_match_exactly_the_hot_set() {
        let mut s = HotKeyScenario::new(2, 4);
        let subs = s.subscriptions(32);
        let hot_event = Event::builder()
            .attr("hot", 1_i64)
            .attr("key", 0_i64)
            .attr("priority", 0_i64)
            .build();
        let matched = subs.iter().filter(|e| e.eval_event(&hot_event)).count();
        assert_eq!(matched, 8, "every hot sub and only the hot subs");
    }

    #[test]
    fn the_hot_minority_absorbs_most_matches() {
        let mut s = HotKeyScenario::new(3, 8);
        let subs = s.subscriptions(64); // 8 hot, 56 cold
        let mut hot_matches = 0usize;
        let mut cold_matches = 0usize;
        for _ in 0..400 {
            let event = s.event();
            for (i, sub) in subs.iter().enumerate() {
                if sub.eval_event(&event) {
                    if i % 8 == 0 {
                        hot_matches += 1;
                    } else {
                        cold_matches += 1;
                    }
                }
            }
        }
        assert!(
            hot_matches > 10 * cold_matches.max(1),
            "hot minority must dominate: hot={hot_matches} cold={cold_matches}"
        );
        assert!(cold_matches > 0, "cold subs still fire occasionally");
    }

    #[test]
    fn is_deterministic() {
        let mut a = HotKeyScenario::new(42, 4);
        let mut b = HotKeyScenario::new(42, 4);
        for _ in 0..100 {
            assert_eq!(a.subscription().to_string(), b.subscription().to_string());
            let (ea, eb) = (a.event(), b.event());
            assert_eq!(ea.get("hot"), eb.get("hot"));
            assert_eq!(ea.get("key"), eb.get("key"));
        }
    }

    #[test]
    fn stride_clamps_to_two() {
        let mut s = HotKeyScenario::new(5, 0);
        assert_eq!(s.stride(), 2);
        s.subscriptions(4);
        assert_eq!(s.hot_subscriptions(), 2);
    }
}
