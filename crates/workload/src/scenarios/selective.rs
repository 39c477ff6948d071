//! Selective scenario: partitionable attribute populations, for
//! content-aware shard routing.
//!
//! Real interest populations are often *partitionable*: subscriptions
//! cluster around a discriminating equality attribute (the stock
//! symbol, the news category, the auction id), and any single event
//! carries exactly one value of that dimension. A broker that places
//! subscriptions by that attribute
//! (`PlacementPolicy::ClusterByAttribute`) makes each shard's
//! attribute synopsis selective — an event then has candidates on at
//! most the one shard its group lives on, and the publish paths prune
//! the rest (`MatchStats::shards_pruned`; `tests/oracle_matrix.rs`
//! replays this scenario through clustered, pruning brokers and
//! requires the prune counters to move).
//!
//! Every subscription is an `and` whose dominant equality predicate
//! names its group attribute (`g<k> = v and seq >= n`), so clustering
//! co-places each group and pruning bites. Events carry one group
//! attribute plus a sequence number.

use boolmatch_expr::Expr;
use boolmatch_types::Event;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Values each group attribute ranges over; small enough that events
/// regularly match within their group, large enough that not every
/// group event matches every group subscription.
const GROUP_VALUES: i64 = 4;

/// Generates the partitionable workload: `groups` disjoint attribute
/// populations (`g0`, `g1`, …), subscriptions pinned to one group each,
/// and an event stream where every event carries exactly one group
/// attribute.
///
/// # Examples
///
/// ```
/// use boolmatch_workload::scenarios::SelectiveScenario;
///
/// let mut s = SelectiveScenario::new(7, 8);
/// let sub = s.subscription();
/// assert!(sub.to_string().contains("g0"), "arrival 0 joins group 0");
/// let event = s.event();
/// assert!(event.contains("seq"));
/// ```
#[derive(Debug, Clone)]
pub struct SelectiveScenario {
    rng: StdRng,
    /// Number of disjoint attribute populations (`g0` … `g{n-1}`).
    groups: usize,
    /// Arrival index of the next subscription.
    next_sub: usize,
    /// Event counter, driving the sequence attribute.
    ticks: u64,
}

impl SelectiveScenario {
    /// Creates the deterministic scenario: subscriptions are
    /// conjunctions whose dominant equality predicate names their group
    /// attribute. `groups` is clamped to at least 2.
    pub fn new(seed: u64, groups: usize) -> Self {
        SelectiveScenario {
            rng: StdRng::seed_from_u64(seed),
            groups: groups.max(2),
            next_sub: 0,
            ticks: 0,
        }
    }

    /// Number of disjoint attribute populations.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// The next subscription in arrival order: round-robin across the
    /// groups (arrival `i` joins group `i % groups`), watching one of
    /// the group's values with a loose sequence guard. The group
    /// predicate is the required conjunct the synopsis summarises.
    pub fn subscription(&mut self) -> Expr {
        let index = self.next_sub;
        self.next_sub += 1;
        let group = index % self.groups;
        let value = self.rng.random_range(1..=GROUP_VALUES);
        let text = format!("g{group} = {value} and seq >= {}", index / self.groups);
        Expr::parse(&text).expect("generated subscription parses")
    }

    /// A batch of subscriptions, in arrival order.
    pub fn subscriptions(&mut self, n: usize) -> Vec<Expr> {
        (0..n).map(|_| self.subscription()).collect()
    }

    /// The next event: exactly one group attribute (uniformly chosen)
    /// with a uniform value, plus the monotonically growing `seq` —
    /// the single-group carrier that makes clustered placement
    /// prunable.
    pub fn event(&mut self) -> Event {
        let group = self.rng.random_range(0..self.groups);
        let value = self.rng.random_range(1..=GROUP_VALUES);
        let seq = self.ticks as i64;
        self.ticks += 1;
        Event::builder()
            .attr(&format!("g{group}"), value)
            .attr("seq", seq)
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
    fn subscriptions_round_robin_the_groups() {
        let mut s = SelectiveScenario::new(1, 4);
        let subs = s.subscriptions(8);
        for (i, sub) in subs.iter().enumerate() {
            let text = sub.to_string();
            assert!(
                text.contains(&format!("g{}", i % 4)),
                "arrival {i} joins group {}: {text}",
                i % 4
            );
            assert!(text.contains("and"), "subscriptions are and-rooted");
        }
    }

    #[test]
    fn events_carry_exactly_one_group_attribute() {
        let mut s = SelectiveScenario::new(3, 8);
        for _ in 0..50 {
            let event = s.event();
            let groups = (0..8).filter(|k| event.contains(&format!("g{k}"))).count();
            assert_eq!(groups, 1, "one group per event");
            assert!(event.contains("seq"));
        }
    }

    #[test]
    fn events_match_within_their_group() {
        let mut s = SelectiveScenario::new(5, 4);
        let subs = s.subscriptions(64);
        let mut matched = 0usize;
        for _ in 0..200 {
            let event = s.event();
            matched += subs.iter().filter(|e| e.eval_event(&event)).count();
        }
        assert!(matched > 0, "the stream produces matches");
    }

    #[test]
    fn is_deterministic() {
        let mut a = SelectiveScenario::new(42, 8);
        let mut b = SelectiveScenario::new(42, 8);
        for _ in 0..100 {
            assert_eq!(a.subscription().to_string(), b.subscription().to_string());
            let (ea, eb) = (a.event(), b.event());
            assert_eq!(ea.to_string(), eb.to_string());
        }
    }

    #[test]
    fn groups_clamp_to_two() {
        let s = SelectiveScenario::new(5, 0);
        assert_eq!(s.groups(), 2);
    }
}
