//! Subscription-churn scenario: sustained subscribe/unsubscribe
//! interleaved with publishing.
//!
//! Production pub/sub brokers are never write-quiet: users join, leave
//! and retune their interests while the event stream keeps flowing.
//! This scenario generates that mixed operation stream
//! deterministically, so stress tests and examples can replay identical
//! churn against differently-configured brokers. The
//! sharded broker exists for exactly this workload — every
//! subscribe/unsubscribe write-locks one shard, so churn contends with
//! `1/S` of matching instead of all of it.

use boolmatch_expr::Expr;
use boolmatch_types::Event;

use super::StockScenario;
use crate::rng::StdRng;

/// One operation of a churn stream.
///
/// `Unsubscribe` carries an *index into the consumer's list of live
/// subscriptions* (oldest first) rather than a broker id: the generator
/// does not know which ids the consumer's broker or engine handed out,
/// and an index keeps the stream replayable against any of them.
#[derive(Debug, Clone)]
pub enum ChurnOp {
    /// Register this subscription (push onto the live list).
    Subscribe(Expr),
    /// Remove the subscription at this index of the consumer's live
    /// list. Always below the current live count; consumers replaying
    /// one stream against several brokers must share a removal
    /// discipline (e.g. `Vec::remove`) for their live lists to agree.
    Unsubscribe(usize),
    /// Publish this event.
    Publish(Event),
}

/// Deterministic generator of interleaved subscribe/unsubscribe/publish
/// operations over the stock workload.
///
/// The stream holds the live-subscription count near `target_live`:
/// below target, registration is favoured; at or above it,
/// subscribe/unsubscribe are balanced so the count hovers while ids
/// keep churning.
///
/// # Examples
///
/// ```
/// use boolmatch_workload::scenarios::{ChurnOp, ChurnScenario};
///
/// let mut churn = ChurnScenario::new(7, 100);
/// let mut live: Vec<u32> = Vec::new(); // stand-in for subscription handles
/// for op in churn.ops(1_000) {
///     match op {
///         ChurnOp::Subscribe(_) => live.push(0),
///         ChurnOp::Unsubscribe(i) => {
///             live.remove(i);
///         }
///         ChurnOp::Publish(event) => assert!(event.contains("price")),
///     }
/// }
/// assert_eq!(live.len(), churn.live());
/// ```
#[derive(Debug, Clone)]
pub struct ChurnScenario {
    rng: StdRng,
    stock: StockScenario,
    live: usize,
    target_live: usize,
}

impl ChurnScenario {
    /// Creates a deterministic scenario that keeps roughly
    /// `target_live` subscriptions alive. Half of the operations are
    /// publishes.
    pub fn new(seed: u64, target_live: usize) -> Self {
        ChurnScenario {
            rng: StdRng::seed_from_u64(seed),
            stock: StockScenario::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1)),
            live: 0,
            target_live: target_live.max(1),
        }
    }

    /// Live subscriptions after the operations generated so far (the
    /// length the consumer's live list must have).
    pub fn live(&self) -> usize {
        self.live
    }

    /// The next operation.
    pub fn next_op(&mut self) -> ChurnOp {
        if self.live > 0 && self.rng.random_bool(0.5) {
            return ChurnOp::Publish(self.stock.tick());
        }
        // Registration pressure proportional to how far below target we
        // are: certain at 0 live, 50/50 at target, floor of 1/4 beyond.
        let deficit = 1.0 - self.live as f64 / (2.0 * self.target_live as f64);
        if self.live == 0 || self.rng.random_bool(deficit.clamp(0.25, 1.0)) {
            self.live += 1;
            ChurnOp::Subscribe(self.stock.subscription())
        } else {
            self.live -= 1;
            ChurnOp::Unsubscribe(self.rng.random_range(0..self.live + 1))
        }
    }

    /// A batch of operations.
    pub fn ops(&mut self, n: usize) -> Vec<ChurnOp> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_deterministic() {
        let a = ChurnScenario::new(42, 50).ops(500);
        let b = ChurnScenario::new(42, 50).ops(500);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (ChurnOp::Subscribe(e1), ChurnOp::Subscribe(e2)) => {
                    assert_eq!(e1.to_string(), e2.to_string());
                }
                (ChurnOp::Unsubscribe(i1), ChurnOp::Unsubscribe(i2)) => assert_eq!(i1, i2),
                (ChurnOp::Publish(e1), ChurnOp::Publish(e2)) => {
                    assert_eq!(e1.get("price"), e2.get("price"));
                }
                (a, b) => panic!("streams diverge: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn unsubscribe_indexes_are_always_valid() {
        let mut churn = ChurnScenario::new(7, 30);
        let mut live = 0usize;
        for op in churn.ops(3_000) {
            match op {
                ChurnOp::Subscribe(_) => live += 1,
                ChurnOp::Unsubscribe(i) => {
                    assert!(i < live, "index {i} out of {live} live subscriptions");
                    live -= 1;
                }
                ChurnOp::Publish(_) => {}
            }
        }
        assert_eq!(live, churn.live());
    }

    #[test]
    fn live_count_hovers_near_target() {
        let mut churn = ChurnScenario::new(3, 40);
        let _ = churn.ops(4_000);
        assert!(
            churn.live() > 10 && churn.live() < 120,
            "live count {} drifted far from target 40",
            churn.live()
        );
    }
}
