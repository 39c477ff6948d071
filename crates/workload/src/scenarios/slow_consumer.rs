//! Slow-consumer scenario + fault-injection plans for the delivery
//! tier.
//!
//! The broker's asynchronous delivery tier makes a set of promises —
//! publishes never block on a stalled subscriber, overflow follows the
//! subscriber's policy, quarantine demotes sustained laggards — that
//! only mean anything under *misbehaving* consumers. This module
//! scripts the misbehavior: a [`SlowConsumerScenario`] whose every
//! subscription matches every event (maximum fan-out pressure, so each
//! publish exercises each subscriber's queue), and a [`FaultPlan`] that
//! schedules per-subscriber [`FaultAction`]s — stall, resume, drain
//! bursts, disconnect, panic — on a deterministic tick timeline. A
//! [`FaultDriver`] folds the plan into the per-tick
//! [`ConsumerDirective`]s a test harness executes, so every failure
//! mode replays bit-identically from a seed.

use boolmatch_expr::Expr;
use boolmatch_types::Event;

use crate::rng::StdRng;

/// One scripted consumer misbehavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Stop draining entirely (zero drain per tick) until a
    /// [`FaultAction::Resume`] or [`FaultAction::Burst`].
    Stall,
    /// Return to the plan's steady per-tick drain rate.
    Resume,
    /// Drain `drain` queued notifications immediately (a consumer
    /// catching up), then continue at the current rate.
    Burst {
        /// Notifications drained by the burst.
        drain: usize,
    },
    /// Drop the subscriber's receiving handle without unsubscribing —
    /// the disconnected-sender case delivery must count and prune.
    Disconnect,
    /// Panic inside the consumer callback — the per-subscriber panic
    /// isolation case.
    Panic,
}

/// A [`FaultAction`] pinned to a subscriber and a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Tick index at which the action fires.
    pub tick: u64,
    /// Target subscriber (arrival order in the scenario).
    pub subscriber: usize,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic schedule of consumer faults.
///
/// # Examples
///
/// ```
/// use boolmatch_workload::scenarios::{FaultAction, FaultEvent, FaultPlan};
///
/// let plan = FaultPlan::scripted(vec![
///     FaultEvent { tick: 3, subscriber: 0, action: FaultAction::Stall },
///     FaultEvent { tick: 9, subscriber: 0, action: FaultAction::Resume },
/// ]);
/// assert_eq!(plan.actions_at(3).count(), 1);
/// assert_eq!(plan.actions_at(4).count(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Sorted by tick (stable: same-tick events keep script order).
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A hand-written schedule; events are stably sorted by tick, so
    /// same-tick actions apply in script order.
    pub fn scripted(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.tick);
        FaultPlan { events }
    }

    /// A seeded random schedule over `subscribers` consumers and
    /// `ticks` ticks: each subscriber gets a stall window (with its
    /// resume), and occasional bursts land in between. The same seed
    /// always yields the same plan.
    pub fn random(seed: u64, subscribers: usize, ticks: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for subscriber in 0..subscribers {
            let ticks = ticks.max(4);
            let start = rng.random_range(0..ticks / 2);
            let end = rng.random_range(start + 1..ticks);
            events.push(FaultEvent {
                tick: start,
                subscriber,
                action: FaultAction::Stall,
            });
            events.push(FaultEvent {
                tick: end,
                subscriber,
                action: FaultAction::Resume,
            });
            if rng.random_bool(0.5) {
                events.push(FaultEvent {
                    tick: end,
                    subscriber,
                    action: FaultAction::Burst {
                        drain: rng.random_range(1..64),
                    },
                });
            }
        }
        Self::scripted(events)
    }

    /// The scheduled events, in tick order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The actions firing at exactly `tick`, in script order.
    pub fn actions_at(&self, tick: u64) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.tick == tick)
    }
}

/// What one subscriber should do this tick, after folding the plan
/// into its running state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsumerDirective {
    /// Drain up to this many queued notifications (0 while stalled).
    Drain(usize),
    /// Drop the receiving handle without unsubscribing.
    Disconnect,
    /// Panic inside the consumer callback.
    Panic,
}

/// Per-subscriber running state while executing a plan.
#[derive(Debug, Clone, Copy)]
struct ConsumerState {
    stalled: bool,
    /// One-shot burst drain granted this tick.
    burst: usize,
    disconnect: bool,
    panic: bool,
    done: bool,
}

/// Folds a [`FaultPlan`] into per-tick [`ConsumerDirective`]s.
///
/// # Examples
///
/// ```
/// use boolmatch_workload::scenarios::{
///     ConsumerDirective, FaultAction, FaultEvent, FaultDriver, FaultPlan,
/// };
///
/// let plan = FaultPlan::scripted(vec![FaultEvent {
///     tick: 1,
///     subscriber: 0,
///     action: FaultAction::Stall,
/// }]);
/// let mut driver = FaultDriver::new(plan, 1, 4);
/// assert_eq!(driver.tick()[0], ConsumerDirective::Drain(4));
/// assert_eq!(driver.tick()[0], ConsumerDirective::Drain(0)); // stalled
/// ```
#[derive(Debug, Clone)]
pub struct FaultDriver {
    plan: FaultPlan,
    states: Vec<ConsumerState>,
    /// Per-tick drain allowance of a healthy consumer.
    steady_drain: usize,
    tick: u64,
}

impl FaultDriver {
    /// A driver over `subscribers` consumers, each draining
    /// `steady_drain` notifications per healthy tick.
    pub fn new(plan: FaultPlan, subscribers: usize, steady_drain: usize) -> Self {
        FaultDriver {
            plan,
            states: vec![
                ConsumerState {
                    stalled: false,
                    burst: 0,
                    disconnect: false,
                    panic: false,
                    done: false,
                };
                subscribers
            ],
            steady_drain,
            tick: 0,
        }
    }

    /// The current tick index (ticks already taken).
    pub fn ticks_taken(&self) -> u64 {
        self.tick
    }

    /// Advances one tick: applies this tick's scheduled actions and
    /// returns each subscriber's directive. Disconnect and panic are
    /// one-shot and terminal — after one fires, the subscriber drains
    /// nothing for the rest of the run.
    pub fn tick(&mut self) -> Vec<ConsumerDirective> {
        let tick = self.tick;
        self.tick += 1;
        for event in self.plan.actions_at(tick) {
            let Some(state) = self.states.get_mut(event.subscriber) else {
                continue;
            };
            match event.action {
                FaultAction::Stall => state.stalled = true,
                FaultAction::Resume => state.stalled = false,
                FaultAction::Burst { drain } => state.burst = state.burst.saturating_add(drain),
                FaultAction::Disconnect => state.disconnect = true,
                FaultAction::Panic => state.panic = true,
            }
        }
        self.states
            .iter_mut()
            .map(|state| {
                if state.done {
                    return ConsumerDirective::Drain(0);
                }
                if state.panic {
                    state.done = true;
                    return ConsumerDirective::Panic;
                }
                if state.disconnect {
                    state.done = true;
                    return ConsumerDirective::Disconnect;
                }
                let burst = std::mem::take(&mut state.burst);
                let steady = if state.stalled { 0 } else { self.steady_drain };
                ConsumerDirective::Drain(steady + burst)
            })
            .collect()
    }
}

/// Generates the slow-consumer workload: every subscription matches
/// every event, so each publish lands one notification on each
/// subscriber's queue and queue depth is exactly publishes minus
/// drains — lag arithmetic a test can assert on.
///
/// # Examples
///
/// ```
/// use boolmatch_workload::scenarios::SlowConsumerScenario;
///
/// let mut s = SlowConsumerScenario::new(7);
/// let subs = s.subscriptions(4);
/// let event = s.event();
/// assert!(subs.iter().all(|sub| sub.eval_event(&event)));
/// ```
#[derive(Debug, Clone)]
pub struct SlowConsumerScenario {
    rng: StdRng,
    next_sub: usize,
    ticks: u64,
}

impl SlowConsumerScenario {
    /// Creates a deterministic scenario.
    pub fn new(seed: u64) -> Self {
        SlowConsumerScenario {
            rng: StdRng::seed_from_u64(seed),
            next_sub: 0,
            ticks: 0,
        }
    }

    /// The next subscription: always matches (`feed >= 0` is true of
    /// every generated event), with a per-subscriber alternative arm
    /// keeping the shape non-canonical like the other scenarios.
    pub fn subscription(&mut self) -> Expr {
        let index = self.next_sub;
        self.next_sub += 1;
        let text = format!("feed >= 0 or lane = {index}");
        Expr::parse(&text).expect("generated subscription parses")
    }

    /// A batch of subscriptions, in arrival order.
    pub fn subscriptions(&mut self, n: usize) -> Vec<Expr> {
        (0..n).map(|_| self.subscription()).collect()
    }

    /// The next event: a monotone sequence number (`seq`) every
    /// subscriber receives, so per-subscriber FIFO order is checkable,
    /// plus a noise attribute off the rng stream.
    pub fn event(&mut self) -> Event {
        let seq = self.ticks;
        self.ticks += 1;
        Event::builder()
            .attr("feed", 1_i64)
            .attr("seq", seq as i64)
            .attr("noise", self.rng.random_range(0..1_000_i64))
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
    fn every_subscription_matches_every_event() {
        let mut s = SlowConsumerScenario::new(1);
        let subs = s.subscriptions(8);
        for _ in 0..20 {
            let event = s.event();
            assert!(subs.iter().all(|sub| sub.eval_event(&event)));
        }
    }

    #[test]
    fn events_carry_a_monotone_sequence() {
        let mut s = SlowConsumerScenario::new(2);
        let events = s.events(10);
        for (i, event) in events.iter().enumerate() {
            assert_eq!(
                event.get("seq").and_then(boolmatch_types::Value::as_int),
                Some(i as i64)
            );
        }
    }

    #[test]
    fn is_deterministic() {
        let mut a = SlowConsumerScenario::new(42);
        let mut b = SlowConsumerScenario::new(42);
        for _ in 0..50 {
            assert_eq!(a.subscription().to_string(), b.subscription().to_string());
            let (ea, eb) = (a.event(), b.event());
            assert_eq!(ea.get("seq"), eb.get("seq"));
            assert_eq!(ea.get("noise"), eb.get("noise"));
        }
    }

    #[test]
    fn scripted_plans_sort_and_filter_by_tick() {
        let plan = FaultPlan::scripted(vec![
            FaultEvent {
                tick: 5,
                subscriber: 1,
                action: FaultAction::Resume,
            },
            FaultEvent {
                tick: 2,
                subscriber: 1,
                action: FaultAction::Stall,
            },
        ]);
        assert_eq!(plan.events()[0].tick, 2);
        assert_eq!(plan.actions_at(5).count(), 1);
        assert_eq!(plan.actions_at(3).count(), 0);
    }

    #[test]
    fn random_plans_are_deterministic_and_well_formed() {
        let a = FaultPlan::random(9, 6, 40);
        let b = FaultPlan::random(9, 6, 40);
        assert_eq!(a.events(), b.events());
        for subscriber in 0..6 {
            let stalls = a
                .events()
                .iter()
                .filter(|e| e.subscriber == subscriber && e.action == FaultAction::Stall)
                .count();
            let resumes = a
                .events()
                .iter()
                .filter(|e| e.subscriber == subscriber && e.action == FaultAction::Resume)
                .count();
            assert_eq!((stalls, resumes), (1, 1), "one stall window each");
        }
    }

    #[test]
    fn driver_folds_stall_burst_and_terminal_actions() {
        let plan = FaultPlan::scripted(vec![
            FaultEvent {
                tick: 1,
                subscriber: 0,
                action: FaultAction::Stall,
            },
            FaultEvent {
                tick: 2,
                subscriber: 0,
                action: FaultAction::Resume,
            },
            FaultEvent {
                tick: 2,
                subscriber: 0,
                action: FaultAction::Burst { drain: 10 },
            },
            FaultEvent {
                tick: 1,
                subscriber: 1,
                action: FaultAction::Panic,
            },
            FaultEvent {
                tick: 1,
                subscriber: 2,
                action: FaultAction::Disconnect,
            },
        ]);
        let mut driver = FaultDriver::new(plan, 3, 4);
        assert_eq!(
            driver.tick(),
            vec![
                ConsumerDirective::Drain(4),
                ConsumerDirective::Drain(4),
                ConsumerDirective::Drain(4),
            ]
        );
        assert_eq!(
            driver.tick(),
            vec![
                ConsumerDirective::Drain(0), // stalled
                ConsumerDirective::Panic,
                ConsumerDirective::Disconnect,
            ]
        );
        assert_eq!(
            driver.tick(),
            vec![
                ConsumerDirective::Drain(14), // resumed + burst
                ConsumerDirective::Drain(0),  // terminal
                ConsumerDirective::Drain(0),  // terminal
            ]
        );
        assert_eq!(driver.ticks_taken(), 3);
    }
}
