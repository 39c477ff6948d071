//! The six workloads: what each registers, what it publishes, how the
//! broker under test is configured, and why it is in the suite.
//!
//! Everything a workload feeds the program is generated here from
//! `--seed`; the program only ever sees subscription texts and
//! `Arc<Event>`s.

use std::fmt::Write as _;
use std::sync::Arc;

use boolmatch_core::{EngineKind, PlacementPolicy};
use boolmatch_expr::Expr;
use boolmatch_types::Event;

use crate::util::{fnv1a_extend, Rng};

/// Events generated per workload; publishes cycle through them.
pub const POOL: usize = 4096;
/// Pool events replayed one at a time against the oracle.
pub const VERIFY: usize = 64;
/// Fresh subscription texts a churn workload cycles through.
const FRESH: usize = 8192;

/// The unsubscribed attribute every event carries: its index into the
/// side tables (due times, verify bitmaps). Verify copies of the first
/// [`VERIFY`] pool events carry `POOL + i`.
pub const SEQ: &str = "seq";

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// The paper's §4 shape: AND of `pairs` binary ORs
    /// `a > hi or a <= lo`, each over its own attribute.
    Paper { pairs: usize },
    /// `g{k} = v and (x{k} > hi or x{k} <= lo)`.
    Selective,
    /// The two stock-ticker shapes of `StockScenario`.
    Ticker,
    /// `topic = t or urgent = 1`.
    Fanout,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub engine: EngineKind,
    pub shards: usize,
    pub placement: PlacementPolicy,
    /// Whether the closed loop interleaves unsubscribe/subscribe pairs.
    pub churn: bool,
    pub subscriptions: usize,
    /// Open-loop rate in events per second: a constant, about a third
    /// of the closed-loop `events_per_s` this workload typically reached
    /// at the commit that added the benchmark (40 % of its slow
    /// readings). Never derived at run time, so both sides of a
    /// comparison are offered the same load.
    pub open_rate: f64,
    shape: Shape,
}

/// Paper-shape parameters (also used by the `fig3.*` rows).
const PAPER_ATTRS: usize = 32;
const DOMAIN: i64 = 1_000_000;
/// Thresholds are drawn from the outer 7.5 % of the domain, so one
/// predicate holds for 3.75 % of values on average.
const PAPER_TAIL: i64 = 75_000;

const SELECTIVE_GROUPS: u64 = 1024;
const SELECTIVE_VALUES: i64 = 16;
const SELECTIVE_TAIL: i64 = 80_000;

const SYMBOLS: [&str; 12] = [
    "IBM", "AAPL", "MSFT", "GOOG", "AMZN", "TSLA", "NVDA", "ORCL", "SAP", "NZX", "ASX", "BHP",
];

const FANOUT_TOPICS: u64 = 4;

pub const ALL: [Spec; 6] = [
    Spec {
        name: "fig3-noncanonical",
        engine: EngineKind::NonCanonical,
        shards: 1,
        placement: PlacementPolicy::LeastLoaded,
        churn: false,
        subscriptions: 20_000,
        open_rate: 350.0,
        shape: Shape::Paper { pairs: 4 },
    },
    Spec {
        name: "fig3-counting",
        engine: EngineKind::Counting,
        shards: 1,
        placement: PlacementPolicy::LeastLoaded,
        churn: false,
        subscriptions: 20_000,
        open_rate: 300.0,
        shape: Shape::Paper { pairs: 4 },
    },
    Spec {
        name: "sharded-selective",
        engine: EngineKind::NonCanonical,
        shards: 8,
        placement: PlacementPolicy::ClusterByAttribute,
        churn: false,
        subscriptions: 100_000,
        open_rate: 4_000.0,
        shape: Shape::Selective,
    },
    Spec {
        name: "sharded-broad",
        engine: EngineKind::NonCanonical,
        shards: 4,
        placement: PlacementPolicy::LeastLoaded,
        churn: false,
        subscriptions: 20_000,
        open_rate: 80.0,
        shape: Shape::Ticker,
    },
    Spec {
        name: "fanout-delivery",
        engine: EngineKind::NonCanonical,
        shards: 1,
        placement: PlacementPolicy::LeastLoaded,
        churn: false,
        subscriptions: 2_000,
        open_rate: 800.0,
        shape: Shape::Fanout,
    },
    Spec {
        name: "churn",
        engine: EngineKind::CountingVariant,
        shards: 4,
        placement: PlacementPolicy::LeastLoaded,
        churn: true,
        subscriptions: 20_000,
        open_rate: 450.0,
        shape: Shape::Paper { pairs: 3 },
    },
];

pub fn by_name(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

/// One `(a > hi or a <= lo)` AND-ed `pairs` times over distinct
/// attributes drawn from the pool of [`PAPER_ATTRS`].
pub fn paper_text(rng: &mut Rng, pairs: usize) -> String {
    let mut attrs: [usize; PAPER_ATTRS] = std::array::from_fn(|i| i);
    let mut text = String::new();
    for p in 0..pairs {
        let pick = p + rng.below((PAPER_ATTRS - p) as u64) as usize;
        attrs.swap(p, pick);
        let a = attrs[p];
        let hi = DOMAIN - 1 - rng.range(0, PAPER_TAIL);
        let lo = rng.range(0, PAPER_TAIL);
        if p > 0 {
            text.push_str(" and ");
        }
        write!(text, "(a{a} > {hi} or a{a} <= {lo})").expect("writing to a String");
    }
    text
}

/// An event carrying all [`PAPER_ATTRS`] attributes.
pub fn paper_event(rng: &mut Rng, seq: usize) -> Event {
    let mut b = Event::builder();
    for a in 0..PAPER_ATTRS {
        b.set(&format!("a{a}"), rng.range(0, DOMAIN));
    }
    b.attr(SEQ, seq as i64).build()
}

fn text(shape: Shape, rng: &mut Rng) -> String {
    match shape {
        Shape::Paper { pairs } => paper_text(rng, pairs),
        Shape::Selective => {
            let k = rng.below(SELECTIVE_GROUPS);
            let v = rng.range(0, SELECTIVE_VALUES);
            let hi = DOMAIN - 1 - rng.range(0, SELECTIVE_TAIL);
            let lo = rng.range(0, SELECTIVE_TAIL);
            format!("g{k} = {v} and (x{k} > {hi} or x{k} <= {lo})")
        }
        Shape::Ticker => {
            let symbol = SYMBOLS[rng.below(SYMBOLS.len() as u64) as usize];
            let mid = rng.float(20.0, 200.0);
            let hi = mid * rng.float(1.05, 1.5);
            let lo = mid * rng.float(0.5, 0.95);
            let volume = rng.range(100, 10_000);
            if rng.below(2) == 0 {
                format!(
                    "symbol = \"{symbol}\" and (price > {hi:.2} or price <= {lo:.2}) \
                     and volume >= {volume}"
                )
            } else {
                format!(
                    "symbol = \"{symbol}\" and (price > {hi:.2} or \
                     (price <= {lo:.2} and volume >= {volume}))"
                )
            }
        }
        Shape::Fanout => format!("topic = {} or urgent = 1", rng.below(FANOUT_TOPICS)),
    }
}

fn event(shape: Shape, rng: &mut Rng, seq: usize) -> Event {
    match shape {
        Shape::Paper { .. } => paper_event(rng, seq),
        Shape::Selective => {
            let k = rng.below(SELECTIVE_GROUPS);
            Event::builder()
                .attr(&format!("g{k}"), rng.range(0, SELECTIVE_VALUES))
                .attr(&format!("x{k}"), rng.range(0, DOMAIN))
                .attr(SEQ, seq as i64)
                .build()
        }
        Shape::Ticker => Event::builder()
            .attr("symbol", SYMBOLS[rng.below(SYMBOLS.len() as u64) as usize])
            .attr("price", (rng.float(10.0, 250.0) * 100.0).round() / 100.0)
            .attr("volume", rng.range(1, 20_000))
            .attr("exchange", if rng.below(2) == 0 { "NYSE" } else { "NZX" })
            .attr(SEQ, seq as i64)
            .build(),
        Shape::Fanout => Event::builder()
            .attr("topic", rng.below(FANOUT_TOPICS) as i64)
            .attr("urgent", 0_i64)
            .attr(SEQ, seq as i64)
            .build(),
    }
}

/// A workload's generated inputs, built before any timing.
pub struct Inputs {
    pub spec: &'static Spec,
    pub seed: u64,
    /// The corpus registered at set-up, in registration order.
    pub texts: Vec<String>,
    /// `texts`, parsed: the oracle evaluates these, and the twins the
    /// traced run builds register them.
    pub exprs: Vec<Expr>,
    /// Texts a churn workload subscribes after each unsubscribe.
    pub fresh: Vec<String>,
    pub pool: Vec<Arc<Event>>,
    /// Copies of the first [`VERIFY`] pool events with `seq` moved
    /// past the pool, which routes their callbacks to the verify
    /// bitmaps.
    pub verify: Vec<Arc<Event>>,
    /// FNV-1a over every text and every pool event's rendering.
    pub hash: u64,
}

impl Inputs {
    pub fn generate(spec: &'static Spec, seed: u64) -> Inputs {
        let mut rng = Rng::fork(seed, "texts");
        let texts: Vec<String> = (0..spec.subscriptions)
            .map(|_| text(spec.shape, &mut rng))
            .collect();
        let fresh = if spec.churn {
            let mut rng = Rng::fork(seed, "fresh");
            (0..FRESH).map(|_| text(spec.shape, &mut rng)).collect()
        } else {
            Vec::new()
        };
        let mut rng = Rng::fork(seed, "events");
        let pool: Vec<Arc<Event>> = (0..POOL)
            .map(|seq| Arc::new(event(spec.shape, &mut rng, seq)))
            .collect();
        let verify = pool[..VERIFY]
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let mut b = Event::builder();
                for (name, value) in e.iter() {
                    b.set(name, value.clone());
                }
                Arc::new(b.attr(SEQ, (POOL + i) as i64).build())
            })
            .collect();
        let exprs = texts
            .iter()
            .map(|t| Expr::parse(t).expect("generated text parses"))
            .collect();
        let mut hash = 0xCBF2_9CE4_8422_2325;
        for t in texts.iter().chain(&fresh) {
            hash = fnv1a_extend(hash, t.as_bytes());
            hash = fnv1a_extend(hash, b"\n");
        }
        for e in &pool {
            hash = fnv1a_extend(hash, e.to_string().as_bytes());
            hash = fnv1a_extend(hash, b"\n");
        }
        Inputs {
            spec,
            seed,
            texts,
            exprs,
            fresh,
            pool,
            verify,
            hash,
        }
    }
}

/// The 20 000-subscription paper-shape corpus behind one `fig3.*` row.
pub fn fig3_corpus(seed: u64, pairs: usize) -> Vec<Expr> {
    let mut rng = Rng::fork(seed, &format!("fig3-p{}", pairs * 2));
    (0..20_000)
        .map(|_| Expr::parse(&paper_text(&mut rng, pairs)).expect("generated text parses"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_inputs() {
        for spec in &ALL {
            if spec.subscriptions > 20_000 {
                continue;
            }
            let a = Inputs::generate(spec, 7);
            let b = Inputs::generate(spec, 7);
            assert_eq!(a.hash, b.hash, "{}", spec.name);
            assert_eq!(a.texts, b.texts);
            let c = Inputs::generate(spec, 8);
            assert_ne!(a.hash, c.hash, "{}", spec.name);
        }
    }

    #[test]
    fn verify_events_differ_from_the_pool_only_in_seq() {
        let inputs = Inputs::generate(by_name("fanout-delivery").unwrap(), 1);
        for (i, v) in inputs.verify.iter().enumerate() {
            assert_eq!(v.get(SEQ).and_then(|s| s.as_int()), Some((POOL + i) as i64));
            assert_eq!(v.get("topic"), inputs.pool[i].get("topic"));
        }
    }
}
