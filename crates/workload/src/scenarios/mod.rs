//! Seeded subscription/event streams for examples, demos and end-to-end
//! tests.
//!
//! The paper motivates expressive subscriptions with application
//! domains where interests are *not* naturally conjunctive. These
//! generators produce such workloads: stock tickers (numeric ranges
//! with alternatives), news alerting (string search), auction
//! monitoring (mixed), subscription churn (sustained
//! subscribe/unsubscribe interleaved with publishing, for the sharded
//! broker's write path), hot keys (a minority of subscriptions
//! absorbing most matches, for the match-frequency rebalancing policy),
//! selective populations (partitionable attribute groups, for
//! content-aware clustered placement and shard pruning), and slow
//! consumers (full fan-out pressure with scripted stall / burst /
//! disconnect / panic faults, for the asynchronous delivery tier).
//!
//! [`TreeScenario`] models no domain: it generates random trees with
//! `not`, mixed value kinds and events missing attributes. It is the
//! main corpus of `tests/oracle_matrix.rs`, which replays it through
//! every broker configuration against a naive evaluation of each
//! expression; the selective and domain streams are that matrix's
//! other inputs.

mod auction;
mod churn;
mod hotkey;
mod news;
mod selective;
mod slow_consumer;
mod stock;
mod tree;

pub use auction::AuctionScenario;
pub use churn::{ChurnOp, ChurnScenario};
pub use hotkey::HotKeyScenario;
pub use news::NewsScenario;
pub use selective::SelectiveScenario;
pub use slow_consumer::{
    ConsumerDirective, FaultAction, FaultDriver, FaultEvent, FaultPlan, SlowConsumerScenario,
};
pub use stock::StockScenario;
pub use tree::TreeScenario;
