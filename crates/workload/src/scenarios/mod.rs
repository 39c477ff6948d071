//! Realistic domain scenarios for examples, demos and end-to-end
//! tests.
//!
//! The paper motivates expressive subscriptions with application
//! domains where interests are *not* naturally conjunctive. These
//! generators produce such workloads: stock tickers (numeric ranges
//! with alternatives), news alerting (string search), auction
//! monitoring (mixed), subscription churn (sustained
//! subscribe/unsubscribe interleaved with publishing, for the sharded
//! broker's write path), rebalancing (churn with periodic
//! shard-rebalance and shard-resize marks, for the live-migration
//! equivalence tests and benches), hot keys (a minority of
//! subscriptions absorbing most matches, for the match-frequency
//! rebalancing policy), selective populations (partitionable
//! attribute groups, for content-aware clustered placement and shard
//! pruning — with an or-rooted unprunable control stream), and slow
//! consumers (full fan-out pressure with scripted stall / burst /
//! disconnect / panic faults, for the asynchronous delivery tier).

mod auction;
mod churn;
mod hotkey;
mod news;
mod rebalance;
mod selective;
mod slow_consumer;
mod stock;

pub use auction::AuctionScenario;
pub use churn::{ChurnOp, ChurnScenario};
pub use hotkey::HotKeyScenario;
pub use news::NewsScenario;
pub use rebalance::{RebalanceOp, RebalanceScenario};
pub use selective::SelectiveScenario;
pub use slow_consumer::{
    ConsumerDirective, FaultAction, FaultDriver, FaultEvent, FaultPlan, SlowConsumerScenario,
};
pub use stock::StockScenario;
