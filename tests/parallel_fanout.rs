//! The shard walk's correctness claims, proven without relying on
//! timing:
//!
//! * **Answer identity** — `ShardedEngine::match_event_parallel` (the
//!   standalone scoped fan-out the benchmark times) must be
//!   *bit-identical* to the sequential shard walk: same matched ids in
//!   the same order, same reconciled [`MatchStats`]. Property-tested
//!   over deterministic churn streams for every engine kind and
//!   S ∈ {1, 3, 8}.
//! * **Batch answer identity** — `ShardedEngine::match_batch` (the
//!   shard-major walk) replays churn windows, with and without a skip
//!   mask, and must equal the per-event walk, ids and stats, for every
//!   kind and S ∈ {1, 3, 8}.

use std::sync::Arc;

use boolmatch::core::{BatchScratch, MatchStats, ScratchPool, ShardedEngine};
use boolmatch::prelude::*;
use boolmatch::workload::scenarios::{ChurnOp, ChurnScenario};

/// Parallel fan-out must equal the sequential walk under subscription
/// churn, for every engine kind and shard count — ids, order, stats.
#[test]
fn parallel_matches_sequential_under_churn() {
    for kind in EngineKind::ALL {
        for shards in [1usize, 3, 8] {
            let mut engine = ShardedEngine::new(kind, shards);
            let scratches = ScratchPool::new(shards);
            let mut seq = MatchScratch::new();
            let mut par = MatchScratch::new();
            let mut live: Vec<SubscriptionId> = Vec::new();

            let mut churn = ChurnScenario::new(31, 80);
            for (step, op) in churn.ops(1_500).into_iter().enumerate() {
                match op {
                    ChurnOp::Subscribe(expr) => {
                        live.push(engine.subscribe(&expr).expect("accepted"));
                    }
                    ChurnOp::Unsubscribe(i) => {
                        engine.unsubscribe(live.remove(i)).expect("live id");
                    }
                    ChurnOp::Publish(event) => {
                        let seq_stats = engine.match_event_into(&event, &mut seq);
                        let par_stats = engine.match_event_parallel(&event, &scratches, &mut par);
                        assert_eq!(
                            seq.matched(),
                            par.matched(),
                            "kind={kind} shards={shards} step={step}"
                        );
                        assert_eq!(
                            seq_stats, par_stats,
                            "stats reconcile: kind={kind} shards={shards} step={step}"
                        );
                    }
                }
            }
        }
    }
}

/// Matches every event of `window` per-event (the reference), then as
/// one batch, and asserts the batch agrees with the reference: the same
/// ids per event (as sets) and the same summed [`MatchStats`] —
/// `batch_events`/`batch_passes`, which only the batch path counts,
/// zeroed first. A second batch skips every third event: skipped events
/// report nothing, the others are unchanged.
fn assert_batch_equals_per_event(
    engine: &ShardedEngine,
    window: &[Arc<Event>],
    scratch: &mut MatchScratch,
    seq_batch: &mut BatchScratch,
    context: &str,
) {
    if window.is_empty() {
        return;
    }
    let mut scalar_total = MatchStats::default();
    let mut want: Vec<Vec<SubscriptionId>> = Vec::new();
    for event in window {
        scalar_total = scalar_total + engine.match_event_into(event, scratch);
        let mut ids = scratch.matched().to_vec();
        ids.sort_unstable();
        want.push(ids);
    }
    let mut seq_stats = engine.match_batch(window, &[], seq_batch);
    for (e, want_ids) in want.iter().enumerate() {
        let mut got = seq_batch.matched(e).to_vec();
        got.sort_unstable();
        assert_eq!(&got, want_ids, "sequential batch ids: {context} event {e}");
    }
    seq_stats.batch_events = 0;
    seq_stats.batch_passes = 0;
    assert_eq!(seq_stats, scalar_total, "sequential batch stats: {context}");

    let skip: Vec<bool> = (0..window.len()).map(|e| e % 3 == 2).collect();
    engine.match_batch(window, &skip, seq_batch);
    for (e, want_ids) in want.iter().enumerate() {
        let mut got = seq_batch.matched(e).to_vec();
        got.sort_unstable();
        if skip[e] {
            assert!(
                got.is_empty(),
                "skipped event reported ids: {context} event {e}"
            );
        } else {
            assert_eq!(&got, want_ids, "masked batch ids: {context} event {e}");
        }
    }
}

/// Batches under churn: windows of the publish stream, matched as one
/// batch, must equal the per-event walk — ids and stats — for every
/// engine kind and S ∈ {1, 3, 8}, across subscribe/unsubscribe churn
/// that recycles flat slots and retracts synopsis entries mid-stream.
#[test]
fn batch_matches_per_event_under_churn() {
    for kind in EngineKind::ALL {
        for shards in [1usize, 3, 8] {
            let mut engine = ShardedEngine::new(kind, shards);
            let mut scratch = MatchScratch::new();
            let mut seq_batch = BatchScratch::new();
            let mut live: Vec<SubscriptionId> = Vec::new();
            let mut window: Vec<Arc<Event>> = Vec::new();
            let mut window_cap = 1usize;

            let mut churn = ChurnScenario::new(59, 80);
            for (step, op) in churn.ops(1_500).into_iter().enumerate() {
                match op {
                    ChurnOp::Subscribe(expr) => {
                        // Flush before the table changes under the
                        // pending window.
                        assert_batch_equals_per_event(
                            &engine,
                            &window,
                            &mut scratch,
                            &mut seq_batch,
                            &format!("kind={kind} shards={shards} step={step}"),
                        );
                        window.clear();
                        live.push(engine.subscribe(&expr).expect("accepted"));
                    }
                    ChurnOp::Unsubscribe(i) => {
                        assert_batch_equals_per_event(
                            &engine,
                            &window,
                            &mut scratch,
                            &mut seq_batch,
                            &format!("kind={kind} shards={shards} step={step}"),
                        );
                        window.clear();
                        engine.unsubscribe(live.remove(i)).expect("live id");
                    }
                    ChurnOp::Publish(event) => {
                        window.push(Arc::new(event));
                        if window.len() >= window_cap {
                            assert_batch_equals_per_event(
                                &engine,
                                &window,
                                &mut scratch,
                                &mut seq_batch,
                                &format!("kind={kind} shards={shards} step={step}"),
                            );
                            window.clear();
                            window_cap = window_cap % 9 + 1;
                        }
                    }
                }
            }
            assert_batch_equals_per_event(
                &engine,
                &window,
                &mut scratch,
                &mut seq_batch,
                &format!("kind={kind} shards={shards} final"),
            );
        }
    }
}
