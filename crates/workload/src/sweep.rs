//! The Fig. 3 parameter sweep behind `examples/engine_comparison.rs`
//! and `tests/figure3_claims.rs`.
//!
//! One [`SweepConfig`] describes one Fig. 3 panel: a subscription shape
//! (predicates per subscription), a fulfilled-predicates-per-event
//! level, and a ladder of subscription counts. [`run_with_progress`]
//! registers the (deterministic, seed-identical) corpus in each engine
//! incrementally, times **phase 2 only** per event — exactly the
//! paper's measurement ("we only need to compare the second phases") —
//! and reports measured plus memory-wall-modeled durations.

use std::time::{Duration, Instant};

use boolmatch_core::{EngineKind, FulfilledSet, MatchScratch, MatchStats, SubscriptionId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{synthetic_fulfilled, MemoryModel, SubscriptionGenerator};

/// Configuration of one sweep (one figure panel).
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Label for reports, e.g. `"fig3a"`.
    pub label: String,
    /// Engines to compare.
    pub engines: Vec<EngineKind>,
    /// Ascending subscription counts (the panel's abscissa).
    pub subscription_counts: Vec<usize>,
    /// Predicates per original subscription (6, 8 or 10 in the paper).
    pub predicates_per_sub: usize,
    /// Fulfilled predicates per event (5 000 or 10 000 in the paper).
    pub fulfilled_per_event: usize,
    /// Events measured per point (the mean is reported).
    pub events_per_point: usize,
    /// Seed for the deterministic corpus and events.
    pub seed: u64,
    /// The memory wall applied to modeled durations.
    pub memory_model: MemoryModel,
}

impl SweepConfig {
    /// A small smoke-test configuration used by tests and examples.
    pub fn smoke(label: &str) -> Self {
        SweepConfig {
            label: label.to_owned(),
            engines: EngineKind::ALL.to_vec(),
            subscription_counts: vec![200, 500, 1_000],
            predicates_per_sub: 6,
            fulfilled_per_event: 100,
            events_per_point: 3,
            seed: 42,
            memory_model: MemoryModel::paper(),
        }
    }
}

/// One measured point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Sweep label (panel).
    pub label: String,
    /// Engine measured.
    pub engine: EngineKind,
    /// Original subscriptions registered.
    pub subscriptions: usize,
    /// Internally registered matching units (= subscriptions for the
    /// non-canonical engine; DNF conjunctions for counting engines).
    pub units: usize,
    /// Mean phase-2 duration per event, as measured on this host.
    pub measured: Duration,
    /// The measured duration after the memory-wall model.
    pub modeled: Duration,
    /// Phase-2 working set in bytes (what the wall applies to).
    pub phase2_bytes: usize,
    /// Per-event work counters, averaged over the measured events.
    pub stats: MatchStats,
}

/// Runs a sweep, invoking `progress` after every measured point (rows
/// arrive engine-major, count-minor). Returns all rows.
pub fn run_with_progress(
    config: &SweepConfig,
    mut progress: impl FnMut(&SweepRow),
) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for &kind in &config.engines {
        // The sweep synthesizes fulfilled sets, as the paper's
        // experiments do: a set without an event decides every leaf by
        // membership, and `phase2_bytes` leaves the phase-1 index out.
        let mut engine = kind.build();
        // Identical corpus across engines: same seed, same generator.
        let mut gen = SubscriptionGenerator::new(config.seed, config.predicates_per_sub);
        let mut registered = 0usize;
        let mut matched: Vec<SubscriptionId> = Vec::new();
        let mut fulfilled = FulfilledSet::new();
        let mut scratch = MatchScratch::new();

        for &target in &config.subscription_counts {
            while registered < target {
                let expr = gen.generate();
                engine
                    .subscribe(&expr)
                    .expect("paper workloads are within all engine limits");
                registered += 1;
            }

            let universe = engine.predicate_universe();
            let k = config.fulfilled_per_event.min(universe);
            // Event stream deterministic per point and identical across
            // engines (universes align for NOT-free corpora).
            let mut ev_rng = StdRng::seed_from_u64(
                config
                    .seed
                    .wrapping_add((target as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );

            // Warm-up event (touches lazily grown scratch).
            let ids = synthetic_fulfilled(&mut ev_rng, universe, k);
            fulfilled.begin(universe);
            for id in ids {
                fulfilled.insert(id);
            }
            engine.phase2(&fulfilled, &mut scratch, &mut matched);

            let mut total = Duration::ZERO;
            let mut stats_sum = MatchStats::default();
            for _ in 0..config.events_per_point {
                let ids = synthetic_fulfilled(&mut ev_rng, universe, k);
                fulfilled.begin(universe);
                for id in ids {
                    fulfilled.insert(id);
                }
                let start = Instant::now();
                let stats = engine.phase2(&fulfilled, &mut scratch, &mut matched);
                total += start.elapsed();
                stats_sum = stats_sum + stats;
            }
            let events = config.events_per_point.max(1);
            let measured = total / events as u32;
            let memory = engine.memory_usage();
            let row = SweepRow {
                label: config.label.clone(),
                engine: kind,
                subscriptions: registered,
                units: engine.registered_units(),
                measured,
                modeled: config.memory_model.modeled_for(measured, &memory),
                phase2_bytes: memory.phase2_bytes(),
                stats: MatchStats {
                    fulfilled: stats_sum.fulfilled / events,
                    candidates: stats_sum.candidates / events,
                    evaluations: stats_sum.evaluations / events,
                    leaf_comparisons: stats_sum.leaf_comparisons / events,
                    increments: stats_sum.increments / events,
                    comparisons: stats_sum.comparisons / events,
                    matched: stats_sum.matched / events,
                    shards_pruned: stats_sum.shards_pruned / events,
                    batch_events: stats_sum.batch_events / events,
                    batch_passes: stats_sum.batch_passes / events,
                },
            };
            progress(&row);
            rows.push(row);
        }
    }
    rows
}

/// Runs a sweep without progress reporting.
pub fn run(config: &SweepConfig) -> Vec<SweepRow> {
    run_with_progress(config, |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_produces_rows_for_all_engines_and_counts() {
        let config = SweepConfig::smoke("test");
        let rows = run(&config);
        assert_eq!(rows.len(), 3 * 3);
        for kind in EngineKind::ALL {
            let engine_rows: Vec<_> = rows.iter().filter(|r| r.engine == kind).collect();
            assert_eq!(engine_rows.len(), 3);
            let counts: Vec<usize> = engine_rows.iter().map(|r| r.subscriptions).collect();
            assert_eq!(counts, vec![200, 500, 1_000]);
        }
    }

    #[test]
    fn counting_units_show_the_transformation_blowup() {
        let config = SweepConfig::smoke("test");
        let rows = run(&config);
        for r in &rows {
            match r.engine {
                EngineKind::NonCanonical => assert_eq!(r.units, r.subscriptions),
                // 6 predicates -> 2^3 = 8 conjunctions each.
                _ => assert_eq!(r.units, r.subscriptions * 8),
            }
        }
    }

    #[test]
    fn counting_memory_exceeds_noncanonical_memory_at_ten_predicates() {
        // The paper's space argument is strongest at |p| = 10 (32x
        // transformation, Fig. 3c/f: the canonical engines exhaust
        // memory >4x earlier). At |p| = 6 the ratio is mild because the
        // non-canonical engine pays for explicit tree storage.
        // 10 000 subscriptions: large enough that the tree arena's
        // 64 KiB block quantisation does not dominate the accounting.
        let config = SweepConfig {
            predicates_per_sub: 10,
            subscription_counts: vec![10_000],
            fulfilled_per_event: 500,
            events_per_point: 1,
            ..SweepConfig::smoke("test")
        };
        let rows = run(&config);
        let at = |k: EngineKind| {
            rows.iter()
                .find(|r| r.engine == k && r.subscriptions == 10_000)
                .unwrap()
                .phase2_bytes
        };
        // Transformation: 32 conjunctions x 5 predicates = 160 assoc
        // postings per original subscription, vs 2 for non-canonical
        // (one OR-pair is its necessary set). The byte ratio is far
        // below the posting ratio because each engine is charged what
        // it allocates, not the paper's packed arrays: a 16-byte
        // association slot per predicate id, the location or flat
        // tables, and for the non-canonical engine its encoded trees.
        assert!(
            at(EngineKind::Counting) > 2 * at(EngineKind::NonCanonical),
            "counting {} vs non-canonical {}",
            at(EngineKind::Counting),
            at(EngineKind::NonCanonical)
        );
    }

    #[test]
    fn counting_comparisons_scale_with_units() {
        let rows = run(&SweepConfig::smoke("test"));
        for r in rows.iter().filter(|r| r.engine == EngineKind::Counting) {
            assert_eq!(r.stats.comparisons, r.units, "classic scans every unit");
        }
        for r in rows
            .iter()
            .filter(|r| r.engine == EngineKind::CountingVariant)
        {
            assert!(r.stats.comparisons <= r.units);
            assert_eq!(r.stats.comparisons, r.stats.candidates);
        }
    }

    #[test]
    fn stats_work_is_identical_for_counting_pair() {
        // Both counting engines do the same increment work on the same
        // corpus and events.
        let rows = run(&SweepConfig::smoke("test"));
        for &n in &[200usize, 500, 1_000] {
            let find = |k: EngineKind| {
                rows.iter()
                    .find(|r| r.engine == k && r.subscriptions == n)
                    .unwrap()
            };
            assert_eq!(
                find(EngineKind::Counting).stats.increments,
                find(EngineKind::CountingVariant).stats.increments
            );
            assert_eq!(
                find(EngineKind::Counting).stats.matched,
                find(EngineKind::CountingVariant).stats.matched
            );
            assert_eq!(
                find(EngineKind::Counting).stats.matched,
                find(EngineKind::NonCanonical).stats.matched,
                "all engines agree on matches at n={n}"
            );
        }
    }
}
