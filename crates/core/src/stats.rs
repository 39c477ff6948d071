//! Per-event matching statistics.

use std::fmt;
use std::ops::Add;

/// Counters describing the work one event's match performed.
///
/// These are the quantities the paper's analysis (§2.2, §4.1) reasons
/// about: the counting algorithm's cost is `increments + comparisons`
/// (with `comparisons` covering *every* registered conjunction), the
/// variant's cost follows `candidates`, and the non-canonical engine's
/// cost follows `candidates`/`evaluations` of original subscriptions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Fulfilled predicates (phase-1 output size). For the
    /// non-canonical engine: fulfilled *indexed* predicates — those
    /// with postings, the only ones its phase 1 looks for; the others
    /// show up under [`MatchStats::leaf_comparisons`] when a candidate
    /// tree reaches them.
    pub fulfilled: usize,
    /// Candidate subscriptions / conjunctions touched in phase 2.
    pub candidates: usize,
    /// Boolean tree evaluations (non-canonical engine).
    pub evaluations: usize,
    /// Tree leaves decided in phase 2 by comparing the event with the
    /// predicate's constant, because the predicate is not in the
    /// phase-1 index (non-canonical engine; 0 for the counting engines
    /// and for fulfilled sets that carry no event).
    pub leaf_comparisons: usize,
    /// Hit-counter increments (counting engines).
    pub increments: usize,
    /// Hit/count vector comparisons (counting engines).
    pub comparisons: usize,
    /// Subscriptions reported as matching.
    pub matched: usize,
    /// Shards skipped without any matching work because their attribute
    /// synopsis proved zero candidates (sharded engines only; always 0
    /// for flat engines).
    pub shards_pruned: usize,
    /// Events matched through [`FilterEngine::match_batch`]; always 0
    /// on the per-event paths.
    ///
    /// [`FilterEngine::match_batch`]: crate::FilterEngine::match_batch
    pub batch_events: usize,
    /// Always equal to [`MatchStats::batch_events`]: a batch is the
    /// per-event step looped, one predicate-table pass per event. Kept
    /// because the stand-alone `benchmark/` package reads it.
    pub batch_passes: usize,
}

impl Add for MatchStats {
    type Output = MatchStats;

    fn add(self, rhs: MatchStats) -> MatchStats {
        MatchStats {
            fulfilled: self.fulfilled + rhs.fulfilled,
            candidates: self.candidates + rhs.candidates,
            evaluations: self.evaluations + rhs.evaluations,
            leaf_comparisons: self.leaf_comparisons + rhs.leaf_comparisons,
            increments: self.increments + rhs.increments,
            comparisons: self.comparisons + rhs.comparisons,
            matched: self.matched + rhs.matched,
            shards_pruned: self.shards_pruned + rhs.shards_pruned,
            batch_events: self.batch_events + rhs.batch_events,
            batch_passes: self.batch_passes + rhs.batch_passes,
        }
    }
}

impl fmt::Display for MatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fulfilled={} candidates={} evaluations={} leaf_comparisons={} increments={} \
             comparisons={} matched={} shards_pruned={} batch_events={} batch_passes={}",
            self.fulfilled,
            self.candidates,
            self.evaluations,
            self.leaf_comparisons,
            self.increments,
            self.comparisons,
            self.matched,
            self.shards_pruned,
            self.batch_events,
            self.batch_passes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sums_componentwise() {
        let a = MatchStats {
            fulfilled: 1,
            candidates: 2,
            evaluations: 3,
            leaf_comparisons: 10,
            increments: 4,
            comparisons: 5,
            matched: 6,
            shards_pruned: 7,
            batch_events: 8,
            batch_passes: 9,
        };
        let b = a;
        let c = a + b;
        assert_eq!(c.fulfilled, 2);
        assert_eq!(c.leaf_comparisons, 20);
        assert_eq!(c.matched, 12);
        assert_eq!(c.shards_pruned, 14);
        assert_eq!(c.batch_events, 16);
        assert_eq!(c.batch_passes, 18);
    }

    #[test]
    fn display_mentions_all_counters() {
        let s = MatchStats::default().to_string();
        for field in [
            "fulfilled",
            "candidates",
            "evaluations",
            "leaf_comparisons",
            "increments",
            "comparisons",
            "matched",
            "shards_pruned",
            "batch_events",
            "batch_passes",
        ] {
            assert!(s.contains(field), "missing {field}");
        }
    }
}
