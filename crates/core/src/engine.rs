//! The common engine interface.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use boolmatch_expr::{DnfError, Expr};
use boolmatch_types::Event;

use crate::{
    BatchScratch, EncodeError, FulfilledSet, MatchScratch, MatchStats, Matcher, MemoryUsage,
    SubscriptionId,
};

/// The result of matching one event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatchResult {
    /// Ids of the subscriptions the event matches, in unspecified
    /// order, without duplicates.
    pub matched: Vec<SubscriptionId>,
    /// Work counters for the match.
    pub stats: MatchStats,
}

/// A subscription could not be registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscribeError {
    /// The engine requires DNF transformation and the expansion exceeds
    /// the engine's limit (counting engines only — the expressive gap
    /// the paper is about).
    DnfTooLarge {
        /// Conjunctions the expansion would produce.
        estimate: u128,
        /// The limit that was exceeded.
        limit: usize,
    },
    /// A DNF conjunct has more predicates than the counting vectors'
    /// one-byte entries can count (paper §3.3: max 256 predicates per
    /// subscription; our entries count to 255).
    ConjunctTooWide {
        /// Predicates in the offending conjunct.
        width: usize,
    },
    /// The subscription tree could not be byte-encoded (non-canonical
    /// engine only).
    Encode(EncodeError),
    /// The encoded subscription tree is larger than the tree arena
    /// stores (non-canonical engine only; see
    /// [`MAX_TREE_BYTES`](crate::arena::MAX_TREE_BYTES)).
    TreeTooLarge {
        /// Encoded size of the tree.
        bytes: usize,
        /// The largest encoded tree accepted.
        limit: usize,
    },
}

impl fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubscribeError::DnfTooLarge { estimate, limit } => write!(
                f,
                "canonical transformation needs {estimate} conjunctions, over the limit of {limit}"
            ),
            SubscribeError::ConjunctTooWide { width } => write!(
                f,
                "conjunct with {width} predicates exceeds the 255-predicate counting limit"
            ),
            SubscribeError::Encode(e) => write!(f, "subscription tree encoding failed: {e}"),
            SubscribeError::TreeTooLarge { bytes, limit } => write!(
                f,
                "subscription tree encodes to {bytes} bytes, over the {limit}-byte tree limit"
            ),
        }
    }
}

impl Error for SubscribeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SubscribeError::Encode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EncodeError> for SubscribeError {
    fn from(e: EncodeError) -> Self {
        SubscribeError::Encode(e)
    }
}

impl From<DnfError> for SubscribeError {
    fn from(e: DnfError) -> Self {
        match e {
            DnfError::TooLarge { estimate, limit } => {
                SubscribeError::DnfTooLarge { estimate, limit }
            }
        }
    }
}

/// A subscription could not be removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsubscribeError {
    /// The id was never issued or is already unsubscribed.
    UnknownSubscription(SubscriptionId),
}

impl fmt::Display for UnsubscribeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnsubscribeError::UnknownSubscription(id) => {
                write!(f, "subscription {id} is not registered")
            }
        }
    }
}

impl Error for UnsubscribeError {}

/// Which engine implementation to instantiate; used by the broker and
/// the benchmark harness to select engines by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The paper's non-canonical engine.
    NonCanonical,
    /// The classic counting algorithm over DNF-transformed
    /// subscriptions.
    Counting,
    /// The candidate-driven counting variant (paper §3.3).
    CountingVariant,
}

impl EngineKind {
    /// All engine kinds, in the order the paper's figures list them.
    pub const ALL: [EngineKind; 3] = [
        EngineKind::NonCanonical,
        EngineKind::Counting,
        EngineKind::CountingVariant,
    ];

    /// Short label used in reports and CSV output.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::NonCanonical => "non-canonical",
            EngineKind::Counting => "counting",
            EngineKind::CountingVariant => "counting-variant",
        }
    }

    /// Instantiates a fresh engine of this kind.
    pub fn build(self) -> Box<dyn FilterEngine + Send + Sync> {
        match self {
            EngineKind::NonCanonical => Box::new(crate::NonCanonicalEngine::new()),
            EngineKind::Counting => Box::new(crate::CountingEngine::new()),
            EngineKind::CountingVariant => Box::new(crate::CountingVariantEngine::new()),
        }
    }

    /// Instantiates a fresh engine bundled with its own scratch — the
    /// convenient form for single-threaded callers.
    pub fn build_matcher(self) -> Matcher<Box<dyn FilterEngine + Send + Sync>> {
        Matcher::new(self.build())
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A two-phase event filtering engine (paper §3.2).
///
/// Phase 1 (*predicate matching*) maps an event to the set of fulfilled
/// predicate ids via one-dimensional indexes; phase 2 (*subscription
/// matching*) maps that set to matching subscriptions. The phases are
/// exposed separately because the paper's evaluation measures phase 2
/// in isolation — phase 1 is identical across engines by construction.
///
/// # Threading model
///
/// **Matching is `&self`**; only `subscribe`/`unsubscribe` mutate the
/// engine. All per-event mutable state (candidate buffers, hit
/// counters, stamp arrays, the evaluator stack) lives in a caller-owned
/// [`MatchScratch`], so any number of threads may match concurrently
/// against one engine — e.g. behind the read side of an `RwLock`, as
/// `boolmatch-broker` does — each with its own scratch. Matching is
/// allocation-free in steady state: the scratch resizes lazily to the
/// engine's current size and is reusable across events, engines, and
/// engine kinds. Single-threaded callers who prefer the bundled
/// ergonomics can wrap an engine in a [`Matcher`].
pub trait FilterEngine {
    /// The engine's kind.
    fn kind(&self) -> EngineKind;

    /// Registers a subscription and returns its id.
    ///
    /// # Errors
    ///
    /// See [`SubscribeError`]; the canonical engines refuse
    /// subscriptions whose DNF expansion is too large, which is the
    /// paper's point.
    fn subscribe(&mut self, expr: &Expr) -> Result<SubscriptionId, SubscribeError>;

    /// Removes a subscription.
    ///
    /// # Errors
    ///
    /// Returns [`UnsubscribeError::UnknownSubscription`] for ids that
    /// are not currently registered.
    fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), UnsubscribeError>;

    /// Phase 1: collects the predicates fulfilled by `event` into
    /// `out` (which is reset first).
    fn phase1(&self, event: &Event, out: &mut FulfilledSet);

    /// Phase 2: computes the subscriptions matched by a fulfilled set
    /// into `matched` (cleared first), using `scratch` for all per-event
    /// mutable state.
    fn phase2(
        &self,
        fulfilled: &FulfilledSet,
        scratch: &mut MatchScratch,
        matched: &mut Vec<SubscriptionId>,
    ) -> MatchStats;

    /// Both phases, leaving the matched ids in `scratch`
    /// ([`MatchScratch::matched`]) — the allocation-free form hot paths
    /// use (the broker's publish path reuses one scratch per thread
    /// across events).
    fn match_event_into(&self, event: &Event, scratch: &mut MatchScratch) -> MatchStats {
        // The fulfilled/matched buffers are moved out while phase2
        // borrows the rest of the scratch; the moves are pointer swaps.
        let mut fulfilled = std::mem::take(&mut scratch.fulfilled);
        self.phase1(event, &mut fulfilled);
        let mut matched = std::mem::take(&mut scratch.matched);
        let stats = self.phase2(&fulfilled, scratch, &mut matched);
        scratch.fulfilled = fulfilled;
        scratch.matched = matched;
        stats
    }

    /// Both phases, returning an owned [`MatchResult`]. Allocates the
    /// result vector; use [`FilterEngine::match_event_into`] on hot
    /// paths.
    fn match_event(&self, event: &Event, scratch: &mut MatchScratch) -> MatchResult {
        let stats = self.match_event_into(event, scratch);
        MatchResult {
            matched: scratch.matched.clone(),
            stats,
        }
    }

    /// Matches a whole batch of events in one call, leaving per-event
    /// matched ids in `batch` ([`BatchScratch::matched`]) and returning
    /// the summed stats.
    ///
    /// `skip` marks events to exclude (empty means "none"): a skipped
    /// event does no matching work, contributes nothing to the stats,
    /// and its matched list is left empty — sharded callers use this to
    /// prune a shard's non-candidates once per batch. When `skip` is
    /// non-empty it must have one flag per event.
    ///
    /// A batch is the per-event step looped: for every non-skipped
    /// event, `batch.matched(e)` holds exactly the ids
    /// [`FilterEngine::match_event`] reports for `events[e]`, and the
    /// summed stats equal the sum of the per-event stats — plus
    /// [`MatchStats::batch_events`]/[`MatchStats::batch_passes`], one
    /// each per matched event. What a batch amortises lies with the
    /// caller — one shard visit (lock, synopsis-gated lease, fan-out
    /// job) for all its events — which is why only
    /// [`crate::ShardedEngine`] overrides this, to walk shard-major.
    fn match_batch(
        &self,
        events: &[Arc<Event>],
        skip: &[bool],
        batch: &mut BatchScratch,
    ) -> MatchStats {
        debug_assert!(
            skip.is_empty() || skip.len() == events.len(),
            "skip mask must be empty or one flag per event"
        );
        batch.begin_batch(events.len());
        let mut stats = MatchStats::default();
        for (e, event) in events.iter().enumerate() {
            if !skip.get(e).copied().unwrap_or(false) {
                stats = stats + batch.match_event(self, e, event);
            }
        }
        stats
    }

    /// Number of registered (original) subscriptions.
    fn subscription_count(&self) -> usize;

    /// Upper bound (exclusive) of the dense subscription-id space —
    /// including ids of unsubscribed slots. Scratch stamp arrays are
    /// sized against this.
    fn subscription_id_bound(&self) -> usize {
        self.subscription_count()
    }

    /// Number of internally registered matching units: original
    /// subscriptions for the non-canonical engine, DNF conjunctions for
    /// the counting engines — the "multiple of the number of original
    /// registered subscriptions" of paper §2.2.
    fn registered_units(&self) -> usize {
        self.subscription_count()
    }

    /// Upper bound (exclusive) of the dense matching-unit slot space —
    /// including freed slots awaiting reuse, unlike
    /// [`FilterEngine::registered_units`]. Scratch hit vectors are
    /// sized against this.
    fn unit_slot_bound(&self) -> usize {
        self.registered_units()
    }

    /// Number of live distinct predicates.
    fn predicate_count(&self) -> usize;

    /// Size of the predicate id universe (for sizing external
    /// [`FulfilledSet`]s).
    fn predicate_universe(&self) -> usize;

    /// Byte-accurate memory breakdown.
    fn memory_usage(&self) -> MemoryUsage;
}

impl<T: FilterEngine + ?Sized> FilterEngine for Box<T> {
    fn kind(&self) -> EngineKind {
        (**self).kind()
    }

    fn subscribe(&mut self, expr: &Expr) -> Result<SubscriptionId, SubscribeError> {
        (**self).subscribe(expr)
    }

    fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), UnsubscribeError> {
        (**self).unsubscribe(id)
    }

    fn phase1(&self, event: &Event, out: &mut FulfilledSet) {
        (**self).phase1(event, out);
    }

    fn phase2(
        &self,
        fulfilled: &FulfilledSet,
        scratch: &mut MatchScratch,
        matched: &mut Vec<SubscriptionId>,
    ) -> MatchStats {
        (**self).phase2(fulfilled, scratch, matched)
    }

    fn match_event_into(&self, event: &Event, scratch: &mut MatchScratch) -> MatchStats {
        (**self).match_event_into(event, scratch)
    }

    fn match_event(&self, event: &Event, scratch: &mut MatchScratch) -> MatchResult {
        (**self).match_event(event, scratch)
    }

    fn match_batch(
        &self,
        events: &[Arc<Event>],
        skip: &[bool],
        batch: &mut BatchScratch,
    ) -> MatchStats {
        (**self).match_batch(events, skip, batch)
    }

    fn subscription_count(&self) -> usize {
        (**self).subscription_count()
    }

    fn subscription_id_bound(&self) -> usize {
        (**self).subscription_id_bound()
    }

    fn registered_units(&self) -> usize {
        (**self).registered_units()
    }

    fn unit_slot_bound(&self) -> usize {
        (**self).unit_slot_bound()
    }

    fn predicate_count(&self) -> usize {
        (**self).predicate_count()
    }

    fn predicate_universe(&self) -> usize {
        (**self).predicate_universe()
    }

    fn memory_usage(&self) -> MemoryUsage {
        (**self).memory_usage()
    }
}

/// Asserts `engine.match_batch(events)` ≡ its per-event walk: the same
/// ids per event (as sets) and the same summed stats, the two
/// batch-only counters aside.
#[cfg(test)]
pub(crate) fn assert_batch_equals_per_event(
    engine: &(impl FilterEngine + ?Sized),
    events: &[Arc<Event>],
    context: &str,
) {
    let sorted = |ids: &[SubscriptionId]| {
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        ids
    };
    let mut batch = BatchScratch::new();
    let mut stats = engine.match_batch(events, &[], &mut batch);
    let mut scratch = MatchScratch::new();
    let mut per_event = MatchStats::default();
    for (e, event) in events.iter().enumerate() {
        per_event = per_event + engine.match_event_into(event, &mut scratch);
        assert_eq!(
            sorted(batch.matched(e)),
            sorted(scratch.matched()),
            "{context}: event {e}"
        );
    }
    assert_eq!(stats.batch_passes, stats.batch_events, "{context}");
    stats.batch_events = 0;
    stats.batch_passes = 0;
    assert_eq!(stats, per_event, "{context}: summed stats");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kind_labels_are_distinct() {
        let labels: Vec<&str> = EngineKind::ALL.iter().map(|k| k.label()).collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels.len(), 3);
        assert_eq!(labels, dedup);
    }

    #[test]
    fn build_constructs_each_kind() {
        for kind in EngineKind::ALL {
            let engine = kind.build();
            assert_eq!(engine.kind(), kind);
            assert_eq!(engine.subscription_count(), 0);
        }
    }

    #[test]
    fn subscribe_error_display() {
        let e = SubscribeError::DnfTooLarge {
            estimate: 1 << 40,
            limit: 1024,
        };
        assert!(e.to_string().contains("conjunctions"));
        let e = SubscribeError::ConjunctTooWide { width: 300 };
        assert!(e.to_string().contains("255"));
    }

    #[test]
    fn unsubscribe_error_display() {
        let e = UnsubscribeError::UnknownSubscription(SubscriptionId::from_index(3));
        assert!(e.to_string().contains("s3"));
    }
}
