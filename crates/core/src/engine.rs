//! The common engine interface.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use boolmatch_expr::{DnfError, Expr, MAX_DEPTH};
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
    /// The expression nests deeper than
    /// [`MAX_DEPTH`](boolmatch_expr::MAX_DEPTH) levels; every engine
    /// refuses it before any pass recurses over it.
    TooDeep {
        /// The expression's [`Expr::depth`].
        depth: usize,
        /// The deepest expression accepted.
        limit: usize,
    },
}

impl SubscribeError {
    /// The check every engine's `subscribe` makes first: an expression
    /// deeper than [`MAX_DEPTH`] is refused, measured without
    /// recursing, so every recursive pass after it is bounded.
    pub(crate) fn check_depth(expr: &Expr) -> Result<(), SubscribeError> {
        let depth = expr.depth();
        if depth > MAX_DEPTH {
            return Err(SubscribeError::TooDeep {
                depth,
                limit: MAX_DEPTH,
            });
        }
        Ok(())
    }
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
            SubscribeError::TooDeep { depth, limit } => write!(
                f,
                "subscription is {depth} levels deep, over the {limit}-level limit"
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
    /// An engine's id names a slot in its tables and is valid until it
    /// is unsubscribed; a later subscribe may be issued the same id.
    /// Detecting a stale id across that reuse is the job of the
    /// generation-tagged global ids a [`crate::SubscriptionDirectory`]
    /// hands out above the engines (the broker's, or
    /// [`crate::ShardedEngine`]'s).
    ///
    /// # Errors
    ///
    /// See [`SubscribeError`]; the canonical engines refuse
    /// subscriptions whose DNF expansion is too large, which is the
    /// paper's point.
    fn subscribe(&mut self, expr: &Expr) -> Result<SubscriptionId, SubscribeError>;

    /// Removes a subscription, freeing its id for reissue.
    ///
    /// # Errors
    ///
    /// Returns [`UnsubscribeError::UnknownSubscription`] for ids that
    /// are not currently registered. An id that has been reissued is
    /// registered again — to its new subscription, which this would
    /// remove (see [`FilterEngine::subscribe`]).
    fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), UnsubscribeError>;

    /// The expression of live subscription `id`, rebuilt from what the
    /// engine stores, or `None` for a free or never-issued id.
    ///
    /// The result matches exactly the events the registration matches,
    /// and subscribing it again registers an equivalent subscription;
    /// it need not be the text the subscriber wrote. The non-canonical
    /// engine gives back its compacted, access-ranked tree, a counting
    /// engine the OR of its conjunctions. This is how live migration
    /// moves a subscription to another shard: nothing else keeps a copy
    /// of the expression. A cold path — it allocates the whole tree.
    fn expression(&self, id: SubscriptionId) -> Option<Expr>;

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
    /// job) for all its events — which is why no engine overrides
    /// this: the shard-major walks ([`crate::Shard::match_event`]
    /// looped by the broker's batch publish and by
    /// [`crate::ShardedEngine::match_batch`]) sit above the engines.
    fn match_batch(
        &self,
        events: &[Arc<Event>],
        skip: &[bool],
        batch: &mut BatchScratch,
    ) -> MatchStats {
        batch.begin_batch(events.len(), skip);
        let mut stats = MatchStats::default();
        for (e, event) in events.iter().enumerate() {
            if !skip.get(e).copied().unwrap_or(false) {
                stats =
                    stats + batch.match_event(e, |scratch| self.match_event_into(event, scratch));
            }
        }
        stats
    }

    /// Number of registered (original) subscriptions.
    fn subscription_count(&self) -> usize;

    /// Upper bound (exclusive) of the dense subscription-id space —
    /// including free slots awaiting reissue. Scratch stamp arrays are
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

    fn expression(&self, id: SubscriptionId) -> Option<Expr> {
        (**self).expression(id)
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
    assert_walks_agree(
        |events, batch| engine.match_batch(events, &[], batch),
        |event, scratch| engine.match_event_into(event, scratch),
        events,
        context,
    );
}

/// [`assert_batch_equals_per_event`] for any pair of walks — a batch
/// walk over `events` and a per-event one.
#[cfg(test)]
pub(crate) fn assert_walks_agree(
    batch_walk: impl Fn(&[Arc<Event>], &mut BatchScratch) -> MatchStats,
    event_walk: impl Fn(&Event, &mut MatchScratch) -> MatchStats,
    events: &[Arc<Event>],
    context: &str,
) {
    let sorted = |ids: &[SubscriptionId]| {
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        ids
    };
    let mut batch = BatchScratch::new();
    let mut stats = batch_walk(events, &mut batch);
    let mut scratch = MatchScratch::new();
    let mut per_event = MatchStats::default();
    for (e, event) in events.iter().enumerate() {
        per_event = per_event + event_walk(event, &mut scratch);
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
    use crate::dominant_eq_attr;
    use boolmatch_workload::scenarios::TreeScenario;
    use std::collections::HashMap;

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

    /// The corners the generated trees may miss, before them.
    const CORNERS: [&str; 5] = [
        // A negated leaf: stored as its complement.
        "not (a = 1)",
        // A duplicated leaf.
        "a = 1 and (a = 1 or b = 2)",
        // String, bool and float constants.
        "s = \"x\" and (t = true or f > 1.5)",
        "not (s prefix \"ab\" and n != 3) or f <= -0.5",
        // Two conjunctions sharing a predicate.
        "(a = 1 or b = 2) and (a = 1 or c = 3)",
    ];

    /// Ids, in subscription order, of the subscriptions `engine`
    /// matches for `event`, as positions in `ids`.
    fn matched_positions(
        engine: &dyn FilterEngine,
        ids: &HashMap<SubscriptionId, usize>,
        event: &Event,
    ) -> Vec<usize> {
        let mut positions: Vec<usize> = engine
            .match_event(event, &mut MatchScratch::new())
            .matched
            .iter()
            .map(|id| ids[id])
            .collect();
        positions.sort_unstable();
        positions
    }

    /// `expression` on every live id of a `kind` engine:
    /// evaluates like the registered expression on generated events
    /// (missing attributes included), and registered in a fresh engine
    /// of the same kind matches the same events; freed and never-issued
    /// ids give back nothing.
    fn assert_round_trip(kind: EngineKind, seed: u64) {
        let mut scenario = TreeScenario::new(seed);
        let mut engine = kind.build();
        let mut exprs: Vec<Expr> = CORNERS.iter().map(|t| Expr::parse(t).unwrap()).collect();
        exprs.extend((0..48).map(|_| scenario.subscription()));
        let mut live: Vec<(SubscriptionId, Expr)> = exprs
            .into_iter()
            .map(|expr| (engine.subscribe(&expr).unwrap(), expr))
            .collect();
        // Every seventh generated tree leaves again (after the last
        // subscribe, so no slot is reissued); the corners stay.
        let mut freed = Vec::new();
        for i in (CORNERS.len()..live.len()).rev().filter(|i| i % 7 == 0) {
            let (id, _) = live.remove(i);
            engine.unsubscribe(id).unwrap();
            freed.push(id);
        }
        for id in freed {
            assert_eq!(engine.expression(id), None, "{kind}: freed {id}");
        }
        let never = SubscriptionId::from_index(engine.subscription_id_bound() + 7);
        assert_eq!(engine.expression(never), None, "{kind}: never issued");

        let events: Vec<Event> = (0..64).map(|_| scenario.event()).collect();
        let mut fresh = kind.build();
        let (mut at_engine, mut at_fresh) = (HashMap::new(), HashMap::new());
        for (position, (id, original)) in live.iter().enumerate() {
            let back = engine
                .expression(*id)
                .expect("a live id gives its expression back");
            for event in &events {
                assert_eq!(
                    back.eval_event(event),
                    original.eval_event(event),
                    "{kind}: `{original}` came back as `{back}`; event {event:?}"
                );
            }
            at_engine.insert(*id, position);
            at_fresh.insert(fresh.subscribe(&back).unwrap(), position);
        }
        for event in &events {
            assert_eq!(
                matched_positions(&*engine, &at_engine, event),
                matched_positions(&*fresh, &at_fresh, event),
                "{kind}: event {event:?}"
            );
        }
    }

    #[test]
    fn every_engine_gives_back_an_equivalent_expression() {
        for (k, kind) in EngineKind::ALL.into_iter().enumerate() {
            for seed in [2005, 7 + k as u64] {
                assert_round_trip(kind, seed);
            }
        }
    }

    #[test]
    fn a_given_back_expression_keeps_its_required_equality() {
        // The `sharded-selective` shape and both ticker shapes: what a
        // shard synopsis indexes and clustering hashes on must survive
        // a migration on every engine kind.
        let texts = [
            "g3 = 5 and (x3 > 990000 or x3 <= 1200)",
            "symbol = \"IBM\" and (price > 120.5 or price <= 80.25) and volume >= 1000",
            "symbol = \"IBM\" and (price > 120.5 or (price <= 80.25 and volume >= 1000))",
        ];
        for kind in EngineKind::ALL {
            let mut engine = kind.build();
            for text in texts {
                let original = Expr::parse(text).unwrap();
                let id = engine.subscribe(&original).unwrap();
                let back = engine.expression(id).unwrap();
                assert!(dominant_eq_attr(&original).is_some(), "{text}");
                assert_eq!(
                    dominant_eq_attr(&back),
                    dominant_eq_attr(&original),
                    "{kind}: `{text}` came back as `{back}`"
                );
            }
        }
    }
}
